package core

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"ccsched/internal/rat"
)

// TestInstanceJSONRoundTrip checks JSON encode/decode is lossless and agrees
// with the textual format: text → Instance → JSON → Instance → text must
// reproduce the original rendering byte for byte.
func TestInstanceJSONRoundTrip(t *testing.T) {
	text := "machines 5\nslots 2\njob 7 0\njob 3 1\njob 9 0\njob 2 2\n"
	in, err := ParseInstance(text)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var back Instance
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, &back) {
		t.Fatalf("round trip changed the instance:\n got %+v\nwant %+v", &back, in)
	}
	if got := FormatInstance(&back); got != text {
		t.Fatalf("text after JSON round trip:\n got %q\nwant %q", got, text)
	}
}

// TestInstanceJSONValidates checks decoding rejects structurally invalid
// instances just like ReadInstance does.
func TestInstanceJSONValidates(t *testing.T) {
	bad := []string{
		`{"machines":0,"slots":1,"p":[1],"class":[0]}`,   // no machines
		`{"machines":1,"slots":0,"p":[1],"class":[0]}`,   // no slots
		`{"machines":1,"slots":1,"p":[0],"class":[0]}`,   // non-positive p
		`{"machines":1,"slots":1,"p":[1],"class":[-1]}`,  // negative class
		`{"machines":1,"slots":1,"p":[1,2],"class":[0]}`, // length mismatch
		`{"machines":1,"slots":1,"p":[1],"class":[0,1]}`, // length mismatch
		// Total load overflowing int64 must be rejected: a negative Σp_j
		// once sent the approx tier into a non-terminating loop.
		`{"machines":2,"slots":1,"p":[4611686018427387904,4611686018427387904,4611686018427387904],"class":[0,0,0]}`,
	}
	for _, s := range bad {
		var in Instance
		if err := json.Unmarshal([]byte(s), &in); err == nil {
			t.Errorf("decoding %s succeeded, want validation error", s)
		}
	}
}

// TestVariantJSON checks the string encoding of Variant in both directions.
func TestVariantJSON(t *testing.T) {
	for _, v := range Variants {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var back Variant
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != v {
			t.Fatalf("variant %v round-tripped to %v (wire %s)", v, back, data)
		}
	}
	var v Variant
	if err := json.Unmarshal([]byte(`"nonpreemptive"`), &v); err != nil || v != NonPreemptive {
		t.Fatalf("hyphenless alias: got %v, %v", v, err)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &v); err == nil {
		t.Fatal("unknown variant decoded without error")
	}
}

// TestScheduleJSONLen checks that ScheduleJSONLen is the exact length of
// AppendScheduleJSON's output, which encoders size their buffer with, on
// nil and empty slices, negative and extreme integers, integer, fractional
// and wide rationals, and random schedules.
func TestScheduleJSONLen(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	wide := rat.FromBig(new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(-3), 80), big.NewInt(7)))
	rats := []rat.R{{}, rat.FromInt(1), rat.FromInt(-12), rat.Frac(7, 3), rat.Frac(-1, 1<<40), rat.FromInt(math.MaxInt64), wide}
	ints := []int64{0, 9, 10, -1, -10, 99999, math.MaxInt64, math.MinInt64}
	pick := func() (int64, rat.R) { return ints[rng.Intn(len(ints))], rats[rng.Intn(len(rats))] }
	schedules := []ScheduleJSON{
		SplitSchedule{}, SplitSchedule{Pieces: []SplitPiece{}},
		CompactSplitSchedule{}, CompactSplitSchedule{Groups: []MachineGroup{{Count: 3}}},
		PreemptiveSchedule{}, PreemptiveSchedule{Pieces: []PreemptivePiece{}},
		NonPreemptiveSchedule{}, NonPreemptiveSchedule{Assign: []int64{}},
	}
	for trial := 0; trial < 50; trial++ {
		var split SplitSchedule
		var compact CompactSplitSchedule
		var pre PreemptiveSchedule
		var np NonPreemptiveSchedule
		for k := rng.Intn(6); k > 0; k-- {
			m, size := pick()
			_, start := pick()
			job := int(ints[rng.Intn(len(ints))])
			split.Pieces = append(split.Pieces, SplitPiece{Job: job, Machine: m, Size: size})
			pre.Pieces = append(pre.Pieces, PreemptivePiece{Job: job, Machine: m, Start: start, Size: size})
			np.Assign = append(np.Assign, m)
			g := MachineGroup{Count: m}
			for l := rng.Intn(3); l > 0; l-- {
				_, size := pick()
				g.Pieces = append(g.Pieces, GroupPiece{Job: job, Size: size})
			}
			compact.Groups = append(compact.Groups, g)
		}
		schedules = append(schedules, split, compact, pre, np)
	}
	for i, s := range schedules {
		if got, want := ScheduleJSONLen(s), len(AppendScheduleJSON(nil, s)); got != want {
			t.Fatalf("schedule %d %+v: ScheduleJSONLen %d, rendering has %d bytes", i, s, got, want)
		}
	}
}

// TestMarshalledInstanceTakesStrictPath checks that ScanInstanceJSON reads
// what MarshalJSON and encoding/json write, so UnmarshalJSON does not fall
// back on them. The one exception is an instance with nil slices, which
// encode as null: it has no jobs.
func TestMarshalledInstanceTakesStrictPath(t *testing.T) {
	for _, in := range []*Instance{
		{P: []int64{7, 3, math.MaxInt64 / 4}, Class: []int{0, 5, 0}, M: math.MaxInt64, Slots: 2},
		{P: []int64{}, Class: []int{}, M: 1, Slots: 1},
	} {
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		got, end, ok := ScanInstanceJSON(data)
		if !ok || end != len(data) || !reflect.DeepEqual(&got, in) {
			t.Fatalf("ScanInstanceJSON(%s) = %+v, %d, %v", data, got, end, ok)
		}
	}
}
