package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// reflectInstanceJSON is the instance wire shape with plain slices, so
// encoding/json codes it by reflection: the reference the hand-written
// array codec must match.
type reflectInstanceJSON struct {
	Machines int64   `json:"machines"`
	Slots    int     `json:"slots"`
	P        []int64 `json:"p"`
	Class    []int   `json:"class"`
}

// FuzzInstanceJSON round-trips arbitrary bytes through the Instance JSON
// codec: any input that decodes must satisfy the validated invariants
// (decode runs Validate), re-encode, and decode back to the same instance.
// This is the wire surface ccserved exposes to untrusted clients, so the
// codec must never accept an instance the solvers cannot safely run.
//
// Every input is also decoded by reflection into reflectInstanceJSON:
// Instance's codec must accept and reject the same inputs and decode the
// same values, its encoding must be byte-identical to reflection's, and
// whatever ScanInstanceJSON accepts, reflection must accept with the same
// values.
func FuzzInstanceJSON(f *testing.F) {
	f.Add([]byte(`{"machines": 4, "slots": 2, "p": [5, 3, 8], "class": [0, 1, 0]}`))
	f.Add([]byte(`{"machines": 1, "slots": 1, "p": [1], "class": [0]}`))
	f.Add([]byte(`{"machines": 1152921504606846976, "slots": 3, "p": [9223372036854775807], "class": [7]}`))
	f.Add([]byte(`{"machines": 0, "slots": 0, "p": [], "class": []}`))
	f.Add([]byte(`{"machines": 2, "slots": 1, "p": [4611686018427387904, 4611686018427387904, 1], "class": [0, 1, 2]}`))
	f.Add([]byte(`null`))
	// Edges of the array codec: null arrays and elements, non-integer
	// numbers, -0, int64 overflow, nested arrays, strings, objects, odd
	// whitespace, duplicate and case-variant keys.
	f.Add([]byte(`{"machines":1,"slots":1,"p":null,"class":null}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[1,null,3],"class":[0,null,0]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[1.0],"class":[0]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[1e2],"class":[0]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[3],"class":[-0]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[9223372036854775808],"class":[0]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[1],"class":[-9223372036854775809]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[[1]],"class":[0]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":["1"],"class":[0]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":"1","class":[0]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":{"a":1},"class":[true]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":7,"class":false}`))
	f.Add([]byte(" {\t\"machines\" :1 ,\r\n\"slots\":1, \"p\" : [ 2 ,\n 3\t] ,\"class\":[\r0,0 ] } "))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[1,2],"class":[0,0],"p":[3]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[5,6],"class":[0,0],"p":[null,7]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[1,2,3],"p":[4],"p":[null,null,null],"class":[0,0,0]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[1,2],"p":[],"class":[0,0]}`))
	f.Add([]byte(`{"Machines":2,"SLOTS":1,"P":[4,5],"Class":[1,0]}`))
	// Edges of the strict reader: escaped keys, leading zeros, stray
	// commas, a lone sign, a bare fraction point, 19-digit integers on both
	// sides of int64's range, an empty object, trailing bytes.
	f.Add([]byte(`{"m\u0061chines":1,"slots":1,"p":[1],"class":[0]}`))
	f.Add([]byte(`{"machines":01,"slots":1,"p":[1],"class":[0]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[1,],"class":[0]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[-],"class":[0]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[1.],"class":[0]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[9223372036854775807,-9223372036854775808],"class":[0,0]}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[9999999999999999999],"class":[0]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[1],"class":[0]} x`))
	f.Add([]byte(`{"machines":1,"slots":1,"p":[1],"class":[0],}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref reflectInstanceJSON
		refErr := json.Unmarshal(data, &ref)
		if got, end, ok := ScanInstanceJSON(data); ok && skipSpace(data, end) == len(data) {
			if refErr != nil {
				t.Fatalf("strict reader accepted %q, reflection rejected it: %v", data, refErr)
			}
			if w := (reflectInstanceJSON{Machines: got.M, Slots: got.Slots, P: got.P, Class: got.Class}); !reflect.DeepEqual(w, ref) {
				t.Fatalf("strict reader decoded %#v, reflection %#v\ninput: %q", w, ref, data)
			}
		}
		want := Instance{P: ref.P, Class: ref.Class, M: ref.Machines, Slots: ref.Slots}
		if refErr == nil {
			refErr = want.Validate()
		}
		var in Instance
		if err := json.Unmarshal(data, &in); err != nil {
			if refErr == nil {
				t.Fatalf("decode rejected %q (%v), reflection accepted it", data, err)
			}
			return // rejected inputs are fine; accepting a bad one is not
		}
		if refErr != nil {
			t.Fatalf("decode accepted %q, reflection rejected it: %v", data, refErr)
		}
		if !reflect.DeepEqual(in, want) {
			t.Fatalf("decoded %#v, reflection %#v", in, want)
		}
		// Whatever decoded must already be safe for the solvers.
		if err := in.Validate(); err != nil {
			t.Fatalf("decoded instance fails Validate: %v\ninput: %q", err, data)
		}
		out, err := json.Marshal(&in)
		if err != nil {
			t.Fatalf("re-encoding a decoded instance: %v", err)
		}
		refOut, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, refOut) {
			t.Fatalf("encoded %s, reflection %s", out, refOut)
		}
		var back Instance
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("decoding the re-encoded instance: %v\nencoded: %s", err, out)
		}
		if !reflect.DeepEqual(normalizeEmpty(&in), normalizeEmpty(&back)) {
			t.Fatalf("round trip changed the instance:\n first: %+v\nsecond: %+v", in, back)
		}
	})
}

// normalizeEmpty maps nil and empty slices onto one representation; the
// JSON round trip may turn [] into null, which is semantically identical.
func normalizeEmpty(in *Instance) *Instance {
	out := *in
	if len(out.P) == 0 {
		out.P = nil
	}
	if len(out.Class) == 0 {
		out.Class = nil
	}
	return &out
}
