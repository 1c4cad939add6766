package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ccsched"
)

// FuzzSolveRequestJSON holds the /v1/solve walker to json.Decoder: every
// body is either declined or decoded to the SolveRequest that json.Decoder
// decodes from it, and json.Decoder must succeed on it. A declined body is
// decoded by json.Decoder itself, so declining is always safe; accepting is
// what must be right.
func FuzzSolveRequestJSON(f *testing.F) {
	inst := `{"machines":4,"slots":2,"p":[5,3,8],"class":[0,1,0]}`
	for _, body := range []string{
		`{"instance":` + inst + `,"options":{"variant":"splittable","tier":"approx"}}`,
		`{"instance":` + inst + `,"options":{"variant":"preemptive","tier":"ptas","epsilon":1},"timeout_ms":1000,"soft_timeout_ms":500}`,
		`{"options":{"variant":"nonpreemptive","tier":"approx","max_nodes":3,"trace":true,"fallback_tier":"approx"},"instance":` + inst + `}`,
		`{}`,
		`null`,
		// Case-variant, escaped, duplicate and unknown keys.
		`{"Instance":` + inst + `}`,
		`{"instance":` + inst + `,"Options":{"tier":"approx"}}`,
		`{"inst\u0061nce":` + inst + `}`,
		`{"instance":` + inst + `,"instance":` + inst + `}`,
		`{"instance":` + inst + `,"timeout_ms":1,"timeout_ms":2}`,
		`{"instance":` + inst + `,"extra":[1,{"a":"}"}]}`,
		// Nulls.
		`{"instance":null}`,
		`{"instance":` + inst + `,"options":null}`,
		`{"instance":{"machines":1,"slots":1,"p":[1,null],"class":[0,0]}}`,
		`{"instance":{"machines":null,"slots":1,"p":[1],"class":[0]}}`,
		// Numbers: fractions, exponents, -0, int64 overflow.
		`{"instance":{"machines":1.0,"slots":1,"p":[1],"class":[0]}}`,
		`{"instance":{"machines":1,"slots":1,"p":[1e2],"class":[0]}}`,
		`{"instance":{"machines":1,"slots":1,"p":[3],"class":[-0]}}`,
		`{"instance":{"machines":1,"slots":1,"p":[9223372036854775808],"class":[0]}}`,
		`{"instance":` + inst + `,"timeout_ms":-0}`,
		`{"instance":` + inst + `,"timeout_ms":1e3}`,
		`{"instance":` + inst + `,"soft_timeout_ms":9223372036854775808}`,
		// An instance Validate rejects, and bad option values.
		`{"instance":{"machines":0,"slots":1,"p":[1],"class":[0]}}`,
		`{"instance":` + inst + `,"options":{"variant":"bogus"}}`,
		`{"instance":` + inst + `,"options":{"tier":"approx","no_warm_start":true,"parallelism":4}}`,
		`{"instance":` + inst + `,"options":"approx"}`,
		// Trailing bytes, truncation and odd whitespace.
		`{"instance":` + inst + `} {"instance":` + inst + `}`,
		`{"instance":` + inst + `}}`,
		`{"instance":` + inst + `,}`,
		`{"instance":` + inst,
		" \r\n{\t\"instance\" :\n" + inst + " ,\"options\" : { \"tier\" : \"approx\" } ,\"timeout_ms\"\t:\r7 }\n ",
		`{"instance":` + inst + `,"options":{"tier":"approx\"}"}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want SolveRequest
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		var got SolveRequest
		if !parseSolveRequest(data, &got) {
			return
		}
		if wantErr != nil {
			t.Fatalf("walker accepted %q, json.Decoder rejected it: %v", data, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("walker decoded %#v, json.Decoder %#v\ninput: %q", got, want, data)
		}
	})
}

// TestMarshalledSolveRequestsTakeStrictPath checks that every body
// json.Marshal produces for a SolveRequest of the serve-mix shapes (approx
// n=2000 and PTAS n=200 requests, both generator families, all three
// variants, with and without the timeouts) takes the strict path and
// decodes to the request that was marshalled.
func TestMarshalledSolveRequestsTakeStrictPath(t *testing.T) {
	for _, family := range []string{"uniform", "zipf"} {
		for _, variant := range []ccsched.Variant{ccsched.Splittable, ccsched.Preemptive, ccsched.NonPreemptive} {
			for k, g := range []ccsched.GeneratorConfig{
				{N: 2000, Classes: 200, Machines: 100, Slots: 3, PMax: 10000, Seed: 7},
				{N: 200, Classes: 20, Machines: 10, Slots: 3, PMax: 10000, Seed: 8},
			} {
				in, err := ccsched.Generate(family, g)
				if err != nil {
					t.Fatal(err)
				}
				reqs := []SolveRequest{
					{Instance: in, Options: ccsched.Options{Variant: variant, Tier: ccsched.TierApprox}},
					{Instance: in, Options: ccsched.Options{Variant: variant, Tier: ccsched.TierPTAS, Epsilon: 1}, TimeoutMs: 1000, SoftTimeoutMs: 500},
				}
				for i, req := range reqs {
					body, err := json.Marshal(req)
					if err != nil {
						t.Fatal(err)
					}
					var got SolveRequest
					if !parseSolveRequest(body, &got) {
						t.Fatalf("%s/%v/shape %d/request %d: declined %.200s", family, variant, k, i, body)
					}
					if !reflect.DeepEqual(got, req) {
						t.Fatalf("%s/%v/shape %d/request %d: decoded %+v, marshalled %+v", family, variant, k, i, got, req)
					}
				}
			}
		}
	}
}

// TestSolveBodyOverLimit checks that a body over Config.MaxBodyBytes gets
// the status and message that decoding straight from the size-limited body
// gives, whether the limit falls inside the instance or only after the
// request object (trailing bytes the decoder never needs).
func TestSolveBodyOverLimit(t *testing.T) {
	const limit = 256
	s := New(Config{MaxBodyBytes: limit})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	h := s.Handler()
	in := genInstance(t, "uniform", 100, 4, 3, 2, 1)
	small := genInstance(t, "uniform", 3, 2, 2, 1, 1)
	bodyOf := func(in *ccsched.Instance) string {
		b, err := json.Marshal(SolveRequest{Instance: in, Options: ccsched.Options{Tier: ccsched.TierApprox}})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for k, body := range []string{
		bodyOf(in),
		bodyOf(small) + strings.Repeat(" ", 2*limit),
		bodyOf(small) + strings.Repeat("x", 2*limit),
	} {
		// The reference: the decoder reading the limited body itself.
		refRec := httptest.NewRecorder()
		refReq := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body))
		var ref SolveRequest
		refErr := json.NewDecoder(http.MaxBytesReader(refRec, refReq.Body, limit)).Decode(&ref)
		if (refErr != nil) != (k == 0) {
			t.Fatalf("body %d: the decoder's error %v is not the one the case is built for", k, refErr)
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)))
		if refErr == nil {
			if rec.Code != http.StatusOK {
				t.Fatalf("body of %d bytes: HTTP %d %s, the decoder accepted it", len(body), rec.Code, rec.Body)
			}
			continue
		}
		var got ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if want := "decoding request: " + refErr.Error(); rec.Code != http.StatusBadRequest || got.Error != want {
			t.Fatalf("body of %d bytes: HTTP %d %q, want 400 %q", len(body), rec.Code, got.Error, want)
		}
	}
}
