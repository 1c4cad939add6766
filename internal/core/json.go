package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"ccsched/internal/rat"
)

// JSON wire format for instances, used by the service layer (cmd/ccserved),
// ccgen -json and ccsolve's JSON stdin:
//
//	{"machines": 4, "slots": 2, "p": [5, 3, 8], "class": [0, 1, 0]}
//
// The encoding mirrors the Instance struct with lower-case keys and is
// validated on decode exactly like the textual format (ReadInstance).
//
// The integer arrays and every schedule are coded by hand instead of by
// reflection: they are the bulk of each /v1/solve request and response.
// The hand-written codecs produce and accept exactly what encoding/json does
// for the same Go types. FuzzInstanceJSON and the module root's
// TestScheduleJSONMatchesReflection pin them to the reflection codec.

// instanceJSON is the wire shape of Instance. Key matching stays with
// encoding/json; the two arrays decode through int64List and intList.
type instanceJSON struct {
	Machines int64     `json:"machines"`
	Slots    int       `json:"slots"`
	P        int64List `json:"p"`
	Class    intList   `json:"class"`
}

// int64List and intList decode a JSON integer array without reflection;
// see decodeInts.
type (
	int64List []int64
	intList   []int
)

// UnmarshalJSON decodes a JSON integer array into l; see decodeInts.
func (l *int64List) UnmarshalJSON(data []byte) error { return decodeInts((*[]int64)(l), data) }

// UnmarshalJSON decodes a JSON integer array into l; see decodeInts.
func (l *intList) UnmarshalJSON(data []byte) error { return decodeInts((*[]int)(l), data) }

// MarshalJSON encodes the instance in the JSON wire format.
func (in *Instance) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 48+12*len(in.P))
	b = append(b, `{"machines":`...)
	b = strconv.AppendInt(b, in.M, 10)
	b = append(b, `,"slots":`...)
	b = strconv.AppendInt(b, int64(in.Slots), 10)
	b = append(b, `,"p":`...)
	b = appendInts(b, in.P)
	b = append(b, `,"class":`...)
	b = appendInts(b, in.Class)
	return append(b, '}'), nil
}

// UnmarshalJSON decodes the JSON wire format and validates the result, so a
// successfully decoded instance is always safe to hand to the algorithms.
func (in *Instance) UnmarshalJSON(data []byte) error {
	var w instanceJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	tmp := Instance{P: w.P, Class: w.Class, M: w.Machines, Slots: w.Slots}
	if err := tmp.Validate(); err != nil {
		return err
	}
	*in = tmp
	return nil
}

// appendInts appends s as a JSON array, or null for a nil slice, as
// encoding/json renders a []int64 or []int.
func appendInts[T int64 | int](b []byte, s []T) []byte {
	return appendSlice(b, s, func(b []byte, x *T) []byte { return strconv.AppendInt(b, int64(*x), 10) })
}

// decodeInts decodes one JSON value, already checked to be well-formed by
// encoding/json, into *dst exactly as encoding/json decodes it into a []T by
// reflection: null sets nil, [] sets an empty non-nil slice, the existing
// backing array is reused (a duplicate key decodes over the earlier value),
// and a null element leaves its element as it was. A value that is not an
// array, or an element that is not an integer in T's range, is the same
// *json.UnmarshalTypeError encoding/json reports.
func decodeInts[T int64 | int](dst *[]T, data []byte) error {
	i := skipSpace(data, 0)
	if i == len(data) {
		return fmt.Errorf("core: empty JSON value")
	}
	switch data[i] {
	case 'n':
		*dst = nil
		return nil
	case '[':
	default:
		return &json.UnmarshalTypeError{Value: jsonKind(data[i]), Type: reflect.TypeFor[[]T]()}
	}
	s := *dst
	if cap(s) == 0 {
		s = make([]T, 0, bytes.Count(data, []byte{','})+1) // one allocation
	}
	n := 0
	elem := reflect.TypeFor[T]()
	for i = skipSpace(data, i+1); i < len(data) && data[i] != ']'; {
		end := i
		for end < len(data) && data[end] != ',' && data[end] != ']' && !isSpace(data[end]) {
			end++
		}
		if n == len(s) {
			if n < cap(s) {
				s = s[:n+1] // reflection re-exposes the old backing array too
			} else {
				s = append(s, 0)
			}
		}
		switch tok := data[i:end]; {
		case len(tok) == 0:
			return fmt.Errorf("core: malformed JSON array")
		case tok[0] == 'n':
			// null leaves an integer element as it was.
		case tok[0] == '-' || '0' <= tok[0] && tok[0] <= '9':
			v, ok := parseInt(tok)
			if !ok || int64(T(v)) != v {
				return &json.UnmarshalTypeError{Value: "number " + string(tok), Type: elem}
			}
			s[n] = T(v)
		default:
			return &json.UnmarshalTypeError{Value: jsonKind(tok[0]), Type: elem}
		}
		n++
		if i = skipSpace(data, end); i < len(data) && data[i] == ',' {
			i = skipSpace(data, i+1)
		}
	}
	if n == 0 {
		s = []T{}
	}
	*dst = s[:n]
	return nil
}

// MarshalJSON encodes the schedule as encoding/json encodes its fields.
func (s SplitSchedule) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 16+40*len(s.Pieces))
	b = append(b, `{"pieces":`...)
	b = appendSlice(b, s.Pieces, func(b []byte, pc *SplitPiece) []byte {
		b = append(b, `{"job":`...)
		b = strconv.AppendInt(b, int64(pc.Job), 10)
		b = append(b, `,"machine":`...)
		b = strconv.AppendInt(b, pc.Machine, 10)
		b = append(b, `,"size":`...)
		b = appendRat(b, pc.Size)
		return append(b, '}')
	})
	return append(b, '}'), nil
}

// MarshalJSON encodes the schedule as encoding/json encodes its fields.
func (s CompactSplitSchedule) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 16+64*len(s.Groups))
	b = append(b, `{"groups":`...)
	b = appendSlice(b, s.Groups, func(b []byte, g *MachineGroup) []byte {
		b = append(b, `{"count":`...)
		b = strconv.AppendInt(b, g.Count, 10)
		b = append(b, `,"pieces":`...)
		b = appendSlice(b, g.Pieces, func(b []byte, pc *GroupPiece) []byte {
			b = append(b, `{"job":`...)
			b = strconv.AppendInt(b, int64(pc.Job), 10)
			b = append(b, `,"size":`...)
			b = appendRat(b, pc.Size)
			return append(b, '}')
		})
		return append(b, '}')
	})
	return append(b, '}'), nil
}

// MarshalJSON encodes the schedule as encoding/json encodes its fields.
func (s PreemptiveSchedule) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 16+56*len(s.Pieces))
	b = append(b, `{"pieces":`...)
	b = appendSlice(b, s.Pieces, func(b []byte, pc *PreemptivePiece) []byte {
		b = append(b, `{"job":`...)
		b = strconv.AppendInt(b, int64(pc.Job), 10)
		b = append(b, `,"machine":`...)
		b = strconv.AppendInt(b, pc.Machine, 10)
		b = append(b, `,"start":`...)
		b = appendRat(b, pc.Start)
		b = append(b, `,"size":`...)
		b = appendRat(b, pc.Size)
		return append(b, '}')
	})
	return append(b, '}'), nil
}

// MarshalJSON encodes the schedule as encoding/json encodes its fields.
func (s NonPreemptiveSchedule) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 16+8*len(s.Assign))
	b = append(b, `{"assign":`...)
	b = appendInts(b, s.Assign)
	return append(b, '}'), nil
}

// appendSlice appends s as a JSON array of elem's renderings, or null for a
// nil slice.
func appendSlice[E any](b []byte, s []E, elem func([]byte, *E) []byte) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, &s[i])
	}
	return append(b, ']')
}

// appendRat appends r as the JSON string its MarshalText produces. The text
// holds only digits, '-' and '/', so it needs no escaping.
func appendRat(b []byte, r rat.R) []byte {
	b = append(b, '"')
	b = r.AppendRatString(b)
	return append(b, '"')
}

// parseInt parses a JSON number token as strconv.ParseInt(tok, 10, 64)
// does: an optional minus sign and decimal digits, in int64's range.
// Fractions and exponents are rejected.
func parseInt(tok []byte) (int64, bool) {
	limit := uint64(math.MaxInt64)
	neg := tok[0] == '-'
	if neg {
		tok, limit = tok[1:], limit+1
	}
	if len(tok) == 0 {
		return 0, false
	}
	var u uint64
	for _, c := range tok {
		d := uint64(c - '0')
		if d > 9 || u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		return -int64(u), true // also right for u = 2^63
	}
	return int64(u), true
}

// jsonKind names a JSON value by its first byte, as encoding/json's
// UnmarshalTypeError does.
func jsonKind(c byte) string {
	switch c {
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case '[':
		return "array"
	case '{':
		return "object"
	default:
		return "number"
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// skipSpace returns the index of the first non-space byte at or after i.
func skipSpace(data []byte, i int) int {
	for i < len(data) && isSpace(data[i]) {
		i++
	}
	return i
}

// ParseVariant maps the conventional variant names ("splittable",
// "preemptive", "nonpreemptive" or "non-preemptive") to a Variant.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "splittable":
		return Splittable, nil
	case "preemptive":
		return Preemptive, nil
	case "nonpreemptive", "non-preemptive":
		return NonPreemptive, nil
	default:
		return 0, fmt.Errorf("core: unknown variant %q", s)
	}
}

// MarshalText implements encoding.TextMarshaler, so variants serialize as
// their conventional names in JSON.
func (v Variant) MarshalText() ([]byte, error) {
	switch v {
	case Splittable, Preemptive, NonPreemptive:
		return []byte(v.String()), nil
	default:
		return nil, fmt.Errorf("core: cannot marshal unknown variant %d", int(v))
	}
}

// UnmarshalText implements encoding.TextUnmarshaler; see ParseVariant.
func (v *Variant) UnmarshalText(text []byte) error {
	parsed, err := ParseVariant(string(text))
	if err != nil {
		return err
	}
	*v = parsed
	return nil
}
