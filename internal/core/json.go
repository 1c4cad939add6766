package core

import (
	"bytes"
	"encoding/json"
	"fmt"
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
// Instances decode through ScanInstanceJSON, a strict single-pass reader of
// the form MarshalJSON and encoding/json emit; anything else falls back to
// encoding/json's reflection decoder, so the strict reader changes no
// accepted input, decoded value or error. Schedules are encoded by hand
// instead of by reflection: they are the bulk of each /v1/solve response.
// The hand-written codecs produce and accept exactly what encoding/json
// does for the same Go types. FuzzInstanceJSON and the module root's
// TestScheduleJSONMatchesReflection pin them to the reflection codec.

// instanceJSON is the wire shape of Instance, decoded by reflection when
// ScanInstanceJSON declines.
type instanceJSON struct {
	Machines int64   `json:"machines"`
	Slots    int     `json:"slots"`
	P        []int64 `json:"p"`
	Class    []int   `json:"class"`
}

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
	tmp, end, ok := ScanInstanceJSON(data)
	if !ok || skipSpace(data, end) != len(data) {
		var w instanceJSON
		if err := json.Unmarshal(data, &w); err != nil {
			return err
		}
		tmp = Instance{P: w.P, Class: w.Class, M: w.Machines, Slots: w.Slots}
	}
	if err := tmp.Validate(); err != nil {
		return err
	}
	*in = tmp
	return nil
}

// ScanInstanceJSON reads one instance object from the start of data
// (leading whitespace allowed) in a single pass that validates as it goes,
// and returns it with the offset just past its closing brace. It does not
// run Validate. It accepts only the form MarshalJSON and encoding/json
// emit, and declines (ok false) on anything else, however valid: keys other
// than the exact lower-case "machines", "slots", "p" and "class", a key
// given twice, escapes in a key, null anywhere, numbers with a fraction or
// an exponent, integers out of their field's range, and every syntax
// error. On the input it accepts, it decodes exactly what encoding/json's
// reflection decoder does into the wire shape: a missing key leaves its
// field zero and [] decodes to an empty, non-nil slice.
func ScanInstanceJSON(data []byte) (in Instance, end int, ok bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return in, 0, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return in, i + 1, true
	}
	var seen [4]bool // machines, slots, p, class
	for {
		if i == len(data) || data[i] != '"' {
			return in, 0, false
		}
		k := bytes.IndexByte(data[i+1:], '"')
		if k < 0 {
			return in, 0, false
		}
		key := data[i+1 : i+1+k]
		if i = skipSpace(data, i+2+k); i == len(data) || data[i] != ':' {
			return in, 0, false
		}
		i = skipSpace(data, i+1)
		field := -1
		switch string(key) {
		case "machines":
			field = 0
			in.M, i, ok = scanInt(data, i)
		case "slots":
			field = 1
			var v int64
			v, i, ok = scanInt(data, i)
			in.Slots = int(v)
			ok = ok && int64(in.Slots) == v
		case "p":
			field = 2
			in.P, i, ok = scanInts[int64](data, i)
		case "class":
			field = 3
			in.Class, i, ok = scanInts[int](data, i)
		}
		if field < 0 || !ok || seen[field] {
			return in, 0, false
		}
		seen[field] = true
		if i = skipSpace(data, i); i == len(data) {
			return in, 0, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return in, i + 1, true
		default:
			return in, 0, false
		}
	}
}

// scanInts reads a JSON array of integers at data[i:], each in T's range,
// and returns it with the offset just past the closing bracket. The slice
// is sized once, from a count of the commas before the first ']'.
func scanInts[T int64 | int](data []byte, i int) (s []T, end int, ok bool) {
	if i == len(data) || data[i] != '[' {
		return nil, 0, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return []T{}, i + 1, true
	}
	size := 1
	if k := bytes.IndexByte(data[i:], ']'); k > 0 {
		size += bytes.Count(data[i:i+k], []byte{','})
	}
	s = make([]T, 0, size)
	for {
		var v int64
		if v, i, ok = scanInt(data, i); !ok || int64(T(v)) != v {
			return nil, 0, false
		}
		s = append(s, T(v))
		if i < len(data) && data[i] == ',' { // the compact form, without a skipSpace call
			if i++; i < len(data) && isSpace(data[i]) {
				i = skipSpace(data, i)
			}
			continue
		}
		if i = skipSpace(data, i); i == len(data) {
			return nil, 0, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return s, i + 1, true
		default:
			return nil, 0, false
		}
	}
}

// scanInt reads a JSON integer at data[i:] in int64's range, as
// strconv.ParseInt reads it: an optional minus sign, then 0 or a digit
// string without a leading zero. Every caller requires a delimiter after
// it, which declines a fraction or an exponent.
func scanInt(data []byte, i int) (v int64, end int, ok bool) {
	start := i
	if i < len(data) && data[i] == '-' {
		i++
	}
	digits := i
	var u uint64
	for ; i < len(data) && data[i]-'0' <= 9; i++ {
		u = u*10 + uint64(data[i]-'0')
	}
	switch n := i - digits; {
	case n == 0, n > 1 && data[digits] == '0':
		return 0, 0, false
	case n > 18: // u may have wrapped; ParseInt checks the range
		v, err := strconv.ParseInt(string(data[start:i]), 10, 64)
		return v, i, err == nil
	case digits > start:
		return -int64(u), i, true
	default:
		return int64(u), i, true
	}
}

// appendInts appends s as a JSON array, or null for a nil slice, as
// encoding/json renders a []int64 or []int.
func appendInts[T int64 | int](b []byte, s []T) []byte {
	return appendSlice(b, s, func(b []byte, x *T) []byte { return strconv.AppendInt(b, int64(*x), 10) })
}

// ScheduleJSON is implemented by the four schedule types. An encoder that
// splices schedules into a larger document (ccsched's Result.AppendJSON)
// reads each one's exact length with ScheduleJSONLen, sizes its buffer once
// and renders into it with AppendScheduleJSON.
type ScheduleJSON interface {
	jsonLen() int
	appendJSON(b []byte) []byte
}

// ScheduleJSONLen returns the length of s's JSON encoding.
func ScheduleJSONLen(s ScheduleJSON) int { return s.jsonLen() }

// AppendScheduleJSON appends s's JSON encoding, as its MarshalJSON renders
// it, to b.
func AppendScheduleJSON(b []byte, s ScheduleJSON) []byte { return s.appendJSON(b) }

// MarshalJSON encodes the schedule as encoding/json encodes its fields.
func (s SplitSchedule) MarshalJSON() ([]byte, error) { return marshalSchedule(s), nil }

// MarshalJSON encodes the schedule as encoding/json encodes its fields.
func (s CompactSplitSchedule) MarshalJSON() ([]byte, error) { return marshalSchedule(s), nil }

// MarshalJSON encodes the schedule as encoding/json encodes its fields.
func (s PreemptiveSchedule) MarshalJSON() ([]byte, error) { return marshalSchedule(s), nil }

// MarshalJSON encodes the schedule as encoding/json encodes its fields.
func (s NonPreemptiveSchedule) MarshalJSON() ([]byte, error) { return marshalSchedule(s), nil }

func marshalSchedule(s ScheduleJSON) []byte { return s.appendJSON(make([]byte, 0, s.jsonLen())) }

func (s SplitSchedule) appendJSON(b []byte) []byte {
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
	return append(b, '}')
}

func (s SplitSchedule) jsonLen() int {
	return len(`{"pieces":}`) + sliceLen(s.Pieces, func(pc *SplitPiece) int {
		return len(`{"job":,"machine":,"size":""}`) + rat.DecimalLen(int64(pc.Job)) +
			rat.DecimalLen(pc.Machine) + pc.Size.RatStringLen()
	})
}

func (s CompactSplitSchedule) appendJSON(b []byte) []byte {
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
	return append(b, '}')
}

func (s CompactSplitSchedule) jsonLen() int {
	return len(`{"groups":}`) + sliceLen(s.Groups, func(g *MachineGroup) int {
		return len(`{"count":,"pieces":}`) + rat.DecimalLen(g.Count) + sliceLen(g.Pieces, func(pc *GroupPiece) int {
			return len(`{"job":,"size":""}`) + rat.DecimalLen(int64(pc.Job)) + pc.Size.RatStringLen()
		})
	})
}

func (s PreemptiveSchedule) appendJSON(b []byte) []byte {
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
	return append(b, '}')
}

func (s PreemptiveSchedule) jsonLen() int {
	return len(`{"pieces":}`) + sliceLen(s.Pieces, func(pc *PreemptivePiece) int {
		return len(`{"job":,"machine":,"start":"","size":""}`) + rat.DecimalLen(int64(pc.Job)) +
			rat.DecimalLen(pc.Machine) + pc.Start.RatStringLen() + pc.Size.RatStringLen()
	})
}

func (s NonPreemptiveSchedule) appendJSON(b []byte) []byte {
	b = append(b, `{"assign":`...)
	b = appendInts(b, s.Assign)
	return append(b, '}')
}

func (s NonPreemptiveSchedule) jsonLen() int {
	return len(`{"assign":}`) + sliceLen(s.Assign, func(m *int64) int { return rat.DecimalLen(*m) })
}

// sliceLen returns the length of appendSlice's rendering of s, given each
// element's.
func sliceLen[E any](s []E, elem func(*E) int) int {
	if s == nil {
		return len("null")
	}
	n := len("[]") + max(len(s)-1, 0) // brackets and commas
	for i := range s {
		n += elem(&s[i])
	}
	return n
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
