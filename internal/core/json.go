package core

import (
	"encoding/json"
	"fmt"
)

// JSON wire format for instances, used by the service layer (cmd/ccserved),
// ccgen -json and ccsolve's JSON stdin:
//
//	{"machines": 4, "slots": 2, "p": [5, 3, 8], "class": [0, 1, 0]}
//
// The encoding mirrors the Instance struct with lower-case keys and is
// validated on decode exactly like the textual format (ReadInstance).

// instanceJSON is the wire shape of Instance.
type instanceJSON struct {
	Machines int64   `json:"machines"`
	Slots    int     `json:"slots"`
	P        []int64 `json:"p"`
	Class    []int   `json:"class"`
}

// MarshalJSON encodes the instance in the JSON wire format.
func (in *Instance) MarshalJSON() ([]byte, error) {
	return json.Marshal(instanceJSON{Machines: in.M, Slots: in.Slots, P: in.P, Class: in.Class})
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
