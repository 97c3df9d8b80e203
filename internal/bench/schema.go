package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Universal wire bounds: the hard ceilings one job may request from the
// serving layer, chosen well above every figure the paper needs. Every
// scenario and composition pattern that exposes the corresponding field
// inherits these unless its schema narrows them further.
const (
	MaxSweepPoints = 16      // entries in a procs sweep
	MinProcs       = 2       // ranks per simulation
	MaxProcs       = 4096    //
	MaxPerNode     = 64      // ranks per node
	MaxOpsEach     = 1000    // per-worker AMO ops
	MaxIters       = 100     // repetitions / SCF cycles
	MaxSizePoints  = 24      // entries in a sizes sweep
	MinSize        = 8       // message bytes
	MaxSize        = 1 << 20 //
)

// ParamKind is the wire type of one scenario parameter.
type ParamKind string

const (
	KindInt     ParamKind = "int"
	KindIntList ParamKind = "int_list"
	KindUint    ParamKind = "uint"
	KindBool    ParamKind = "bool"
)

// ParamSpec declares one parameter of a scenario or composition pattern:
// its wire name, type, documentation, default, and bounds. Normalize and
// Validate are generated from these declarations, and GET /v1/scenarios
// serves them verbatim so clients can introspect instead of hard-coding.
type ParamSpec struct {
	Name    string    `json:"name"`
	Kind    ParamKind `json:"type"`
	Doc     string    `json:"doc"`
	Default any       `json:"default,omitempty"`
	Min     int64     `json:"min,omitempty"`
	Max     int64     `json:"max,omitempty"`
	MaxLen  int       `json:"max_len,omitempty"` // list kinds only
}

// Schema is an ordered parameter declaration list. Order is the
// presentation order in listings; lookups are by name.
type Schema []ParamSpec

// IntParam declares a bounded integer parameter. A submitted zero means
// "unset" and resolves to the default — the {"scenario":…} wire's
// convention, which already-cached keys depend on.
func IntParam(name, doc string, def int, min, max int64) ParamSpec {
	return ParamSpec{Name: name, Kind: KindInt, Doc: doc, Default: def, Min: min, Max: max}
}

// ListParam declares a bounded integer-list parameter. An empty list
// means "unset" and resolves to the default.
func ListParam(name, doc string, def []int, min, max int64, maxLen int) ParamSpec {
	return ParamSpec{Name: name, Kind: KindIntList, Doc: doc, Default: def, Min: min, Max: max, MaxLen: maxLen}
}

// UintParam declares an unsigned parameter (seeds). Zero resolves to the
// default.
func UintParam(name, doc string, def uint64) ParamSpec {
	return ParamSpec{Name: name, Kind: KindUint, Doc: doc, Default: def}
}

// BoolParam declares a boolean parameter. false is a meaningful value,
// not "unset": omitting the key yields the default, submitting false
// keeps false.
func BoolParam(name, doc string, def bool) ParamSpec {
	return ParamSpec{Name: name, Kind: KindBool, Doc: doc, Default: def}
}

// Spec looks a parameter declaration up by wire name.
func (s Schema) Spec(name string) (ParamSpec, bool) {
	for _, ps := range s {
		if ps.Name == name {
			return ps, true
		}
	}
	return ParamSpec{}, false
}

// ParamError reports one invalid parameter with enough structure for the
// serving layer to emit {error, field, hint} responses.
type ParamError struct {
	Param string // wire name of the offending parameter
	Hint  string // human-readable constraint, e.g. "must be in [1, 100]"
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("param %q: %s", e.Param, e.Hint)
}

// Values is a map-shaped parameter set, the form composition patterns
// use (each pattern has its own schema, so a struct cannot be shared).
// After Resolve every value is one of int, []int, uint64, or bool, and
// every schema key is present — json.Marshal of a resolved Values is
// canonical (map keys sort, defaults are spelled out).
type Values map[string]any

// Resolve checks v against the schema and returns the canonical form:
// unknown keys rejected, JSON numbers coerced to typed values, zero/empty
// values replaced by declared defaults, bounds enforced. The receiver is
// not mutated.
func (s Schema) Resolve(v Values) (Values, error) {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := s.Spec(k); !ok {
			return nil, &ParamError{Param: k, Hint: "unknown parameter"}
		}
	}
	out := make(Values, len(s))
	for _, ps := range s {
		raw, present := v[ps.Name]
		cv, err := ps.coerce(raw, present)
		if err != nil {
			return nil, err
		}
		if err := ps.check(cv); err != nil {
			return nil, err
		}
		out[ps.Name] = cv
	}
	return out, nil
}

// defaultValue returns a private copy of the declared default, typed for
// the kind.
func (ps ParamSpec) defaultValue() any {
	switch ps.Kind {
	case KindIntList:
		if ps.Default == nil {
			return []int(nil)
		}
		return append([]int(nil), ps.Default.([]int)...)
	case KindInt:
		if ps.Default == nil {
			return 0
		}
		return ps.Default.(int)
	case KindUint:
		if ps.Default == nil {
			return uint64(0)
		}
		return ps.Default.(uint64)
	case KindBool:
		if ps.Default == nil {
			return false
		}
		return ps.Default.(bool)
	}
	panic("bench: unknown param kind " + string(ps.Kind))
}

// asInt reads an integer out of a decoded JSON value. A json.Number (the
// decoder kept the literal: the {"scenario":…} wire) must be spelled as
// an integer; a float64 (the compose wire) must be integral and below
// 2^53, where it still names exactly one integer.
func asInt(v any) (int, bool) {
	switch n := v.(type) {
	case int:
		return n, true
	case int64:
		return int(n), true
	case json.Number:
		i, err := strconv.ParseInt(string(n), 10, 64)
		return int(i), err == nil
	case float64:
		if n != math.Trunc(n) || math.Abs(n) >= 1<<53 {
			return 0, false
		}
		return int(n), true
	}
	return 0, false
}

// coerce maps a raw JSON-decoded value onto the parameter's Go type,
// substituting the default for absent or zero ("unset") submissions.
func (ps ParamSpec) coerce(raw any, present bool) (any, error) {
	if !present || raw == nil {
		return ps.defaultValue(), nil
	}
	switch ps.Kind {
	case KindInt:
		n, ok := asInt(raw)
		if !ok {
			return nil, &ParamError{Param: ps.Name, Hint: "must be an integer"}
		}
		if n == 0 {
			return ps.defaultValue(), nil
		}
		return n, nil
	case KindUint:
		var n uint64
		var ok bool
		switch r := raw.(type) {
		case uint64:
			n, ok = r, true
		case json.Number:
			// All 64 bits: a seed runs and hashes as the integer submitted.
			u, err := strconv.ParseUint(string(r), 10, 64)
			n, ok = u, err == nil
		default:
			i, isInt := asInt(raw)
			n, ok = uint64(i), isInt && i >= 0
		}
		if !ok {
			return nil, &ParamError{Param: ps.Name, Hint: "must be a non-negative integer"}
		}
		if n == 0 {
			return ps.defaultValue(), nil
		}
		return n, nil
	case KindBool:
		b, ok := raw.(bool)
		if !ok {
			return nil, &ParamError{Param: ps.Name, Hint: "must be a boolean"}
		}
		return b, nil
	case KindIntList:
		var list []int
		switch l := raw.(type) {
		case []int:
			list = append([]int(nil), l...)
		case []any:
			for _, e := range l {
				n, ok := asInt(e)
				if !ok {
					return nil, &ParamError{Param: ps.Name, Hint: "must be a list of integers"}
				}
				list = append(list, n)
			}
		default:
			return nil, &ParamError{Param: ps.Name, Hint: "must be a list of integers"}
		}
		if len(list) == 0 {
			return ps.defaultValue(), nil
		}
		return list, nil
	}
	panic("bench: unknown param kind " + string(ps.Kind))
}

// check enforces the declared bounds on an already-coerced value.
func (ps ParamSpec) check(v any) error {
	bounded := ps.Min != 0 || ps.Max != 0
	switch ps.Kind {
	case KindInt:
		n := v.(int)
		if bounded && (int64(n) < ps.Min || int64(n) > ps.Max) {
			return &ParamError{Param: ps.Name,
				Hint: fmt.Sprintf("must be in [%d, %d] (got %d)", ps.Min, ps.Max, n)}
		}
	case KindIntList:
		list := v.([]int)
		if ps.MaxLen > 0 && len(list) > ps.MaxLen {
			return &ParamError{Param: ps.Name,
				Hint: fmt.Sprintf("at most %d sweep points (got %d)", ps.MaxLen, len(list))}
		}
		if bounded {
			for _, n := range list {
				if int64(n) < ps.Min || int64(n) > ps.Max {
					return &ParamError{Param: ps.Name,
						Hint: fmt.Sprintf("each entry must be in [%d, %d] (got %d)", ps.Min, ps.Max, n)}
				}
			}
		}
	}
	return nil
}

// Typed accessors for a resolved Values. Panics indicate a programming
// error (reading a key the schema does not declare), never bad input —
// Resolve has already rejected that.

func (v Values) Int(name string) int     { return v[name].(int) }
func (v Values) Ints(name string) []int  { return v[name].([]int) }
func (v Values) Uint(name string) uint64 { return v[name].(uint64) }
func (v Values) Bool(name string) bool   { return v[name].(bool) }
