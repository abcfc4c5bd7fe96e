// Package model is the pluggable graph-model registry: the single
// place where every growing-graph generator of the repository is
// published under a stable name with a declared parameter table, so
// the measurement stack (core), the experiment harness, and the CLIs
// (cmd/graphgen, cmd/genstats) can instantiate any model uniformly —
// adding a workload means registering one Family, not editing every
// layer by hand (DESIGN.md §7).
//
// A registered Family declares its name, its ordered parameters
// (name, kind, default, doc), and a Build hook that validates a parsed
// parameter set and returns the generation closure. model.New parses a
// "k=v,k=v" parameter string against the table (unknown keys and
// malformed or out-of-range values are errors, missing keys take
// defaults) and wraps the closure into a Model whose Params method
// renders the *canonical* parameter encoding — every parameter, in
// declaration order, with its effective value. That string is stable
// across processes and feeds experiment trial keys, so it participates
// in the sweep layer's plan fingerprints; New(m.Name(), m.Params())
// round-trips to an identical model.
//
// Generation goes through a shared Scratch bundling the per-family
// reusable buffers: models with scratch-backed generators (Móri,
// Cooper–Frieze, BA, fitness, geopa) reuse them for zero
// steady-state-allocation generation on the weights.EndpointArray hot
// path; the others ignore the scratch. A generator always runs on a
// scratch: Model.Generate resolves a nil one, in one place, to a fresh
// Scratch whose working buffers the returned graph does not pin.
// Scratch reuse never affects the generated graph (the registry
// conformance test pins both properties). New rejects a NaN value for
// any Float parameter, since no generator can honour one, and every
// value the family's Validate rejects, so those fail at instantiation
// rather than mid-sweep (FuzzModelNew holds New to this).
package model

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"scalefree/internal/ba"
	"scalefree/internal/cooperfrieze"
	"scalefree/internal/fitness"
	"scalefree/internal/geopa"
	"scalefree/internal/graph"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
)

// Scratch bundles the reusable generation buffers of every registered
// model family; each generator reaches its own sub-scratch through it,
// so one worker-owned Scratch serves any model the worker's trials
// draw from. The zero value is ready to use.
type Scratch struct {
	Mori    mori.Scratch
	CF      cooperfrieze.Scratch
	BA      ba.Scratch
	Fitness fitness.Scratch
	Geo     geopa.Scratch
}

// Model is one instantiated graph model: a stable family name, the
// canonical parameter encoding (stable across processes — it feeds
// trial keys and therefore plan fingerprints), and the generator.
type Model interface {
	// Name returns the registered family name, e.g. "mori".
	Name() string
	// Params returns the canonical parameter encoding: every declared
	// parameter in declaration order with its effective value, e.g.
	// "n=4096,m=1,p=0.5". New(Name(), Params()) reconstructs an
	// identical model.
	Params() string
	// Generate draws one graph. With a non-nil scratch the generator
	// reuses its buffers, and the returned graph is only valid until
	// the scratch's next use. A nil scratch runs the generator on a
	// fresh one, and the returned graph pins none of its working
	// buffers. Scratch reuse never affects the result: equal seeds
	// yield identical graphs either way.
	Generate(r *rng.RNG, s *Scratch) (*graph.Graph, error)
}

// GenerateFunc is the generation closure a Family's Build returns. Its
// scratch is never nil; the graph it returns may alias the scratch.
type GenerateFunc func(r *rng.RNG, s *Scratch) (*graph.Graph, error)

// Kind is the type of one model parameter.
type Kind int

const (
	Int Kind = iota
	Float
	Bool
)

// Param declares one model parameter.
type Param struct {
	Name    string
	Kind    Kind
	Default float64 // Int params store the integer, Bool params 0/1
	Doc     string
}

// DefaultString renders the parameter's default in the same canonical
// form Params() uses, so listings and encodings cannot drift apart.
func (p Param) DefaultString() string { return formatValue(p.Kind, p.Default) }

// formatValue renders one parameter value in its canonical form.
func formatValue(k Kind, x float64) string {
	switch k {
	case Int:
		return strconv.Itoa(int(x))
	case Bool:
		return strconv.FormatBool(x != 0)
	default:
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
}

// Values is a parsed parameter set, keyed by parameter name. Int and
// Bool values are stored as float64 (Bool as 0/1); the accessors
// convert.
type Values map[string]float64

// Int returns the named parameter as an integer.
func (v Values) Int(name string) int { return int(v[name]) }

// Bool returns the named parameter as a boolean.
func (v Values) Bool(name string) bool { return v[name] != 0 }

// Family is one registered model family.
type Family struct {
	Name   string
	Doc    string
	Params []Param
	// Build validates a complete parameter set (every declared
	// parameter present) and returns the generation closure. Range
	// errors surface here, at instantiation time, never mid-sweep.
	Build func(v Values) (GenerateFunc, error)
}

func (f Family) param(name string) (Param, bool) {
	for _, p := range f.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// paramNames renders the declared parameter list for diagnostics.
func (f Family) paramNames() string {
	names := make([]string, len(f.Params))
	for i, p := range f.Params {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

var families = map[string]Family{}

// Register publishes a family. It is called from init and panics on a
// duplicate or malformed declaration — a broken registry is a
// programming error, not a runtime condition.
func Register(f Family) {
	if f.Name == "" {
		panic("model: Register with empty family name")
	}
	if f.Build == nil {
		panic(fmt.Sprintf("model: family %s has no Build hook", f.Name))
	}
	if _, dup := families[f.Name]; dup {
		panic(fmt.Sprintf("model: family %s registered twice", f.Name))
	}
	seen := map[string]bool{}
	for _, p := range f.Params {
		if p.Name == "" || seen[p.Name] {
			panic(fmt.Sprintf("model: family %s declares empty or duplicate parameter %q", f.Name, p.Name))
		}
		seen[p.Name] = true
	}
	families[f.Name] = f
}

// Families returns every registered family in name order.
func Families() []Family {
	out := make([]Family, 0, len(families))
	for _, f := range families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the registered family names in sorted order.
func Names() []string {
	out := make([]string, 0, len(families))
	for name := range families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New instantiates a model: params is a comma-separated "name=value"
// list validated against the family's parameter table (missing
// parameters take their defaults; unknown names, malformed values, and
// out-of-range configurations are errors). The empty string selects
// all defaults.
func New(name, params string) (Model, error) {
	f, ok := families[name]
	if !ok {
		return nil, fmt.Errorf("model: unknown model %q (registered: %s)", name, strings.Join(Names(), ", "))
	}
	v, err := f.parse(params)
	if err != nil {
		return nil, err
	}
	gen, err := f.Build(v)
	if err != nil {
		return nil, err
	}
	return &instance{name: f.Name, params: f.canonical(v), gen: gen}, nil
}

// parse fills defaults and overlays the "k=v,k=v" parameter string.
func (f Family) parse(params string) (Values, error) {
	v := Values{}
	for _, p := range f.Params {
		v[p.Name] = p.Default
	}
	if strings.TrimSpace(params) == "" {
		return v, nil
	}
	for _, kv := range strings.Split(params, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		name, raw, ok := strings.Cut(kv, "=")
		name, raw = strings.TrimSpace(name), strings.TrimSpace(raw)
		if !ok || name == "" || raw == "" {
			return nil, fmt.Errorf("model: %s: malformed parameter %q (want name=value)", f.Name, kv)
		}
		p, known := f.param(name)
		if !known {
			return nil, fmt.Errorf("model: %s has no parameter %q (parameters: %s)", f.Name, name, f.paramNames())
		}
		switch p.Kind {
		case Int:
			x, err := strconv.Atoi(raw)
			if err != nil {
				return nil, fmt.Errorf("model: %s: parameter %s = %q is not an integer", f.Name, name, raw)
			}
			v[name] = float64(x)
		case Float:
			x, err := strconv.ParseFloat(raw, 64)
			if err != nil || math.IsNaN(x) {
				return nil, fmt.Errorf("model: %s: parameter %s = %q is not a number", f.Name, name, raw)
			}
			v[name] = x
		case Bool:
			x, err := strconv.ParseBool(raw)
			if err != nil {
				return nil, fmt.Errorf("model: %s: parameter %s = %q is not a boolean", f.Name, name, raw)
			}
			v[name] = 0
			if x {
				v[name] = 1
			}
		}
	}
	return v, nil
}

// canonical renders a complete parameter set in declaration order —
// the stable encoding Params exposes and fingerprints consume.
func (f Family) canonical(v Values) string {
	parts := make([]string, len(f.Params))
	for i, p := range f.Params {
		parts[i] = p.Name + "=" + formatValue(p.Kind, v[p.Name])
	}
	return strings.Join(parts, ",")
}

// instance is the Model wrapper New returns.
type instance struct {
	name   string
	params string
	gen    GenerateFunc
}

func (m *instance) Name() string   { return m.name }
func (m *instance) Params() string { return m.params }

// Generate runs the family's closure on s. A nil s gets a fresh
// Scratch, and the graph comes back as a copied header, so it pins
// none of that scratch's working buffers.
func (m *instance) Generate(r *rng.RNG, s *Scratch) (*graph.Graph, error) {
	if s != nil {
		return m.gen(r, s)
	}
	g, err := m.gen(r, new(Scratch))
	if err != nil {
		return nil, err
	}
	out := *g
	return &out, nil
}

// String renders the full model identity, e.g. "mori(n=4096,m=1,p=0.5)".
func (m *instance) String() string { return m.name + "(" + m.params + ")" }
