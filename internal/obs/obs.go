// Package obs is the fleet observability layer: a zero-dependency
// metrics registry (counters, gauges, fixed-bucket histograms) with
// Prometheus text-format exposition, a structured JSONL sweep event
// log, and the HTTP ops plane (/metrics, /status, /healthz, pprof)
// the coordinator and worker processes serve under -status-addr.
//
// Design constraints, in order:
//
//  1. Determinism boundary. Metrics observe the computation; they never
//     feed it. Nothing in this package produces a value that flows into
//     trial results, trial scheduling, or RNG streams, so a sweep with
//     observability fully enabled renders tables byte-identical to one
//     without (pinned by golden tests in internal/experiment).
//  2. Hot-path cost. Counter.Add, Gauge.Set, and Histogram.Observe are
//     single atomic operations (Observe adds one CAS loop for the sum)
//     with zero steady-state allocations — AllocsPerRun-pinned — and no
//     locks. Registration takes a lock but happens once, at wire-up.
//  3. Nil safety. Every metric method is a no-op on a nil receiver, so
//     instrumented code paths need no "is observability on" branches:
//     unwired metrics simply do nothing.
//
// Registration is get-or-create: asking a registry for a name it
// already holds returns the existing metric (the first help string
// wins), and only a kind mismatch panics — so package-level metric
// variables, tests, and repeated wire-ups coexist on the process-global
// Default() registry.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefLatencyBuckets is the default histogram bucketing for trial and
// lease latencies, in seconds: roughly logarithmic from 100µs (cheap
// small-n trials) to two minutes (full-scale giant-graph trials).
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// desc is a metric's exposition identity.
type desc struct {
	name string
	help string
}

// metric is anything a registry can expose.
type metric interface {
	appendText(b []byte) []byte
}

// Registry holds named metrics and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry or Default.
type Registry struct {
	mu     sync.Mutex
	byName map[string]metric
}

// NewRegistry returns an empty registry. Most code should use
// Default(); fresh registries are for tests and embedded scopes.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]metric{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-global registry — the one package-level
// metrics register on and -status-addr serves at /metrics.
func Default() *Registry { return defaultRegistry }

// mustValidName panics on names outside the Prometheus grammar
// [a-zA-Z_:][a-zA-Z0-9_:]* — registration happens at init/wire-up, so
// a bad name is a programming error, not a runtime condition.
func mustValidName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}

// register is the get-or-create core: it returns the existing metric
// under name if one exists (panicking when its kind differs), or
// installs the one built by mk.
func (r *Registry) register(name string, want string, mk func(d desc) metric, help string) metric {
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if kindOf(m) != want {
			panic(fmt.Sprintf("obs: metric %q already registered as a %s, requested as a %s", name, kindOf(m), want))
		}
		return m
	}
	m := mk(desc{name: name, help: help})
	r.byName[name] = m
	return m
}

func kindOf(m metric) string {
	switch m.(type) {
	case *Counter:
		return "counter"
	case *Gauge:
		return "gauge"
	case *Histogram:
		return "histogram"
	case *CounterVec:
		return "counter vec"
	case *HistogramVec:
		return "histogram vec"
	case *infoMetric:
		return "info"
	default:
		return fmt.Sprintf("%T", m)
	}
}

// Counter registers (or returns the existing) monotonically increasing
// counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, "counter", func(d desc) metric { return &Counter{d: d} }, help).(*Counter)
}

// Gauge registers (or returns the existing) integer gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, "gauge", func(d desc) metric { return &Gauge{d: d} }, help).(*Gauge)
}

// Histogram registers (or returns the existing) fixed-bucket histogram
// under name. buckets are the inclusive upper bounds in increasing
// order, excluding +Inf (an overflow bucket is implicit); nil uses
// DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, "histogram", func(d desc) metric { return newHistogram(d, buckets) }, help).(*Histogram)
}

// CounterVec registers (or returns the existing) family of counters
// distinguished by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return r.register(name, "counter vec", func(d desc) metric {
		return &CounterVec{d: d, label: label, children: map[string]*Counter{}}
	}, help).(*CounterVec)
}

// HistogramVec registers (or returns the existing) family of
// histograms distinguished by one label. Bucket semantics follow
// Histogram.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	return r.register(name, "histogram vec", func(d desc) metric {
		return &HistogramVec{d: d, label: label, buckets: buckets, children: map[string]*Histogram{}}
	}, help).(*HistogramVec)
}

// Info registers (or returns) a constant info-pattern metric: a gauge
// fixed at 1 whose ordered label pairs carry identity (build revision,
// version) that belongs in labels, not in a value. Re-registering a
// name keeps the first labels.
func (r *Registry) Info(name, help string, labels [][2]string) {
	r.register(name, "info", func(d desc) metric { return &infoMetric{d: d, labels: labels} }, help)
}

// infoMetric is the constant gauge behind Registry.Info.
type infoMetric struct {
	d      desc
	labels [][2]string
}

// Counter is a monotonically increasing count. All methods are
// atomic, allocation-free, and nil-safe.
type Counter struct {
	d desc
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n; negative n panics (counters only go up).
//
//sf:hotpath
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	if n < 0 {
		panic("obs: counter decrement")
	}
	c.v.Add(n)
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer value that can go up and down. All methods are
// atomic, allocation-free, and nil-safe.
type Gauge struct {
	d desc
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n (negative allowed).
//
//sf:hotpath
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Observe is
// lock-free: one atomic add for the bucket, one for the count, and a
// CAS loop for the float64 sum; zero allocations.
type Histogram struct {
	d      desc
	upper  []float64      // sorted upper bounds, +Inf excluded
	counts []atomic.Int64 // len(upper)+1; last is the overflow (+Inf) bucket
	count  atomic.Int64
	sum    atomicFloat
}

func newHistogram(d desc, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	upper := make([]float64, 0, len(buckets))
	for _, b := range buckets {
		if math.IsInf(b, +1) {
			continue // the overflow bucket is implicit
		}
		if len(upper) > 0 && b <= upper[len(upper)-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing", d.name))
		}
		upper = append(upper, b)
	}
	return &Histogram{d: d, upper: upper, counts: make([]atomic.Int64, len(upper)+1)}
}

// Observe records one value. Nil-safe.
//
//sf:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (~20) and the scan is
	// branch-predictable; a binary search saves nothing measurable and
	// costs clarity.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveDuration records d in seconds — the Prometheus base unit for
// latency series.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count reads the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// atomicFloat is a float64 updated by CAS on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// CounterVec is a family of counters keyed by one label value. With
// takes the vec's mutex for the child lookup — callers on hot paths
// should resolve their child once and hold on to it.
type CounterVec struct {
	d        desc
	label    string
	mu       sync.Mutex
	children map[string]*Counter
}

// With returns the child counter for the label value, creating it on
// first use. Nil-safe (returns a nil *Counter, whose methods no-op).
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &Counter{}
		v.children[value] = c
	}
	return c
}

// HistogramVec is a family of histograms keyed by one label value.
type HistogramVec struct {
	d        desc
	label    string
	buckets  []float64
	mu       sync.Mutex
	children map[string]*Histogram
}

// With returns the child histogram for the label value, creating it on
// first use. Nil-safe.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[value]
	if !ok {
		h = newHistogram(desc{}, v.buckets)
		v.children[value] = h
	}
	return h
}

// sortedNames snapshots the registry's metric names in exposition
// order.
func (r *Registry) sortedNames() ([]string, []metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	ms := make([]metric, len(names))
	for i, n := range names {
		ms[i] = r.byName[n]
	}
	return names, ms
}
