package obs

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionGolden pins the full text exposition of a registry
// holding every metric kind: stable name ordering, label-value
// ordering, escaping, and histogram bucket cumulativity are all
// byte-exact.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "last by name").Add(7)
	r.Gauge("b_gauge", "a gauge").Set(-3)
	h := r.Histogram("a_hist", `histogram with "quotes" and \slash`, []float64{0.1, 1, 10})
	h.Observe(0.05) // bucket le=0.1
	h.Observe(0.5)  // bucket le=1
	h.Observe(0.5)  // bucket le=1
	h.Observe(100)  // overflow, +Inf only
	v := r.CounterVec("d_vec_total", "labeled", "worker")
	v.With("w2").Add(2)
	v.With(`w"1\x`).Inc() // escaping in a label value; sorts first
	hv := r.HistogramVec("e_hv_seconds", "labeled hist", "exp", []float64{1})
	hv.With("E4").Observe(0.5)
	hv.With("E4").Observe(3)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_hist histogram with "quotes" and \\slash
# TYPE a_hist histogram
a_hist_bucket{le="0.1"} 1
a_hist_bucket{le="1"} 3
a_hist_bucket{le="10"} 3
a_hist_bucket{le="+Inf"} 4
a_hist_sum 101.05
a_hist_count 4
# HELP b_gauge a gauge
# TYPE b_gauge gauge
b_gauge -3
# HELP d_vec_total labeled
# TYPE d_vec_total counter
d_vec_total{worker="w\"1\\x"} 1
d_vec_total{worker="w2"} 2
# HELP e_hv_seconds labeled hist
# TYPE e_hv_seconds histogram
e_hv_seconds_bucket{exp="E4",le="1"} 1
e_hv_seconds_bucket{exp="E4",le="+Inf"} 2
e_hv_seconds_sum{exp="E4"} 3.5
e_hv_seconds_count{exp="E4"} 2
# HELP z_total last by name
# TYPE z_total counter
z_total 7
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Two scrapes of unchanged state are byte-identical.
	var sb2 strings.Builder
	if err := r.WriteText(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != sb.String() {
		t.Error("repeated scrape of unchanged state differs")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "one")
	c1.Inc()
	c2 := r.Counter("x_total", "two (ignored)")
	if c1 != c2 {
		t.Error("re-registering a counter returned a different instance")
	}
	if c2.Value() != 1 {
		t.Errorf("shared counter lost state: %d", c2.Value())
	}
	// Kind mismatch panics.
	defer func() {
		if recover() == nil {
			t.Error("registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "wrong kind")
}

func TestInvalidMetricName(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9starts_with_digit", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
}

// TestNilSafety: every method on a nil metric is a no-op, so unwired
// instrumentation points need no guards.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter value != 0")
	}
	var g *Gauge
	g.Set(1)
	g.Inc()
	g.Dec()
	g.Add(2)
	_ = g.Value()
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	_ = h.Count()
	var cv *CounterVec
	cv.With("x").Inc()
	var hv *HistogramVec
	hv.With("x").Observe(1)
	var l *EventLog
	l.Emit(Event{Event: "noop"})
	if l.Err() != nil || l.Close() != nil {
		t.Error("nil event log reported an error")
	}
}

// TestHistogramBucketEdges pins inclusive upper bounds: an observation
// exactly on a bound lands in that bound's bucket.
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram(desc{name: "h"}, []float64{1, 2})
	h.Observe(1) // le=1
	h.Observe(2) // le=2
	h.Observe(3) // +Inf
	for i, want := range []int64{1, 1, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

// TestMetricsRace hammers every metric kind from NumCPU goroutines
// while a scraper renders the exposition — the -race pass for the
// atomic hot paths and the scrape snapshotting.
func TestMetricsRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "")
	g := r.Gauge("race_gauge", "")
	h := r.Histogram("race_seconds", "", nil)
	v := r.CounterVec("race_vec_total", "", "worker")
	hv := r.HistogramVec("race_hv_seconds", "", "exp", []float64{0.5})

	const perG = 2000
	n := runtime.NumCPU()
	var writers sync.WaitGroup
	for i := 0; i < n; i++ {
		writers.Add(1)
		go func(id int) {
			defer writers.Done()
			worker := string(rune('a' + id%8))
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j) * 1e-4)
				v.With(worker).Inc()
				hv.With("E1").Observe(0.25)
			}
		}(i)
	}
	// Scrape concurrently until every writer has finished.
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()
	scraping := true
	for scraping {
		select {
		case <-done:
			scraping = false
		default:
		}
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
	}

	if got := c.Value(); got != int64(n*perG) {
		t.Errorf("counter = %d, want %d", got, n*perG)
	}
	if got := h.Count(); got != int64(n*perG) {
		t.Errorf("histogram count = %d, want %d", got, n*perG)
	}
}

// TestHistogramVecLabelCardinality: a vec keeps one isolated child per
// label value — repeated With returns the same instance, observations
// never bleed across children, and the exposition renders exactly one
// bucket series set per value, sorted by label value.
func TestHistogramVecLabelCardinality(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("card_seconds", "cardinality", "exp", []float64{1})
	const n = 64
	children := make(map[string]*Histogram, n)
	for i := 0; i < n; i++ {
		lv := fmt.Sprintf("E%02d", i)
		h := hv.With(lv)
		if h == nil {
			t.Fatalf("With(%q) returned nil", lv)
		}
		if prev, ok := children[lv]; ok && prev != h {
			t.Fatalf("With(%q) returned a second instance", lv)
		}
		children[lv] = h
		for j := 0; j <= i; j++ {
			h.Observe(0.5)
		}
	}
	// Stability: a second round of With hits the same children.
	for lv, h := range children {
		if hv.With(lv) != h {
			t.Errorf("With(%q) no longer returns the original child", lv)
		}
	}
	// Isolation: each child holds exactly its own observations.
	for i := 0; i < n; i++ {
		lv := fmt.Sprintf("E%02d", i)
		if got := children[lv].Count(); got != int64(i+1) {
			t.Errorf("child %q count = %d, want %d", lv, got, i+1)
		}
	}

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	var countLines []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "card_seconds_count{") {
			countLines = append(countLines, line)
		}
	}
	if len(countLines) != n {
		t.Fatalf("exposition has %d _count series, want %d", len(countLines), n)
	}
	if !sort.StringsAreSorted(countLines) {
		t.Error("_count series not sorted by label value")
	}
	if want := fmt.Sprintf(`card_seconds_count{exp="E%02d"} %d`, n-1, n); countLines[n-1] != want {
		t.Errorf("last series = %q, want %q", countLines[n-1], want)
	}
}

// TestInfoMetricExposition pins the info pattern: a constant gauge 1
// whose labels render in registration order with full escaping.
func TestInfoMetricExposition(t *testing.T) {
	r := NewRegistry()
	r.Info("thing_build_info", "identity", [][2]string{
		{"version", "(devel)"},
		{"revision", `abc"def\x`},
	})
	r.Info("thing_build_info", "second registration is ignored", [][2]string{{"version", "other"}})
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP thing_build_info identity
# TYPE thing_build_info gauge
thing_build_info{version="(devel)",revision="abc\"def\\x"} 1
`
	if got := sb.String(); got != want {
		t.Errorf("info exposition:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHotPathAllocs pins the zero-allocation guarantee for every
// hot-path operation.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "")
	g := r.Gauge("alloc_gauge", "")
	h := r.Histogram("alloc_seconds", "", nil)
	child := r.CounterVec("alloc_vec_total", "", "w").With("w1")
	cases := []struct {
		name string
		fn   func()
	}{
		{"counter.Inc", func() { c.Inc() }},
		{"gauge.Set", func() { g.Set(3) }},
		{"histogram.Observe", func() { h.Observe(0.017) }},
		{"vec child Inc", func() { child.Inc() }},
	}
	for _, tc := range cases {
		for i := 0; i < 1000; i++ {
			if allocs := testing.AllocsPerRun(1, tc.fn); allocs != 0 {
				t.Errorf("%s op %d allocates %v times, want 0", tc.name, i, allocs)
				break
			}
		}
	}
}
