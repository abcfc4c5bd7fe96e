package experiment

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"scalefree/internal/core"
	"scalefree/internal/rng"
)

// TestStructureTrialsReuseScratch holds the structure experiments'
// trials to their worker's scratch. Run a second time on the same
// core.Scratch, an E5 or E7 trial allocates only its RNG, its BFS
// sources and its boxed result: at most 4 objects and 256 B. An E6
// cell whose model has a scratch path allocates at most 256 KiB, which
// the tail fit and the histogram still spend. A trial that generated
// through a no-scratch form would allocate its whole graph again.
func TestStructureTrialsReuseScratch(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Seed: 2024, Scale: 0.25}
	for _, c := range []struct {
		id             string
		objects, bytes uint64 // bounds per second run; 0 objects: unbounded
	}{
		{"E5", 4, 256},
		{"E6", 0, 256 << 10},
		{"E7", 4, 256},
	} {
		e, ok := ByID(c.id)
		if !ok {
			t.Fatalf("%s not registered", c.id)
		}
		plan, err := e.Plan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := core.NewScratch()
		for _, tr := range plan.Trials {
			if strings.HasPrefix(tr.Key, "E6/config-model") {
				continue // the configuration model has no scratch path
			}
			run := func() {
				if _, err := plan.Run(ctx, tr, rng.New(tr.Seed), s); err != nil {
					t.Fatalf("%s: %v", tr.Key, err)
				}
			}
			run()
			objects, bytes := allocsOf(run)
			if (c.objects > 0 && objects > c.objects) || bytes > c.bytes {
				t.Errorf("%s: a second run on the same scratch allocated %d objects, %d B (bounds: %d objects, %d B)",
					tr.Key, objects, bytes, c.objects, c.bytes)
			}
		}
	}
}

// allocsOf runs f once on one P, as testing.AllocsPerRun does, and
// returns the heap objects and bytes it allocated.
func allocsOf(f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}
