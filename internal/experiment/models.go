package experiment

import (
	"context"
	"fmt"
	"math"

	"scalefree/internal/core"
	"scalefree/internal/model"
	"scalefree/internal/rng"
	"scalefree/internal/search"
	"scalefree/internal/stats"
)

// E12 and E13 answer the paper's closing remark through the model
// registry: the full weak/strong search battery of E1/E2, run on two
// workloads the paper never measured — the Bianconi–Barabási fitness
// model and geometric preferential attachment. Both plans are built
// entirely against internal/model: the graphs come from registry
// instances via core.ModelGen, the trial keys embed the instances'
// canonical parameter encodings (so plan fingerprints pin the model
// parameters), and adding the next workload is one more
// planRegistryBattery call with a family name.

// PlanE12 runs the battery on the fitness model: fitness breaks the
// strict age/degree correlation (a young, fit vertex can overtake old
// hubs), probing whether the Ω(√n) non-searchability survives when age
// no longer determines degree.
func PlanE12(cfg Config) (*Plan, error) {
	return planRegistryBattery(cfg, "E12", "fitness", "m=1,eta0=0.1", 1200)
}

// PlanE13 runs the battery on geometric preferential attachment:
// spatially damped degrees make hubs local, probing non-searchability
// when the graph carries a hidden geometry no local algorithm sees.
func PlanE13(cfg Config) (*Plan, error) {
	return planRegistryBattery(cfg, "E13", "geopa", "m=1,r=0.25", 1300)
}

// planRegistryBattery assembles the weak/strong battery for one
// registered model family: per-size structure cells (degree statistics
// and power-law tail fit), a weak-model scaling cell per weak
// algorithm, and a strong-model scaling cell per strong algorithm. The
// target is the youngest vertex n, the paper's hard target — both
// families number vertices by arrival. tag is the family's non-size
// parameter string ("m=1,eta0=0.1"); it lands in every trial key, so
// the plan fingerprint pins the model parameters the way it pins seed
// and scale. base spaces the experiment's seed streams away from
// E1–E11's.
func planRegistryBattery(cfg Config, id, family, tag string, base uint64) (*Plan, error) {
	sizes := cfg.sizes(512, 5)
	reps := cfg.scaleInt(24, 6)
	b := newPlanBuilder()

	// Instantiate the registry models once at plan time so parameter
	// errors surface before any trial runs.
	models := make([]model.Model, len(sizes))
	for i, n := range sizes {
		m, err := model.New(family, fmt.Sprintf("n=%d,%s", n, tag))
		if err != nil {
			return nil, fmt.Errorf("%s: instantiating %s at n=%d: %w", id, family, n, err)
		}
		models[i] = m
	}
	genFor := func(n int) core.GraphGen {
		for i, sz := range sizes {
			if sz == n {
				return core.ModelGen(models[i])
			}
		}
		// Unreachable: addScalingCell only asks for the plan's sizes.
		panic(fmt.Sprintf("%s: no model instantiated for n=%d", id, n))
	}

	// Structure cells: one generation per size, reporting the degree
	// statistics that situate the battery (is the workload scale-free,
	// how large are its hubs).
	structIdx := make([]int, len(sizes))
	for i := range sizes {
		m := models[i]
		n := sizes[i]
		structIdx[i] = b.addScratch(
			fmt.Sprintf("%s/struct/%s", id, m.Params()),
			cfg.seed(base+90+uint64(i)),
			func(_ context.Context, r *rng.RNG, s *core.Scratch) (any, error) {
				g, err := core.ModelGen(m)(r, s)
				if err != nil {
					return nil, err
				}
				res := ModelStructResult{N: n, MaxDeg: g.MaxDegree(), MaxIn: g.MaxInDegree()}
				degs := s.DegreesOf(g)
				// Small graphs (smoke scales) can lack a fittable tail;
				// the zero fit renders as "-" rather than failing the
				// sweep.
				if fit, err := stats.FitPowerLawAuto(degs, 50); err == nil {
					res.Alpha, res.StdErr, res.Xmin = fit.Alpha, fit.StdErr, fit.Xmin
				}
				return res, nil
			})
	}

	// Battery cells: every weak and every strong algorithm over the
	// same size sweep, exactly the E1/E2 measurement shape.
	weakCells := addBattery(b, cfg, base+1, id+"/weak/"+tag, search.WeakAlgorithms(), sizes,
		genFor, nil, core.SearchSpec{Reps: reps})
	strongCells := addBattery(b, cfg, base+1+uint64(len(weakCells)), id+"/strong/"+tag, search.StrongAlgorithms(), sizes,
		genFor, nil, core.SearchSpec{Reps: reps})

	title := map[string]string{
		"fitness": "Bianconi–Barabási fitness model",
		"geopa":   "geometric preferential attachment",
	}[family]

	return b.build(func(results []any) ([]Table, error) {
		structure := &Table{
			Title:   fmt.Sprintf("%sa  %s — structure (%s)", id, title, models[len(models)-1].Params()),
			Columns: []string{"n", "max-degree", "max-indegree", "tail α", "±se", "xmin"},
			Notes: []string{
				"generated through the model registry: model.New(" + family + ", …) → core.ModelGen",
			},
		}
		for i, n := range sizes {
			sr, ok := results[structIdx[i]].(ModelStructResult)
			if !ok {
				return nil, fmt.Errorf("%s struct n=%d: result type %T", id, n, results[structIdx[i]])
			}
			alpha, se, xmin := "-", "-", "-"
			if sr.Alpha > 0 {
				alpha, se, xmin = formatFloat(sr.Alpha), formatFloat(sr.StdErr), fmt.Sprint(sr.Xmin)
			}
			structure.AddRow(sr.N, sr.MaxDeg, sr.MaxIn, alpha, se, xmin)
		}

		battery := func(kind string, cells []*scalingCell) (*Table, error) {
			table := &Table{
				Title: fmt.Sprintf("%s%s  %s — expected requests to find vertex n (%s model)", id,
					map[string]string{"weak": "b", "strong": "c"}[kind], title, kind),
				Columns: []string{"algorithm", "n(max)", "mean@max", "√n(max)",
					"fit-exponent", "±se", "found-rate"},
				Notes: []string{
					"conjecture (paper's closing remark): the Ω(√n) technique extends to other growing models",
					fmt.Sprintf("sizes %v, %d reps per point; walks censored at %d·n requests",
						sizes, reps, walkBudgetFactor),
				},
			}
			for _, c := range cells {
				res, last, err := c.collect(results)
				if err != nil {
					return nil, err
				}
				table.AddRow(res.Algorithm, last.N,
					last.Measurement.Requests.Mean, math.Sqrt(float64(last.N)),
					res.Fit.Exponent, res.Fit.ExponentSE,
					last.Measurement.FoundRate)
			}
			return table, nil
		}
		weak, err := battery("weak", weakCells)
		if err != nil {
			return nil, err
		}
		strong, err := battery("strong", strongCells)
		if err != nil {
			return nil, err
		}
		return []Table{*structure, *weak, *strong}, nil
	}), nil
}
