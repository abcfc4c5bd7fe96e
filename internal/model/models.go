package model

import (
	"scalefree/internal/ba"
	"scalefree/internal/configmodel"
	"scalefree/internal/cooperfrieze"
	"scalefree/internal/fitness"
	"scalefree/internal/geopa"
	"scalefree/internal/graph"
	"scalefree/internal/kleinberg"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
)

// The seven registered families: the five historical model packages
// plus the two E12/E13 workloads. Every Build validates eagerly (CLI
// and plan construction see range errors immediately) and routes
// generation through the family's sub-scratch when it has one.

func init() {
	Register(Family{
		Name: "mori",
		Doc:  "Móri mixed uniform/preferential attachment (merged m-out variant; the paper's Theorem 1 substrate)",
		Params: []Param{
			{Name: "n", Kind: Int, Default: 4096, Doc: "vertices (merged graph size)"},
			{Name: "m", Kind: Int, Default: 1, Doc: "merge factor (1 = plain tree)"},
			{Name: "p", Kind: Float, Default: 0.5, Doc: "preferential mixing in [0, 1]"},
		},
		Build: func(v Values) (GenerateFunc, error) {
			cfg := mori.Config{N: v.Int("n"), M: v.Int("m"), P: v["p"]}
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return func(r *rng.RNG, s *Scratch) (*graph.Graph, error) {
				return cfg.GenerateScratch(r, &s.Mori)
			}, nil
		},
	})

	Register(Family{
		Name: "cf",
		Doc:  "Cooper–Frieze general model of evolving web graphs (the paper's Theorem 2 substrate)",
		Params: []Param{
			{Name: "n", Kind: Int, Default: 4096, Doc: "vertices"},
			{Name: "alpha", Kind: Float, Default: 0.8, Doc: "P(procedure New) in (0, 1]"},
			{Name: "beta", Kind: Float, Default: 0.5, Doc: "P(New-edge terminal is preferential)"},
			{Name: "gamma", Kind: Float, Default: 0.5, Doc: "P(Old-edge terminal is preferential)"},
			{Name: "delta", Kind: Float, Default: 0.5, Doc: "P(Old source is chosen uniformly)"},
			{Name: "loops", Kind: Bool, Default: 1, Doc: "allow self-loops in Old steps"},
		},
		Build: func(v Values) (GenerateFunc, error) {
			cfg := cooperfrieze.Config{
				N: v.Int("n"), Alpha: v["alpha"], Beta: v["beta"],
				Gamma: v["gamma"], Delta: v["delta"], AllowLoops: v.Bool("loops"),
			}
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return func(r *rng.RNG, s *Scratch) (*graph.Graph, error) {
				res, err := cfg.GenerateScratch(r, &s.CF)
				if err != nil {
					return nil, err
				}
				return res.Graph, nil
			}, nil
		},
	})

	Register(Family{
		Name: "ba",
		Doc:  "Barabási–Albert total-degree preferential attachment (related-work baseline)",
		Params: []Param{
			{Name: "n", Kind: Int, Default: 4096, Doc: "vertices"},
			{Name: "m", Kind: Int, Default: 1, Doc: "edges per new vertex"},
		},
		Build: func(v Values) (GenerateFunc, error) {
			cfg := ba.Config{N: v.Int("n"), M: v.Int("m")}
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return func(r *rng.RNG, s *Scratch) (*graph.Graph, error) {
				return cfg.GenerateScratch(r, &s.BA)
			}, nil
		},
	})

	Register(Family{
		Name: "config",
		Doc:  "Molloy–Reed power-law configuration model (Adamic et al. substrate)",
		Params: []Param{
			{Name: "n", Kind: Int, Default: 4096, Doc: "vertices (before giant extraction)"},
			{Name: "k", Kind: Float, Default: 2.3, Doc: "power-law exponent, > 1"},
			{Name: "mindeg", Kind: Int, Default: 1, Doc: "minimum degree"},
			{Name: "maxdeg", Kind: Int, Default: 0, Doc: "maximum degree (0 = natural cutoff n^(1/(k-1)))"},
			{Name: "simple", Kind: Bool, Default: 0, Doc: "erase self-loops and duplicate edges"},
			{Name: "giant", Kind: Bool, Default: 0, Doc: "extract the largest component, relabelled 1..size"},
		},
		Build: func(v Values) (GenerateFunc, error) {
			cfg := configmodel.Config{
				N: v.Int("n"), Exponent: v["k"], MinDeg: v.Int("mindeg"),
				MaxDeg: v.Int("maxdeg"), Simple: v.Bool("simple"),
			}
			if _, err := cfg.Validate(); err != nil {
				return nil, err
			}
			giant := v.Bool("giant")
			return func(r *rng.RNG, _ *Scratch) (*graph.Graph, error) {
				if giant {
					g, _, err := cfg.GenerateGiant(r)
					return g, err
				}
				return cfg.Generate(r)
			}, nil
		},
	})

	Register(Family{
		Name: "kleinberg",
		Doc:  "Kleinberg navigable small-world grid (navigability contrast)",
		Params: []Param{
			{Name: "l", Kind: Int, Default: 64, Doc: "grid side (l² vertices)"},
			{Name: "r", Kind: Float, Default: 2, Doc: "long-range exponent, >= 0"},
			{Name: "q", Kind: Int, Default: 1, Doc: "long-range links per vertex"},
		},
		Build: func(v Values) (GenerateFunc, error) {
			cfg := kleinberg.Config{L: v.Int("l"), R: v["r"], Q: v.Int("q")}
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return func(r *rng.RNG, _ *Scratch) (*graph.Graph, error) {
				grid, err := cfg.Generate(r)
				if err != nil {
					return nil, err
				}
				return grid.Graph, nil
			}, nil
		},
	})

	Register(Family{
		Name: "fitness",
		Doc:  "Bianconi–Barabási vertex-fitness preferential attachment (experiment E12)",
		Params: []Param{
			{Name: "n", Kind: Int, Default: 4096, Doc: "vertices"},
			{Name: "m", Kind: Int, Default: 1, Doc: "edges per new vertex"},
			{Name: "eta0", Kind: Float, Default: 0.1, Doc: "minimum fitness in [0.01, 1]; fitness ~ U[eta0, 1]"},
		},
		Build: func(v Values) (GenerateFunc, error) {
			cfg := fitness.Config{N: v.Int("n"), M: v.Int("m"), Eta0: v["eta0"]}
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return func(r *rng.RNG, s *Scratch) (*graph.Graph, error) {
				return cfg.GenerateScratch(r, &s.Fitness)
			}, nil
		},
	})

	Register(Family{
		Name: "geopa",
		Doc:  "geometric (spatial) preferential attachment with an exponential proximity kernel (experiment E13)",
		Params: []Param{
			{Name: "n", Kind: Int, Default: 4096, Doc: "vertices"},
			{Name: "m", Kind: Int, Default: 1, Doc: "edges per new vertex"},
			{Name: "r", Kind: Float, Default: 0.25, Doc: "proximity kernel range, >= 0.05"},
		},
		Build: func(v Values) (GenerateFunc, error) {
			cfg := geopa.Config{N: v.Int("n"), M: v.Int("m"), R: v["r"]}
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return func(r *rng.RNG, s *Scratch) (*graph.Graph, error) {
				return cfg.GenerateScratch(r, &s.Geo)
			}, nil
		},
	})
}
