package rng

import (
	"fmt"
	"math"
	"sort"
)

// PowerLaw is a sampler for a discrete bounded power law
// P(X = d) ∝ d^(-k) on the integer range [Min, Max].
//
// It precomputes the cumulative distribution once (O(Max-Min) space) and
// samples by binary search in O(log(Max-Min)) time, so the per-sample
// cost is independent of the tail mass. Construct with NewPowerLaw.
type PowerLaw struct {
	k    float64
	min  int
	max  int
	cdf  []float64 // cdf[i] = P(X <= min+i)
	mean float64
}

// NewPowerLaw builds a discrete bounded power-law sampler with exponent
// k > 1 on [min, max]. It returns an error when the range is empty or
// the exponent is not in the supported domain.
func NewPowerLaw(k float64, min, max int) (*PowerLaw, error) {
	if min < 1 {
		return nil, fmt.Errorf("rng: power law min %d < 1", min)
	}
	if max < min {
		return nil, fmt.Errorf("rng: power law range [%d, %d] empty", min, max)
	}
	if !(k > 1) {
		return nil, fmt.Errorf("rng: power law exponent %v must exceed 1", k)
	}
	n := max - min + 1
	cdf := make([]float64, n)
	total := 0.0
	mean := 0.0
	for i := 0; i < n; i++ {
		d := float64(min + i)
		w := math.Pow(d, -k)
		total += w
		mean += d * w
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[n-1] = 1 // guard against accumulated rounding
	return &PowerLaw{k: k, min: min, max: max, cdf: cdf, mean: mean / total}, nil
}

// Sample draws one value from the distribution.
func (p *PowerLaw) Sample(r *RNG) int {
	u := r.Float64()
	i := sort.SearchFloat64s(p.cdf, u)
	if i >= len(p.cdf) {
		i = len(p.cdf) - 1
	}
	// SearchFloat64s returns the first index with cdf[i] >= u, which is
	// exactly inversion sampling for a right-continuous CDF.
	return p.min + i
}

// Mean returns the exact mean of the bounded distribution.
func (p *PowerLaw) Mean() float64 { return p.mean }

// Exponent returns the tail exponent k.
func (p *PowerLaw) Exponent() float64 { return p.k }

// Bounds returns the inclusive support [min, max].
func (p *PowerLaw) Bounds() (min, max int) { return p.min, p.max }

// Discrete is a finite distribution over {0, ..., n-1} sampled by
// inversion on a precomputed CDF. Weights need not be normalized.
type Discrete struct {
	cdf []float64
}

// NewDiscrete builds a sampler from non-negative weights. At least one
// weight must be positive.
func NewDiscrete(weights []float64) (*Discrete, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("rng: discrete distribution needs at least one weight")
	}
	cdf := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("rng: discrete weight %d is %v; weights must be finite and non-negative", i, w)
		}
		total += w
		cdf[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("rng: discrete weights sum to %v; need a positive total", total)
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[len(cdf)-1] = 1
	return &Discrete{cdf: cdf}, nil
}

// Sample draws an index with probability proportional to its weight.
func (d *Discrete) Sample(r *RNG) int {
	u := r.Float64()
	i := sort.SearchFloat64s(d.cdf, u)
	if i >= len(d.cdf) {
		i = len(d.cdf) - 1
	}
	return i
}

// Len returns the support size.
func (d *Discrete) Len() int { return len(d.cdf) }

// Prob returns the probability of index i.
func (d *Discrete) Prob(i int) float64 {
	if i < 0 || i >= len(d.cdf) {
		return 0
	}
	if i == 0 {
		return d.cdf[0]
	}
	return d.cdf[i] - d.cdf[i-1]
}
