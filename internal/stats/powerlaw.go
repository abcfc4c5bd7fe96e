package stats

import (
	"fmt"
	"math"
	"slices"
)

// PowerLawFit is the result of fitting P(X = d) ∝ d^(-alpha) to the
// tail {x : x >= Xmin} of an integer sample.
type PowerLawFit struct {
	Alpha  float64 // estimated exponent
	StdErr float64 // asymptotic standard error of Alpha
	Xmin   int     // tail cutoff used
	NTail  int     // observations in the tail
	KS     float64 // KS distance between tail and fitted model
}

// FitPowerLaw estimates the exponent of a discrete power law on the
// tail x >= xmin by the Clauset–Shalizi–Newman continuous approximation
// to the discrete MLE:
//
//	alpha = 1 + n / Σ ln(x_i / (xmin - 1/2))
//
// which is accurate for xmin ≳ 2 and is the standard estimator for
// degree sequences. It returns an error when fewer than two tail
// observations are available.
func FitPowerLaw(xs []int, xmin int) (PowerLawFit, error) {
	if xmin < 1 {
		return PowerLawFit{}, fmt.Errorf("stats: power-law xmin %d < 1", xmin)
	}
	tail := make([]int, 0, len(xs))
	for _, x := range xs {
		if x >= xmin {
			tail = append(tail, x)
		}
	}
	fit, err := fitTail(tail, xmin)
	if err != nil {
		return fit, err
	}
	slices.Sort(tail)
	fit.KS = powerLawKS(tail, fit.Alpha, xmin)
	return fit, nil
}

// fitTail is FitPowerLaw's estimate without the KS distance, over a
// tail that holds exactly the observations >= xmin. The sum is taken in
// the tail's order, which callers keep equal to the input order so that
// every fit of the same tail is the same float.
func fitTail(tail []int, xmin int) (PowerLawFit, error) {
	sumLog := 0.0
	aboveMin := false
	shift := float64(xmin) - 0.5
	for _, x := range tail {
		sumLog += math.Log(float64(x) / shift)
		if x > xmin {
			aboveMin = true
		}
	}
	n := len(tail)
	if n < 2 {
		return PowerLawFit{}, fmt.Errorf("stats: only %d observations >= xmin %d; need at least 2", n, xmin)
	}
	if !aboveMin {
		return PowerLawFit{}, fmt.Errorf("stats: degenerate tail (all observations equal xmin %d)", xmin)
	}
	alpha := 1 + float64(n)/sumLog
	return PowerLawFit{
		Alpha:  alpha,
		StdErr: (alpha - 1) / math.Sqrt(float64(n)),
		Xmin:   xmin,
		NTail:  n,
	}, nil
}

// FitPowerLawAuto selects xmin by scanning candidate cutoffs and
// keeping the fit with the smallest KS distance, following Clauset et
// al. The scan considers every distinct sample value as a cutoff while
// at least minTail observations remain in the tail (minTail <= 0
// defaults to 50); when no cutoff leaves that many, it returns
// FitPowerLaw at the smallest positive value.
//
// Each candidate's fit equals FitPowerLaw(xs, xmin) bit for bit: its
// log sum runs over the tail in input order, as FitPowerLaw's does. The
// scan sorts one copy of the positive samples, whose ascending distinct
// values are the candidates, and narrows one input-order tail buffer in
// place from candidate to candidate. It costs O(n log n) for the sort
// plus O(Σ tail) for the candidates, which for positive integer samples
// is at most Σ x (4n for an m = 2 graph's degrees), and two n-slot
// buffers.
func FitPowerLawAuto(xs []int, minTail int) (PowerLawFit, error) {
	if minTail <= 0 {
		minTail = 50
	}
	tail := make([]int, 0, len(xs))
	for _, x := range xs {
		if x >= 1 {
			tail = append(tail, x)
		}
	}
	if len(tail) == 0 {
		return PowerLawFit{}, fmt.Errorf("stats: no positive observations to fit")
	}
	sorted := slices.Clone(tail)
	slices.Sort(sorted)

	var fallback PowerLawFit
	var fallbackErr error
	best := PowerLawFit{KS: math.Inf(1)}
	found := false
	for lo := 0; lo < len(sorted); {
		xmin := sorted[lo]
		tail = slices.DeleteFunc(tail, func(x int) bool { return x < xmin })
		fit, err := fitTail(tail, xmin)
		if err == nil {
			fit.KS = powerLawKS(sorted[lo:], fit.Alpha, xmin)
		}
		if lo == 0 {
			// Fall back to the smallest value so the caller still gets
			// an estimate on short samples.
			fallback, fallbackErr = fit, err
		}
		if len(tail) < minTail {
			break // tails only shrink from here
		}
		if err == nil && fit.KS < best.KS {
			best = fit
			found = true
		}
		for lo < len(sorted) && sorted[lo] == xmin {
			lo++
		}
	}
	if !found {
		return fallback, fallbackErr
	}
	return best, nil
}

// powerLawKS computes the KS distance between the empirical CDF of the
// sorted tail sample and the fitted continuous power-law CDF with the
// given alpha and xmin. A run of equal values x spanning sorted[i:j]
// has one model value, and |model − k/n| is largest at an end of the
// run's steps k = i..j, so each distinct value costs one math.Pow and
// two comparisons.
func powerLawKS(sorted []int, alpha float64, xmin int) float64 {
	n := float64(len(sorted))
	shift := float64(xmin) - 0.5
	maxDist := 0.0
	for i := 0; i < len(sorted); {
		x := sorted[i]
		j := i + 1
		for j < len(sorted) && sorted[j] == x {
			j++
		}
		model := 1 - math.Pow(float64(x)/shift, 1-alpha)
		if d := math.Abs(model - float64(i)/n); d > maxDist {
			maxDist = d
		}
		if d := math.Abs(model - float64(j)/n); d > maxDist {
			maxDist = d
		}
		i = j
	}
	return maxDist
}

// CCDFLogLogSlope fits a straight line to (log x, log CCDF(x)) and
// returns the estimated tail exponent, which for a power law with
// density exponent alpha is alpha - 1. Points with x < xmin are
// ignored. It is the quick-look regression estimator reported next to
// the MLE in the experiment tables.
func CCDFLogLogSlope(points []CCDFPoint, xmin int) (exponent float64, r2 float64, err error) {
	var lx, ly []float64
	for _, p := range points {
		if p.X >= xmin && p.X > 0 && p.Frac > 0 {
			lx = append(lx, math.Log(float64(p.X)))
			ly = append(ly, math.Log(p.Frac))
		}
	}
	if len(lx) < 2 {
		return 0, 0, fmt.Errorf("stats: %d usable CCDF points; need at least 2", len(lx))
	}
	fit := FitLine(lx, ly)
	return -fit.Slope, fit.R2, nil
}
