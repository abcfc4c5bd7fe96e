package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"scalefree/internal/model"
	"scalefree/internal/rng"
)

// samplePowerLaw draws n values from a discrete bounded power law using
// the rng package's exact sampler.
func samplePowerLaw(t testing.TB, k float64, min, max, n int, seed uint64) []int {
	t.Helper()
	pl, err := rng.NewPowerLaw(k, min, max)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	xs := make([]int, n)
	for i := range xs {
		xs[i] = pl.Sample(r)
	}
	return xs
}

func TestFitPowerLawRecoversExponent(t *testing.T) {
	for _, k := range []float64{2.1, 2.5, 3.0} {
		xs := samplePowerLaw(t, k, 1, 100000, 60000, 42)
		fit, err := FitPowerLaw(xs, 5)
		if err != nil {
			t.Fatalf("k=%v: %v", k, err)
		}
		if math.Abs(fit.Alpha-k) > 0.1 {
			t.Errorf("k=%v: estimated alpha %v (se %v)", k, fit.Alpha, fit.StdErr)
		}
		if fit.StdErr <= 0 || fit.StdErr > 0.1 {
			t.Errorf("k=%v: implausible stderr %v", k, fit.StdErr)
		}
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, err := FitPowerLaw([]int{1, 2, 3}, 0); err == nil {
		t.Error("xmin 0 accepted")
	}
	if _, err := FitPowerLaw([]int{1}, 1); err == nil {
		t.Error("single observation accepted")
	}
	if _, err := FitPowerLaw([]int{5, 5, 5}, 5); err == nil {
		t.Error("degenerate all-equal tail accepted")
	}
	if _, err := FitPowerLaw([]int{1, 2}, 10); err == nil {
		t.Error("empty tail accepted")
	}
}

func TestFitPowerLawAuto(t *testing.T) {
	// Contaminate the head: values below 5 are uniform noise, the tail
	// is a clean power law. Auto xmin should land at a cutoff that
	// recovers the tail exponent.
	k := 2.5
	xs := samplePowerLaw(t, k, 5, 100000, 40000, 7)
	r := rng.New(8)
	for i := 0; i < 20000; i++ {
		xs = append(xs, r.IntRange(1, 4))
	}
	fit, err := FitPowerLawAuto(xs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Xmin < 4 {
		t.Errorf("auto xmin = %d; expected the noisy head to be excluded", fit.Xmin)
	}
	if math.Abs(fit.Alpha-k) > 0.15 {
		t.Errorf("alpha = %v, want ~%v", fit.Alpha, k)
	}
}

func TestFitPowerLawAutoNoData(t *testing.T) {
	if _, err := FitPowerLawAuto(nil, 10); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := FitPowerLawAuto([]int{0, -3}, 10); err == nil {
		t.Error("non-positive sample accepted")
	}
}

func TestFitPowerLawAutoShortSampleFallsBack(t *testing.T) {
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	fit, err := FitPowerLawAuto(xs, 1000)
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if fit.Xmin != 1 {
		t.Errorf("fallback xmin = %d, want 1", fit.Xmin)
	}
}

func TestCCDFLogLogSlope(t *testing.T) {
	// For a power law with density exponent alpha the CCDF decays with
	// exponent alpha-1.
	k := 2.5
	xs := samplePowerLaw(t, k, 1, 100000, 80000, 9)
	ccdf := HistogramOf(xs).CCDF()
	exp, r2, err := CCDFLogLogSlope(ccdf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exp-(k-1)) > 0.25 {
		t.Errorf("CCDF slope exponent = %v, want ~%v", exp, k-1)
	}
	if r2 < 0.95 {
		t.Errorf("log-log fit R² = %v; power-law CCDF should be near-linear", r2)
	}
}

func TestCCDFLogLogSlopeErrors(t *testing.T) {
	if _, _, err := CCDFLogLogSlope(nil, 1); err == nil {
		t.Error("empty CCDF accepted")
	}
	if _, _, err := CCDFLogLogSlope([]CCDFPoint{{X: 1, Frac: 1}}, 1); err == nil {
		t.Error("single point accepted")
	}
}

// fitPowerLawAutoReference is FitPowerLawAuto as first written: it
// refits the whole sample at every distinct value, O(D·n) for D
// distinct values, through fitPowerLawReference. The rewrite must
// return the same fit, bit for bit, on every input.
func fitPowerLawAutoReference(xs []int, minTail int) (PowerLawFit, error) {
	if minTail <= 0 {
		minTail = 50
	}
	distinct := map[int]bool{}
	for _, x := range xs {
		if x >= 1 {
			distinct[x] = true
		}
	}
	if len(distinct) == 0 {
		return PowerLawFit{}, fmt.Errorf("stats: no positive observations to fit")
	}
	candidates := make([]int, 0, len(distinct))
	for x := range distinct {
		candidates = append(candidates, x)
	}
	sort.Ints(candidates)

	best := PowerLawFit{KS: math.Inf(1)}
	found := false
	for _, xmin := range candidates {
		fit, err := fitPowerLawReference(xs, xmin)
		if err != nil || fit.NTail < minTail {
			continue
		}
		if fit.KS < best.KS {
			best = fit
			found = true
		}
	}
	if !found {
		return fitPowerLawReference(xs, candidates[0])
	}
	return best, nil
}

// fitPowerLawReference is FitPowerLaw as first written, with a
// math.Pow per tail observation in its KS distance.
func fitPowerLawReference(xs []int, xmin int) (PowerLawFit, error) {
	if xmin < 1 {
		return PowerLawFit{}, fmt.Errorf("stats: power-law xmin %d < 1", xmin)
	}
	sumLog := 0.0
	n := 0
	aboveMin := false
	tail := make([]int, 0, len(xs))
	shift := float64(xmin) - 0.5
	for _, x := range xs {
		if x >= xmin {
			sumLog += math.Log(float64(x) / shift)
			n++
			tail = append(tail, x)
			if x > xmin {
				aboveMin = true
			}
		}
	}
	if n < 2 {
		return PowerLawFit{}, fmt.Errorf("stats: only %d observations >= xmin %d; need at least 2", n, xmin)
	}
	if !aboveMin {
		return PowerLawFit{}, fmt.Errorf("stats: degenerate tail (all observations equal xmin %d)", xmin)
	}
	alpha := 1 + float64(n)/sumLog
	fit := PowerLawFit{
		Alpha:  alpha,
		StdErr: (alpha - 1) / math.Sqrt(float64(n)),
		Xmin:   xmin,
		NTail:  n,
	}
	sorted := append([]int(nil), tail...)
	sort.Ints(sorted)
	nf := float64(len(sorted))
	for i, x := range sorted {
		model := 1 - math.Pow(float64(x)/shift, 1-alpha)
		if d := math.Abs(model - float64(i)/nf); d > fit.KS {
			fit.KS = d
		}
		if d := math.Abs(model - float64(i+1)/nf); d > fit.KS {
			fit.KS = d
		}
	}
	return fit, nil
}

// sameFit reports whether two fits and their errors agree exactly:
// every float field bit for bit, and the same error text.
func sameFit(got PowerLawFit, gotErr error, want PowerLawFit, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		return fmt.Errorf("error %v, want %v", gotErr, wantErr)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Alpha, want.Alpha) || !same(got.StdErr, want.StdErr) || !same(got.KS, want.KS) ||
		got.Xmin != want.Xmin || got.NTail != want.NTail {
		return fmt.Errorf("fit %+v, want %+v", got, want)
	}
	return nil
}

// TestFitPowerLawAutoMatchesReference holds the sorted single-pass
// FitPowerLawAuto, and FitPowerLaw's shared KS helper, to the O(D·n)
// reference on the sampled power laws above, on the degrees and
// in-degrees of every registered model at its default n = 2^12, and on
// the fallback, no-positive and degenerate samples.
func TestFitPowerLawAutoMatchesReference(t *testing.T) {
	samples := map[string][]int{
		"fallback":    {1, 2, 3, 4, 5, 6, 7, 8},
		"empty":       nil,
		"nonpositive": {0, -3},
		"degenerate":  {5, 5, 5},
		"single":      {7},
		"ties":        {1, 1, 2, 2, 2, 3, 9, 9, 40, 40, 40, 40},
	}
	for _, k := range []float64{2.1, 2.5, 3.0} {
		samples[fmt.Sprintf("powerlaw k=%v", k)] = samplePowerLaw(t, k, 1, 100000, 60000, 42)
	}
	noisy := samplePowerLaw(t, 2.5, 5, 100000, 40000, 7)
	r := rng.New(8)
	for i := 0; i < 20000; i++ {
		noisy = append(noisy, r.IntRange(1, 4))
	}
	samples["noisy head"] = noisy
	for _, name := range model.Names() {
		m, err := model.New(name, "")
		if err != nil {
			t.Fatal(err)
		}
		g, err := m.Generate(rng.New(2024), nil)
		if err != nil {
			t.Fatal(err)
		}
		samples[name+" degrees"] = g.AppendDegrees(nil)
		samples[name+" in-degrees"] = g.AppendInDegrees(nil)
	}
	for name, xs := range samples {
		for _, minTail := range []int{-1, 0, 1, 2, 50, 100, 1000} {
			got, gotErr := FitPowerLawAuto(xs, minTail)
			want, wantErr := fitPowerLawAutoReference(xs, minTail)
			if err := sameFit(got, gotErr, want, wantErr); err != nil {
				t.Errorf("%s, minTail %d: %v", name, minTail, err)
			}
		}
		for _, xmin := range []int{0, 1, 2, 5, 30} {
			got, gotErr := FitPowerLaw(xs, xmin)
			want, wantErr := fitPowerLawReference(xs, xmin)
			if err := sameFit(got, gotErr, want, wantErr); err != nil {
				t.Errorf("%s, FitPowerLaw xmin %d: %v", name, xmin, err)
			}
		}
	}
}

// fuzzSample decodes fuzz bytes into a sample. A byte below 0xFF is the
// value byte − 16, so ties, zeros and negatives are common; 0xFF takes
// the next eight bytes as a full-range int64.
func fuzzSample(data []byte) []int {
	var xs []int
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		if b == 0xFF && len(data) >= 8 {
			xs = append(xs, int(int64(binary.LittleEndian.Uint64(data))))
			data = data[8:]
			continue
		}
		xs = append(xs, int(b)-16)
	}
	return xs
}

// FuzzFitPowerLawAuto holds FitPowerLawAuto to the reference on any
// sample and any minTail in [−1, 200]. Seeds live in
// testdata/fuzz/FuzzFitPowerLawAuto.
func FuzzFitPowerLawAuto(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, minTail int) {
		xs := fuzzSample(data)
		minTail = (minTail%202+202)%202 - 1
		got, gotErr := FitPowerLawAuto(xs, minTail)
		want, wantErr := fitPowerLawAutoReference(xs, minTail)
		if err := sameFit(got, gotErr, want, wantErr); err != nil {
			t.Fatalf("minTail %d, sample %v: %v", minTail, xs, err)
		}
	})
}
