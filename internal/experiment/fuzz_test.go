package experiment

import (
	"bytes"
	"math"
	"runtime/metrics"
	"testing"

	"scalefree/internal/core"
	"scalefree/internal/search"
	"scalefree/internal/sweep"
)

// FuzzDecodeResult feeds arbitrary bytes to sweep.DecodeResult with the
// result types this package registers (results.go), the payload of
// every cache entry, shard file and RESULT line an experiment reads
// back. The seeds are one encoded value of each registered type, each
// also cut short by one byte and to half its length; every input that
// once broke a property below is kept in testdata/fuzz/FuzzDecodeResult.
// For any bytes:
//   - no input panics;
//   - decoding allocates at most sixteen times the input's size (a
//     slice's claimed length is bounded by the bytes left, and a
//     float64 element takes eight bytes in memory);
//   - a decoded value re-encodes to exactly the input.
//
// The heap counter the allocation bound reads credits a size class's
// earlier allocations when a span is refilled, so a small decode can
// read as tens of KiB; the 1 MiB slack covers that.
func FuzzDecodeResult(f *testing.F) {
	for _, v := range []any{
		35.29,
		core.SearchOutcome{Requests: 4127, Found: true},
		core.NewMeasurement(core.SearchSpec{Algorithm: search.NewFlood()},
			[]core.SearchOutcome{{Requests: 12, Found: true}, {Requests: 40, Found: true}, {Requests: 1000}}),
		EquivProbResult{A: 4095, B: 4158, Exact: 0.6979, Est: 0.6931, SE: 0.0033, Floor: math.Exp(-0.5)},
		Lemma2Result{Checked: 120, Result: "ok"},
		WindowProbResult{A: 255, B: 270, Exact: 0.3912},
		PercolationCellResult{Hits: 14, Msgs: 3120, Reached: 1800},
		PowerLawFitResult{N: 32768, Alpha: 2.44, StdErr: 0.05, Xmin: 1, SlopePlus1: math.NaN(), MaxDeg: 32767},
		DistanceResult{MeanDist: 6.3, Diam: 14},
		ModelStructResult{N: 8192, MaxDeg: 410, MaxIn: 409, Alpha: 2.9, StdErr: 0.1, Xmin: 4},
	} {
		enc, err := sweep.EncodeResult(v)
		if err != nil {
			f.Fatalf("%T: %v", v, err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(enc[:len(enc)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocs)
		before := allocs[0].Value.Uint64()
		v, err := sweep.DecodeResult(data)
		metrics.Read(allocs)
		if grew := allocs[0].Value.Uint64() - before; grew > 16*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		enc, err := sweep.EncodeResult(v)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("%T re-encodes to different bytes:\n got %x\nwant %x", v, enc, data)
		}
	})
}
