package trace

import (
	"bytes"
	"runtime/metrics"
	"slices"
	"testing"
)

// FuzzDecodeBatch feeds arbitrary bytes to DecodeBatch, which decodes
// the span batches remote workers ship on their COMPLETE lines, and
// re-encodes what it accepts, in full and under a fuzzed byte budget.
// Seed corpora live in testdata/fuzz/FuzzDecodeBatch: a batch with
// nested spans, an instant and a flow pair, its truncations, an
// over-budget cut, and the inputs the decoder must refuse (a lone
// version byte, a phase the recorder never writes). For any bytes:
//   - no input panics;
//   - decoding allocates at most four times the input's size;
//   - a decoded batch re-encodes to exactly its bytes;
//   - under any budget the encoding fits, decodes to exactly the
//     records EncodeBatch kept, in order, and keeps or drops each span
//     whole, so a batch that nests still nests when cut.
//
// The heap counter the allocation bound reads credits a size class's
// earlier allocations when a span is refilled, so a small decode can
// read as tens of KiB; the 1 MiB slack covers that.
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, budget uint16) {
		allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocs)
		before := allocs[0].Value.Uint64()
		recs, err := DecodeBatch(data)
		metrics.Read(allocs)
		if grew := allocs[0].Value.Uint64() - before; grew > 4*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}

		full, dropped := EncodeBatch(recs, len(data))
		if dropped != 0 || !bytes.Equal(full, data) {
			t.Fatalf("batch re-encodes to different bytes (%d dropped):\n got %x\nwant %x", dropped, full, data)
		}

		max := int(budget)
		keep, _ := fit(recs, max)
		var want []Record
		for i, rec := range recs {
			if keep != nil && keep[i] {
				want = append(want, rec)
			}
		}
		enc, dropped := EncodeBatch(recs, max)
		if len(enc) > max {
			t.Fatalf("a %d-byte budget encoded %d bytes", max, len(enc))
		}
		got, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("a cut batch does not decode: %v", err)
		}
		if !slices.Equal(got, want) || dropped != len(recs)-len(want) {
			t.Fatalf("a %d-byte budget decodes to %d records (%d dropped), want the %d kept", max, len(got), dropped, len(want))
		}
		open := map[int32][]int{}
		for i, rec := range recs {
			switch st := open[rec.TID]; rec.Ph {
			case 'B':
				open[rec.TID] = append(st, i)
			case 'E':
				if n := len(st); n > 0 {
					if b := st[n-1]; keep != nil && keep[b] != keep[i] {
						t.Fatalf("records %d and %d are one span, but only one of them was kept", b, i)
					}
					open[rec.TID] = st[:n-1]
				}
			}
		}
	})
}
