package trace

import (
	"bytes"
	"runtime/metrics"
	"slices"
	"testing"
)

// FuzzDecodeBatch feeds arbitrary bytes to DecodeBatch, which decodes
// the span batches remote workers ship on their SPANS lines, and
// re-encodes what it accepts, in full and split. Seed corpora live in
// testdata/fuzz/FuzzDecodeBatch: a batch with nested spans, an instant
// and a flow pair, its truncations, and the inputs the decoder must
// refuse (a lone version byte, a phase the recorder never writes). For
// any bytes:
//   - no input panics;
//   - decoding allocates at most four times the input's size;
//   - a decoded batch re-encodes to exactly its bytes;
//   - the decoded records, repeated reps%64 times, split under the
//     tightest budget every record fits into batches that each fit,
//     that could not have taken their successor's first record, and
//     that decode in order to every record; no record makes no batch.
//
// The heap counter the allocation bound reads credits a size class's
// earlier allocations when a span is refilled, so a small decode can
// read as tens of KiB; the 1 MiB slack covers that.
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, reps uint16) {
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

		if full := EncodeBatches(recs, len(data)); len(full) != min(len(recs), 1) || len(full) > 0 && !bytes.Equal(full[0].Data, data) {
			t.Fatalf("batch re-encodes to %d different batches: %+v, want %x", len(full), full, data)
		}

		var in []Record
		for range reps % 64 {
			in = append(in, recs...)
		}
		budget := 1
		for _, rec := range in {
			budget = max(budget, 1+encodedSize(rec))
		}
		batches := EncodeBatches(in, budget)
		if len(in) == 0 && batches != nil {
			t.Fatalf("no record encoded to %d batches", len(batches))
		}
		var got []Record
		for i, b := range batches {
			if len(b.Data) > budget {
				t.Fatalf("batch %d: %d bytes for a %d-byte budget", i, len(b.Data), budget)
			}
			if i > 0 && len(batches[i-1].Data)+encodedSize(in[len(got)]) <= budget {
				t.Fatalf("batch %d was cut with room for its successor's first record", i-1)
			}
			dec, err := DecodeBatch(b.Data)
			if err != nil || len(dec) != b.N {
				t.Fatalf("batch %d decodes to %d records, %v; it claims %d", i, len(dec), err, b.N)
			}
			got = append(got, dec...)
		}
		if !slices.Equal(got, in) {
			t.Fatalf("%d batches decode to %d records, want the %d encoded", len(batches), len(got), len(in))
		}
	})
}
