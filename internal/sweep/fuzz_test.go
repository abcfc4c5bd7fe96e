package sweep

import (
	"bytes"
	"testing"
)

// The on-disk decoders a resume reads: cache entries (written by any
// process sharing the cache, the coordinator included) and shard files.
// Seed corpora live in testdata/fuzz/<target>/: a valid input, its
// truncations, and every input that once broke a property below. Each
// target must hold for any bytes:
//   - no input panics;
//   - a length field longer than the remaining input is an error, never
//     an allocation;
//   - a successfully decoded value re-encodes to exactly the input, so
//     the decoder accepts only what the encoder writes.

func FuzzCacheEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fingerprint, payload, err := parseEntry(data)
		if err != nil {
			return
		}
		v, err := DecodeResult(payload)
		if err != nil {
			return
		}
		enc, err := EncodeResult(v)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		if re := append(entryHeader(fingerprint), enc...); !bytes.Equal(re, data) {
			t.Fatalf("entry re-encodes to different bytes:\n got %x\nwant %x", re, data)
		}
	})
}

func FuzzShardFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h, results, err := parseShardFile(data)
		if err != nil {
			return
		}
		re, err := encodeShardFile(h, results)
		if err != nil {
			t.Fatalf("decoded shard file does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("shard file re-encodes to different bytes:\n got %x\nwant %x", re, data)
		}
	})
}
