package sweep

import (
	"bytes"
	"strconv"
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

// FuzzWireMessages feeds arbitrary protocol lines to splitMsg and every
// field parser of the coordinator wire protocol (parseLease,
// parseResult, parseID and parseMillis), whatever the verb. Seed
// corpora live in testdata/fuzz/FuzzWireMessages: one valid line per
// verb, plus a WAIT whose millisecond count overflows a Duration. For
// any line:
//   - no input panics;
//   - parseMillis never returns a negative duration without an error;
//   - a parsed LEASE or RESULT, formatted again by formatLease or
//     formatResult and parsed, gives back the same message, and a
//     parsed duration formatted as milliseconds parses to itself.
func FuzzWireMessages(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		_, fields := splitMsg(line)
		parseID(fields) // any text may fail to parse; only a panic is a bug
		if len(fields) > 0 {
			if d, err := parseMillis(fields[0]); err == nil {
				if d < 0 {
					t.Fatalf("parseMillis(%q) = %v without an error", fields[0], d)
				}
				again, err := parseMillis(strconv.FormatInt(d.Milliseconds(), 10))
				if err != nil || again != d {
					t.Fatalf("parseMillis(%q) = %v, but its millisecond count parses to %v, %v", fields[0], d, again, err)
				}
			}
		}
		if m, err := parseLease(fields); err == nil {
			v, fs := splitMsg(formatLease(m))
			again, err := parseLease(fs)
			if v != "LEASE" || err != nil || again != m {
				t.Fatalf("lease %+v formats to %q and parses back as %q %+v, %v", m, formatLease(m), v, again, err)
			}
		}
		if m, err := parseResult(fields); err == nil {
			line := formatResult(m.LeaseID, m.ExpID, m.Index, m.Payload)
			v, fs := splitMsg(line)
			again, err := parseResult(fs)
			if v != "RESULT" || err != nil || again.LeaseID != m.LeaseID || again.ExpID != m.ExpID ||
				again.Index != m.Index || !bytes.Equal(again.Payload, m.Payload) {
				t.Fatalf("result %+v formats to %q and parses back as %q %+v, %v", m, line, v, again, err)
			}
		}
	})
}
