package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"scalefree/internal/engine"
)

// hashWriter length-prefixes everything it feeds into the digest, so
// adjacent fields can never alias (["ab","c"] vs ["a","bc"]) and both
// hash domains below share one prefixing convention. Fields append to
// one reused buffer that flush writes to the hash, so hashing costs no
// allocation per field; Fingerprint flushes once per trial to keep the
// buffer at one trial's size.
type hashWriter struct {
	h   hash.Hash
	buf []byte
}

func newHashWriter() hashWriter {
	return hashWriter{h: sha256.New(), buf: make([]byte, 0, 256)}
}

func (w *hashWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

func (w *hashWriter) string(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *hashWriter) flush() {
	w.h.Write(w.buf)
	w.buf = w.buf[:0]
}

func (w *hashWriter) sum() string {
	w.flush()
	return hex.EncodeToString(w.h.Sum(nil))
}

// Fingerprint canonically hashes a plan's identity: the experiment ID,
// a caller-supplied canonical parameter string, the codec version, and
// every trial's (index, key, seed) in plan order. Two plans with the
// same fingerprint decompose into the same positional trial list with
// the same seeds under the same parameters, so their per-trial results
// are interchangeable — this is what makes shard files from different
// machines safely mergeable and cached results safely reusable. Any
// change to the workload (scale, seed, trial decomposition, codec
// format) changes the fingerprint and orphans stale artifacts instead
// of merging them.
//
// params exists because trial keys and seeds do not always pin the
// whole workload: a plan may capture tunables (e.g. a Monte-Carlo
// replication count derived from the config) in its closures without
// surfacing them per trial. Callers must fold every such tunable into
// params — the experiment harness passes its canonical Config
// rendering.
func Fingerprint(expID, params string, trials []engine.Trial) string {
	w := newHashWriter()
	w.string("sweep-fingerprint")
	w.uvarint(CodecVersion)
	w.string(expID)
	w.string(params)
	w.uvarint(uint64(len(trials)))
	for _, t := range trials {
		w.uvarint(uint64(t.Index))
		w.string(t.Key)
		w.uvarint(t.Seed)
		w.flush()
	}
	return w.sum()
}

// CacheKey derives the content address of one trial's result:
// (experiment ID, plan fingerprint, trial key, trial seed, codec
// version), hashed. The trial's plan position is deliberately absent —
// a result is addressed by what was computed, not where it sat — but
// the plan fingerprint pins the decomposition that produced it.
func CacheKey(expID, fingerprint string, t engine.Trial) string {
	w := newHashWriter()
	w.string("sweep-cache-key")
	w.uvarint(CodecVersion)
	w.string(expID)
	w.string(fingerprint)
	w.string(t.Key)
	w.uvarint(t.Seed)
	return w.sum()
}
