package sweep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
)

// shardMagic heads every shard-result file.
const shardMagic = "SFSHARD1"

// ShardHeader identifies which slice of which plan a shard file holds.
// Merging validates every field, so files from different plans,
// configs, codec versions, or partitionings can never be silently
// combined.
type ShardHeader struct {
	ExpID       string
	Fingerprint string
	ShardIndex  int // 0-based
	ShardCount  int
	TotalTrials int // trials in the whole plan, not this shard
}

func (h ShardHeader) validate() error {
	if err := (ShardSpec{Index: h.ShardIndex, Count: h.ShardCount}).validate(); err != nil {
		return err
	}
	if h.ExpID == "" || h.Fingerprint == "" || h.TotalTrials < 0 {
		return fmt.Errorf("sweep: invalid shard header %+v", h)
	}
	return nil
}

// WriteShardFile persists one shard's positional results atomically.
// results maps plan trial index -> result value; every value's dynamic
// type must be registered with the codec.
func WriteShardFile(path string, h ShardHeader, results map[int]any) error {
	data, err := encodeShardFile(h, results)
	if err != nil {
		return err
	}
	return atomicWriteFile(path, data)
}

// encodeShardFile renders a shard file: the header, then (trial index,
// encoded result) entries in ascending index order.
func encodeShardFile(h ShardHeader, results map[int]any) ([]byte, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	idxs := make([]int, 0, len(results))
	for i := range results {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	// Validate after sorting so the reported index is the smallest
	// offender, not whichever one map iteration yields first.
	for _, i := range idxs {
		if i < 0 || i >= h.TotalTrials {
			return nil, fmt.Errorf("sweep: shard entry index %d outside plan of %d trials", i, h.TotalTrials)
		}
	}

	buf := []byte(shardMagic)
	buf = binary.AppendUvarint(buf, CodecVersion)
	buf = appendString(buf, h.ExpID)
	buf = appendString(buf, h.Fingerprint)
	buf = binary.AppendUvarint(buf, uint64(h.ShardIndex))
	buf = binary.AppendUvarint(buf, uint64(h.ShardCount))
	buf = binary.AppendUvarint(buf, uint64(h.TotalTrials))
	buf = binary.AppendUvarint(buf, uint64(len(idxs)))
	for _, i := range idxs {
		payload, err := EncodeResult(results[i])
		if err != nil {
			return nil, fmt.Errorf("sweep: shard entry %d: %w", i, err)
		}
		buf = binary.AppendUvarint(buf, uint64(i))
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		buf = append(buf, payload...)
	}
	return buf, nil
}

// ReadShardFile parses a shard file back into its header and positional
// results.
func ReadShardFile(path string) (ShardHeader, map[int]any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ShardHeader{}, nil, fmt.Errorf("sweep: reading shard file: %w", err)
	}
	h, results, err := parseShardFile(data)
	if err != nil {
		return ShardHeader{}, nil, fmt.Errorf("sweep: shard file %s: %w", path, err)
	}
	return h, results, nil
}

// parseShardFile decodes what encodeShardFile writes, and nothing
// else: entries must ascend strictly by trial index, so every file it
// accepts re-encodes to the same bytes.
func parseShardFile(data []byte) (ShardHeader, map[int]any, error) {
	if len(data) < len(shardMagic) || string(data[:len(shardMagic)]) != shardMagic {
		return ShardHeader{}, nil, errors.New("not a shard file")
	}
	d := &decoder{buf: data, pos: len(shardMagic)}
	ver := d.uvarint()
	if d.err == nil && ver != CodecVersion {
		return ShardHeader{}, nil, fmt.Errorf("codec version %d, want %d", ver, CodecVersion)
	}
	h := ShardHeader{
		ExpID:       d.string(),
		Fingerprint: d.string(),
		ShardIndex:  int(d.uvarint()),
		ShardCount:  int(d.uvarint()),
		TotalTrials: int(d.uvarint()),
	}
	n64 := d.uvarint()
	// Every entry costs at least 3 bytes (index, payload length, one
	// payload byte), so a corrupt count fails here instead of sizing a
	// wild map allocation.
	if d.err == nil && n64 > uint64(len(d.buf)-d.pos) {
		d.fail("entry count %d exceeds remaining %d bytes", n64, len(d.buf)-d.pos)
	}
	if d.err != nil {
		return ShardHeader{}, nil, d.err
	}
	if err := h.validate(); err != nil {
		return ShardHeader{}, nil, err
	}
	n := int(n64)
	results := make(map[int]any, n)
	prev := -1
	for e := 0; e < n; e++ {
		idx := int(d.uvarint())
		plen := d.uvarint()
		if d.err == nil && plen > uint64(len(d.buf)-d.pos) {
			d.fail("entry payload length %d exceeds remaining %d bytes", plen, len(d.buf)-d.pos)
		}
		payload := d.bytes(int(plen))
		if d.err != nil {
			return ShardHeader{}, nil, fmt.Errorf("entry %d: %w", e, d.err)
		}
		if idx < 0 || idx >= h.TotalTrials {
			return ShardHeader{}, nil, fmt.Errorf("entry index %d outside plan of %d trials", idx, h.TotalTrials)
		}
		if idx <= prev {
			return ShardHeader{}, nil, fmt.Errorf("entry for trial %d follows trial %d (entries must ascend)", idx, prev)
		}
		prev = idx
		v, err := DecodeResult(payload)
		if err != nil {
			return ShardHeader{}, nil, fmt.Errorf("entry for trial %d: %w", idx, err)
		}
		results[idx] = v
	}
	if d.pos != len(d.buf) {
		return ShardHeader{}, nil, fmt.Errorf("%d trailing bytes", len(d.buf)-d.pos)
	}
	return h, results, nil
}

// Merge reassembles the full positional result slice of one plan from
// a set of shard files. It requires the files to agree on (experiment,
// fingerprint, shard count, total trials), to be pairwise disjoint,
// and to jointly cover every trial — exactly the guarantee needed for
// the caller to run Reduce once and obtain output bit-identical to a
// single-process run.
func Merge(paths []string) (ShardHeader, []any, error) {
	if len(paths) == 0 {
		return ShardHeader{}, nil, fmt.Errorf("sweep: merge of zero shard files")
	}
	var ref ShardHeader
	var results []any
	filled := 0
	seen := map[int]string{} // shard index -> path
	for i, path := range paths {
		h, entries, err := ReadShardFile(path)
		if err != nil {
			return ShardHeader{}, nil, err
		}
		if i == 0 {
			ref = h
			results = make([]any, h.TotalTrials)
		} else if h.ExpID != ref.ExpID || h.Fingerprint != ref.Fingerprint ||
			h.ShardCount != ref.ShardCount || h.TotalTrials != ref.TotalTrials {
			return ShardHeader{}, nil, fmt.Errorf(
				"sweep: shard file %s (%s shard %d/%d, %d trials, fp %.12s) does not match %s (%s shard count %d, %d trials, fp %.12s)",
				path, h.ExpID, h.ShardIndex+1, h.ShardCount, h.TotalTrials, h.Fingerprint,
				paths[0], ref.ExpID, ref.ShardCount, ref.TotalTrials, ref.Fingerprint)
		}
		if prev, dup := seen[h.ShardIndex]; dup {
			return ShardHeader{}, nil, fmt.Errorf("sweep: shard %d/%d appears in both %s and %s",
				h.ShardIndex+1, h.ShardCount, prev, path)
		}
		seen[h.ShardIndex] = path
		merged := make([]int, 0, len(entries))
		for idx := range entries {
			merged = append(merged, idx)
		}
		sort.Ints(merged)
		for _, idx := range merged {
			if results[idx] != nil {
				return ShardHeader{}, nil, fmt.Errorf("sweep: trial %d present in more than one shard file", idx)
			}
			results[idx] = entries[idx]
			filled++
		}
	}
	if filled != ref.TotalTrials {
		missing := make([]int, 0, 8)
		for i, v := range results {
			if v == nil {
				missing = append(missing, i)
				if len(missing) == 8 {
					break
				}
			}
		}
		return ShardHeader{}, nil, fmt.Errorf(
			"sweep: merge covers %d of %d trials from %d shard files (first missing: %v) — run the remaining shards first",
			filled, ref.TotalTrials, len(paths), missing)
	}
	return ref, results, nil
}
