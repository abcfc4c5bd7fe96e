package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"unsafe"
)

// Binary CSR snapshot format (version 1).
//
// A snapshot freezes one Graph into a single self-describing file that
// OpenSnapshot can serve back as a read-only *Graph without parsing:
// the file holds the exact arrays of the in-memory CSR, so on a
// little-endian host the mmap'd bytes ARE the graph and opening a
// 10^8-edge snapshot costs a handful of page faults instead of a
// multi-gigabyte text parse.
//
// Wire layout, all fields little-endian (DESIGN.md §8):
//
//	offset  0: magic      [8]byte  "SFCSRB01"
//	offset  8: version    uint32   1
//	offset 12: halfSize   uint32   12 (bytes per half record)
//	offset 16: n          uint64   vertex count
//	offset 24: m          uint64   directed edge count
//	offset 32: headerSum  uint64   FNV-1a over bytes [0, 32)
//
// followed by six sections, each beginning at the next 8-byte-aligned
// offset (zero padding in between):
//
//	from   [m]int32        edge tails, in edge order
//	to     [m]int32        edge heads
//	off    [n+2]int32      CSR offsets: off[v]..off[v+1] indexes halves
//	indeg  [n+1]int32      indegrees (entry 0 is padding)
//	outdeg [n+1]int32      outdegrees
//	halves [2m]halfRecord  incidence lists in CSR order
//
// where one halfRecord is 12 bytes: edge int32, other int32, out
// uint8, then 3 zero bytes. That coincides with Go's in-memory layout
// of Half on every supported platform, which is what makes the
// zero-copy cast possible; writers nevertheless encode records field
// by field so the padding bytes are deterministically zero and the
// file never leaks heap contents.
//
// The file size is fully determined by (n, m); OpenSnapshot rejects
// any size mismatch, so truncated or padded files fail fast instead of
// serving garbage slices.
const (
	snapshotMagic      = "SFCSRB01"
	snapshotVersion    = 1
	snapshotHalfSize   = 12
	snapshotHeaderSize = 40
)

// snapshotMaxCount bounds n and 2m: every index in the format is an
// int32 and off must reach 2m, so counts beyond int32 range cannot be
// represented (that caps a snapshot at ~1.07e9 edges).
const snapshotMaxCount = 1<<31 - 2

// hostLittleEndian reports whether the running machine stores integers
// little-endian, the precondition for the zero-copy open path.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// snapshotForceCopy disables every zero-copy fast path (the casts, the
// bulk int32 write, and the mmap open), forcing the portable
// decode-copy code instead — the behaviour of a big-endian or !unix
// host. Tests flip it (see export_test.go) so the fallback paths get
// CI coverage on the little-endian unix machines that never take them
// naturally.
var snapshotForceCopy bool

// zeroCopyOK gates the unsafe reinterpret paths.
func zeroCopyOK() bool { return hostLittleEndian && !snapshotForceCopy }

// halfLayoutOK confirms at init time that Half's in-memory layout
// matches the wire record, the other zero-copy precondition. On an
// exotic compiler that lays Half out differently the open path falls
// back to a decoding copy and stays correct.
var halfLayoutOK = unsafe.Sizeof(Half{}) == snapshotHalfSize &&
	unsafe.Offsetof(Half{}.Edge) == 0 &&
	unsafe.Offsetof(Half{}.Other) == 4 &&
	unsafe.Offsetof(Half{}.Out) == 8

// snapshotLayout is the byte layout of one snapshot: the absolute
// offset of every section plus the exact total size.
type snapshotLayout struct {
	n, m                                                   int
	fromOff, toOff, offOff, indegOff, outdegOff, halvesOff int64
	size                                                   int64
}

func computeLayout(n, m int) snapshotLayout {
	l := snapshotLayout{n: n, m: m}
	pos := int64(snapshotHeaderSize)
	section := func(bytes int64) int64 {
		start := pos
		pos = (pos + bytes + 7) &^ 7
		return start
	}
	l.fromOff = section(4 * int64(m))
	l.toOff = section(4 * int64(m))
	l.offOff = section(4 * int64(n+2))
	l.indegOff = section(4 * int64(n+1))
	l.outdegOff = section(4 * int64(n+1))
	l.halvesOff = section(snapshotHalfSize * 2 * int64(m))
	l.size = pos
	return l
}

// fnv1a is the checksum the header carries; it only has to catch
// accidental corruption of the size fields, not adversaries.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func encodeHeader(n, m int) [snapshotHeaderSize]byte {
	var h [snapshotHeaderSize]byte
	copy(h[:8], snapshotMagic)
	binary.LittleEndian.PutUint32(h[8:], snapshotVersion)
	binary.LittleEndian.PutUint32(h[12:], snapshotHalfSize)
	binary.LittleEndian.PutUint64(h[16:], uint64(n))
	binary.LittleEndian.PutUint64(h[24:], uint64(m))
	binary.LittleEndian.PutUint64(h[32:], fnv1a(h[:32]))
	return h
}

func decodeHeader(b []byte) (n, m int, err error) {
	if len(b) < snapshotHeaderSize {
		return 0, 0, fmt.Errorf("graph: snapshot truncated: %d bytes, header needs %d", len(b), snapshotHeaderSize)
	}
	if string(b[:8]) != snapshotMagic {
		return 0, 0, fmt.Errorf("graph: bad snapshot magic %q", b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != snapshotVersion {
		return 0, 0, fmt.Errorf("graph: unsupported snapshot version %d (want %d)", v, snapshotVersion)
	}
	if hs := binary.LittleEndian.Uint32(b[12:]); hs != snapshotHalfSize {
		return 0, 0, fmt.Errorf("graph: snapshot half record size %d (want %d)", hs, snapshotHalfSize)
	}
	if sum := binary.LittleEndian.Uint64(b[32:]); sum != fnv1a(b[:32]) {
		return 0, 0, fmt.Errorf("graph: snapshot header checksum mismatch")
	}
	un, um := binary.LittleEndian.Uint64(b[16:]), binary.LittleEndian.Uint64(b[24:])
	if un > snapshotMaxCount || 2*um > snapshotMaxCount {
		return 0, 0, fmt.Errorf("graph: snapshot sizes n=%d m=%d exceed int32 index range", un, um)
	}
	return int(un), int(um), nil
}

// WriteSnapshot serializes g in the binary CSR snapshot format. The
// writer receives exactly computeLayout(n, m).size bytes; wrap the
// call in WriteSnapshotFile to produce an OpenSnapshot-able file.
func WriteSnapshot(w io.Writer, g *Graph) error {
	n, m := g.NumVertices(), g.NumEdges()
	if n > snapshotMaxCount || 2*m > snapshotMaxCount {
		return fmt.Errorf("graph: snapshot sizes n=%d m=%d exceed int32 index range", n, m)
	}
	l := computeLayout(n, m)
	bw := bufio.NewWriterSize(w, 1<<20)
	header := encodeHeader(n, m)
	if _, err := bw.Write(header[:]); err != nil {
		return fmt.Errorf("graph: writing snapshot header: %w", err)
	}
	pos := int64(snapshotHeaderSize)
	pad := func(to int64) error {
		for ; pos < to; pos++ {
			if err := bw.WriteByte(0); err != nil {
				return err
			}
		}
		return nil
	}
	writeVertices := func(name string, at int64, xs []Vertex) error {
		if err := pad(at); err != nil {
			return fmt.Errorf("graph: padding snapshot %s section: %w", name, err)
		}
		if err := writeInt32s(bw, vertexInt32s(xs)); err != nil {
			return fmt.Errorf("graph: writing snapshot %s section: %w", name, err)
		}
		pos += 4 * int64(len(xs))
		return nil
	}
	writeInts := func(name string, at int64, xs []int32) error {
		if err := pad(at); err != nil {
			return fmt.Errorf("graph: padding snapshot %s section: %w", name, err)
		}
		if err := writeInt32s(bw, xs); err != nil {
			return fmt.Errorf("graph: writing snapshot %s section: %w", name, err)
		}
		pos += 4 * int64(len(xs))
		return nil
	}
	if err := writeVertices("from", l.fromOff, g.from[:m]); err != nil {
		return err
	}
	if err := writeVertices("to", l.toOff, g.to[:m]); err != nil {
		return err
	}
	if err := writeInts("off", l.offOff, g.off[:n+2]); err != nil {
		return err
	}
	if err := writeInts("indeg", l.indegOff, g.indeg[:n+1]); err != nil {
		return err
	}
	if err := writeInts("outdeg", l.outdegOff, g.outdeg[:n+1]); err != nil {
		return err
	}
	if err := pad(l.halvesOff); err != nil {
		return fmt.Errorf("graph: padding snapshot halves section: %w", err)
	}
	var rec [snapshotHalfSize]byte
	for _, h := range g.halves[:2*m] {
		binary.LittleEndian.PutUint32(rec[0:], uint32(h.Edge))
		binary.LittleEndian.PutUint32(rec[4:], uint32(h.Other))
		rec[8] = 0
		if h.Out {
			rec[8] = 1
		}
		if _, err := bw.Write(rec[:]); err != nil {
			return fmt.Errorf("graph: writing snapshot halves section: %w", err)
		}
	}
	pos += snapshotHalfSize * 2 * int64(m)
	if err := pad(l.size); err != nil {
		return fmt.Errorf("graph: padding snapshot tail: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flushing snapshot: %w", err)
	}
	return nil
}

// WriteSnapshotFile writes g's snapshot to path (created or truncated).
func WriteSnapshotFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: creating snapshot %s: %w", path, err)
	}
	if err := WriteSnapshot(f, g); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("graph: closing snapshot %s: %w", path, err)
	}
	return nil
}

// writeInt32s writes xs little-endian. On a little-endian host the
// slice's backing bytes are written directly (one memcpy into the
// buffered writer); elsewhere it encodes element by element.
func writeInt32s(bw *bufio.Writer, xs []int32) error {
	if len(xs) == 0 {
		return nil
	}
	if zeroCopyOK() {
		_, err := bw.Write(unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), 4*len(xs)))
		return err
	}
	var buf [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// vertexInt32s reinterprets a []Vertex as []int32 (same underlying
// type) without copying.
func vertexInt32s(xs []Vertex) []int32 {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&xs[0])), len(xs))
}

// Snapshot is an open snapshot file: a read-only *Graph whose arrays
// alias the mmap'd file. Close releases the mapping; the Graph (and
// every slice obtained from it, e.g. Incident results) must not be
// used afterwards. The Graph must never be written through — in
// particular it must not be passed to Builder.FreezeInto.
type Snapshot struct {
	g     *Graph
	unmap func() error
}

// Graph returns the snapshot's read-only graph. It stays valid until
// Close.
func (s *Snapshot) Graph() *Graph { return s.g }

// Close releases the file mapping. The snapshot's Graph becomes
// invalid; Close is idempotent.
func (s *Snapshot) Close() error {
	if s.unmap == nil {
		return nil
	}
	u := s.unmap
	s.unmap = nil
	s.g = nil
	return u()
}

// OpenSnapshot maps the snapshot at path and serves it as a read-only
// *Graph. On a little-endian host (every supported production target)
// the graph's arrays alias the mapping directly — no bytes are copied
// or parsed, so opening is O(1) in the graph size and the OS pages
// data in lazily as traversals touch it. On other hosts the file is
// decoded into fresh arrays and the result is identical, just not
// zero-copy.
//
// Only the header and the total file size are validated here; call
// (*Snapshot).Validate for a full O(n+m) structural check of
// untrusted files.
func OpenSnapshot(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: opening snapshot %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("graph: stat snapshot %s: %w", path, err)
	}
	if st.Size() < snapshotHeaderSize {
		return nil, fmt.Errorf("graph: snapshot %s truncated: %d bytes, header needs %d", path, st.Size(), snapshotHeaderSize)
	}
	if st.Size() > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("graph: snapshot %s too large to map: %d bytes", path, st.Size())
	}
	data, unmap, err := openSnapshotBytes(f, int(st.Size()))
	if err != nil {
		return nil, fmt.Errorf("graph: mapping snapshot %s: %w", path, err)
	}
	s, err := snapshotFromBytes(data, unmap)
	if err != nil {
		unmap()
		return nil, fmt.Errorf("graph: snapshot %s: %w", path, err)
	}
	return s, nil
}

// openSnapshotBytes yields the snapshot's bytes: mmap'd where the
// platform supports it, read into memory otherwise. A map failure
// (filesystems and FUSE mounts that reject MAP_SHARED, locked-down
// containers) degrades to the read path instead of failing the open —
// slower and memory-resident, but correct.
func openSnapshotBytes(f *os.File, size int) (data []byte, release func() error, err error) {
	if !snapshotForceCopy {
		if data, release, err = mapFile(f, size); err == nil {
			return data, release, nil
		}
	}
	return readFileFallback(f, size)
}

// readFileFallback reads the whole file into memory — the open path
// for !unix builds (see mmap_other.go) and the fallback when mapping
// fails.
func readFileFallback(f *os.File, size int) (data []byte, release func() error, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, err
	}
	b, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, err
	}
	if len(b) != size {
		return nil, nil, fmt.Errorf("read %d bytes, want %d", len(b), size)
	}
	return b, func() error { return nil }, nil
}

// snapshotFromBytes builds the graph view over one snapshot's bytes.
// On the zero-copy path the returned graph aliases data; the caller
// keeps the mapping alive through the returned Snapshot.
func snapshotFromBytes(data []byte, unmap func() error) (*Snapshot, error) {
	n, m, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	l := computeLayout(n, m)
	if int64(len(data)) != l.size {
		return nil, fmt.Errorf("snapshot size %d bytes, n=%d m=%d needs exactly %d", len(data), n, m, l.size)
	}
	halves, err := castHalves(data[l.halvesOff:], 2*m)
	if err != nil {
		return nil, err
	}
	g := &Graph{
		n:      n,
		from:   castVertices(data[l.fromOff:], m),
		to:     castVertices(data[l.toOff:], m),
		off:    castInt32s(data[l.offOff:], n+2),
		indeg:  castInt32s(data[l.indegOff:], n+1),
		outdeg: castInt32s(data[l.outdegOff:], n+1),
		halves: halves,
	}
	if unmap == nil {
		unmap = func() error { return nil }
	}
	return &Snapshot{g: g, unmap: unmap}, nil
}

func castInt32s(b []byte, count int) []int32 {
	if count == 0 {
		return nil
	}
	if zeroCopyOK() {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), count)
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func castVertices(b []byte, count int) []Vertex {
	if count == 0 {
		return nil
	}
	if zeroCopyOK() {
		return unsafe.Slice((*Vertex)(unsafe.Pointer(&b[0])), count)
	}
	xs := castInt32s(b, count)
	out := make([]Vertex, count)
	for i, x := range xs {
		out[i] = Vertex(x)
	}
	return out
}

// castHalves serves the half records. An out byte other than 0 or 1 is
// not a Go bool: the zero-copy cast keeps it, and Validate rejects it
// there; the decode-copy path cannot carry it into a bool, so it
// rejects it here.
func castHalves(b []byte, count int) ([]Half, error) {
	if count == 0 {
		return nil, nil
	}
	if zeroCopyOK() && halfLayoutOK {
		return unsafe.Slice((*Half)(unsafe.Pointer(&b[0])), count), nil
	}
	out := make([]Half, count)
	for i := range out {
		rec := b[snapshotHalfSize*i:]
		if rec[8] > 1 {
			return nil, fmt.Errorf("snapshot half %d has out byte %d, want 0 or 1", i, rec[8])
		}
		out[i] = Half{
			Edge:  EdgeID(binary.LittleEndian.Uint32(rec[0:])),
			Other: Vertex(binary.LittleEndian.Uint32(rec[4:])),
			Out:   rec[8] == 1,
		}
	}
	return out, nil
}

// outByte is the byte behind h.Out, which a zero-copy half holds as the
// file stored it.
func outByte(h *Half) byte { return *(*byte)(unsafe.Pointer(&h.Out)) }

// Validate runs the full O(n+m) structural check of the snapshot's
// graph: offsets monotone and spanning exactly 2m halves, every half's
// out byte 0 or 1 and the half consistent with its edge's endpoints,
// every incidence list in Graph.Incident's edge order, every endpoint
// in range, and the degree counters matching the edge list.
// WriteSnapshot output always validates; use this before traversing a
// file from an untrusted source, where OpenSnapshot's header checks
// are not enough.
func (s *Snapshot) Validate() error {
	g := s.g
	if g == nil {
		return fmt.Errorf("graph: Validate on closed snapshot")
	}
	n, m := g.n, len(g.from)
	if g.off[1] != 0 {
		return fmt.Errorf("graph: snapshot off[1] = %d, want 0", g.off[1])
	}
	for v := 1; v <= n; v++ {
		if g.off[v+1] < g.off[v] {
			return fmt.Errorf("graph: snapshot off not monotone at vertex %d", v)
		}
	}
	if int(g.off[n+1]) != 2*m {
		return fmt.Errorf("graph: snapshot off[n+1] = %d, want 2m = %d", g.off[n+1], 2*m)
	}
	for e := 0; e < m; e++ {
		u, v := g.from[e], g.to[e]
		if u < 1 || int(u) > n || v < 1 || int(v) > n {
			return fmt.Errorf("graph: snapshot edge %d endpoints (%d, %d) out of range 1..%d", e, u, v, n)
		}
	}
	var inSum, outSum int64
	for v := 1; v <= n; v++ {
		if g.indeg[v] < 0 || g.outdeg[v] < 0 {
			return fmt.Errorf("graph: snapshot vertex %d has negative degree counters", v)
		}
		inSum += int64(g.indeg[v])
		outSum += int64(g.outdeg[v])
		if int(g.off[v+1]-g.off[v]) != int(g.indeg[v]+g.outdeg[v]) {
			return fmt.Errorf("graph: snapshot vertex %d incidence length %d != indeg+outdeg %d",
				v, g.off[v+1]-g.off[v], g.indeg[v]+g.outdeg[v])
		}
	}
	if inSum != int64(m) || outSum != int64(m) {
		return fmt.Errorf("graph: snapshot degree sums (in %d, out %d) != m = %d", inSum, outSum, m)
	}
	for v := 1; v <= n; v++ {
		inc := g.halves[g.off[v]:g.off[v+1]]
		for i, h := range inc {
			if b := outByte(&inc[i]); b > 1 {
				return fmt.Errorf("graph: snapshot vertex %d half of edge %d has out byte %d, want 0 or 1", v, h.Edge, b)
			}
			// Incident's order: ascending EdgeID, a self-loop's Out half
			// directly before its In half.
			if i > 0 {
				prev := inc[i-1]
				if h.Edge < prev.Edge || h.Edge == prev.Edge && (!prev.Out || h.Out) {
					return fmt.Errorf("graph: snapshot vertex %d incidence out of edge order at slot %d", v, i)
				}
			}
			if h.Edge < 0 || int(h.Edge) >= m {
				return fmt.Errorf("graph: snapshot vertex %d references edge %d out of range", v, h.Edge)
			}
			u, w := g.from[h.Edge], g.to[h.Edge]
			if h.Out {
				if u != Vertex(v) || h.Other != w {
					return fmt.Errorf("graph: snapshot vertex %d out-half of edge %d inconsistent", v, h.Edge)
				}
			} else if w != Vertex(v) || h.Other != u {
				return fmt.Errorf("graph: snapshot vertex %d in-half of edge %d inconsistent", v, h.Edge)
			}
		}
	}
	return nil
}
