package sweep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"scalefree/internal/engine"
)

// cacheMagic heads every cache entry file, followed by the uvarint
// codec version, the plan fingerprint, and the EncodeResult payload.
// The fingerprint is not consulted on Get (the content address already
// pins it) — it exists so GC can attribute every entry to the run that
// produced it.
const cacheMagic = "SFCACHE1"

// tempPrefix marks in-flight atomic writes. Anything carrying it is
// never a cache entry: Len skips it, GC reaps it, and OpenCache reaps
// stale ones a crashed writer left behind.
const tempPrefix = ".tmp-"

// tempReapAge is how old an orphaned temp file must be before
// OpenCache deletes it. The age gate keeps a concurrent writer's
// in-flight temp safe: a healthy atomic write lives milliseconds, not
// minutes.
const tempReapAge = 10 * time.Minute

// Cache is a content-addressed store of encoded trial results. Entries
// live at <dir>/<key[:2]>/<key> (two-level fan-out keeps directories
// small on full-scale sweeps); writes are atomic rename-into-place, so
// a cache shared by concurrent shard processes on one filesystem is
// safe — the worst race is both computing the same pure result and one
// rename winning.
//
// The cache is an optimization layer with a strict correctness rule:
// Get must only ever return a value that Put stored under the same
// content address. Unreadable or corrupt entries are treated as
// misses, never as errors — the trial simply re-executes and
// overwrites the entry. Keys that cannot address an entry at all
// (shorter than the fan-out prefix, or not lowercase hex) are a Get
// miss and a Put error: they cannot come from CacheKey, so storing
// under one would write an unfindable file.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a result cache rooted at dir,
// and sweeps out temp files old enough to be orphans of crashed
// writers.
//
//sf:wallclock — the reap watermark is a real filesystem timestamp.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("sweep: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: opening cache: %w", err)
	}
	c := &Cache{dir: dir}
	if err := c.reapTemps(time.Now().Add(-tempReapAge)); err != nil {
		return nil, fmt.Errorf("sweep: opening cache: %w", err)
	}
	return c, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// validKey reports whether key can address a cache entry: long enough
// for the two-character fan-out prefix and lowercase hex, the only
// form CacheKey produces. Everything else would panic the path split
// or escape the cache directory.
func validKey(key string) bool {
	if len(key) < 3 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key)
}

// Get looks a trial result up by content address. ok reports a hit;
// malformed keys and missing, truncated, version-skewed, or
// undecodable entries are misses. A lookup only reads: it writes
// nothing to the cache directory, not even an mtime.
func (c *Cache) Get(key string) (v any, ok bool) {
	if !validKey(key) {
		mCacheMisses.Inc()
		return nil, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		mCacheMisses.Inc()
		return nil, false
	}
	_, payload, err := parseEntry(data)
	if err != nil {
		mCacheMisses.Inc()
		return nil, false
	}
	v, err = DecodeResult(payload)
	if err != nil {
		mCacheMisses.Inc()
		return nil, false
	}
	mCacheHits.Inc()
	return v, true
}

// Put stores an encoded trial result under key, atomically, tagged
// with the plan fingerprint that produced it (see GC). Errors are
// real (malformed key, disk full, permissions): persistence was
// requested and did not happen, so callers must surface them rather
// than silently running an unresumable sweep.
func (c *Cache) Put(key, fingerprint string, v any) error {
	if !validKey(key) {
		return fmt.Errorf("sweep: cache put: malformed key %q (want lowercase hex, >= 3 chars)", key)
	}
	payload, err := EncodeResult(v)
	if err != nil {
		return err
	}
	data := append(entryHeader(fingerprint), payload...)
	dst := c.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	if err := atomicWriteFile(dst, data); err != nil {
		return err
	}
	mCachePutBytes.Add(int64(len(data)))
	return nil
}

// Len counts the entries currently in the cache (test and stats
// support; it walks the directory). In-flight or orphaned temp files
// are not entries and are not counted.
func (c *Cache) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(c.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && !strings.HasPrefix(d.Name(), tempPrefix) {
			n++
		}
		return nil
	})
	return n, err
}

// GCStats reports what one GC pass removed.
type GCStats struct {
	// Entries counts removed cache entries carrying the target
	// fingerprint.
	Entries int
	// Corrupt counts removed files that were not parseable cache
	// entries; they could never be hits, only waste scans.
	Corrupt int
	// Temps counts removed temp files (crashed writers' leftovers).
	Temps int
	// Bytes totals the sizes of everything removed.
	Bytes int64
}

func (s GCStats) String() string {
	return fmt.Sprintf("%d entries, %d corrupt, %d temp files (%d bytes)", s.Entries, s.Corrupt, s.Temps, s.Bytes)
}

// GC removes every cache entry written under the given plan
// fingerprint — the artifacts of a finished or abandoned run, which
// nothing can address once its workload changed — plus all temp files
// and any corrupt entries it encounters. Entries of other fingerprints
// are untouched, so a shared cache directory survives the GC of one
// run. Run it when no sweep is writing the same fingerprint.
func (c *Cache) GC(fingerprint string) (GCStats, error) {
	var stats GCStats
	if fingerprint == "" {
		return stats, errors.New("sweep: cache gc: empty fingerprint")
	}
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		remove := false
		switch data, rerr := os.ReadFile(path); {
		case strings.HasPrefix(d.Name(), tempPrefix):
			stats.Temps++
			remove = true
		case rerr != nil:
			return rerr
		default:
			fp, _, perr := parseEntry(data)
			switch {
			case perr != nil:
				stats.Corrupt++
				remove = true
			case fp == fingerprint:
				stats.Entries++
				remove = true
			}
		}
		if remove {
			if info, err := d.Info(); err == nil {
				stats.Bytes += info.Size()
			}
			// Tolerate losing the removal race: another process's
			// OpenCache may reap the same temp file concurrently.
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return stats, fmt.Errorf("sweep: cache gc: %w", err)
	}
	mCacheGCRemoved.Add(int64(stats.Entries + stats.Corrupt + stats.Temps))
	c.pruneEmptyDirs()
	return stats, nil
}

// reapTemps removes temp files last modified before cutoff.
func (c *Cache) reapTemps(cutoff time.Time) error {
	return filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), tempPrefix) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			// Raced with another process's rename or cleanup: not ours
			// to report.
			return nil
		}
		if info.ModTime().Before(cutoff) {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		return nil
	})
}

// pruneEmptyDirs drops fan-out directories GC emptied; best-effort,
// since a concurrent Put may legitimately repopulate one mid-scan.
func (c *Cache) pruneEmptyDirs() {
	dirs, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, d := range dirs {
		if d.IsDir() {
			os.Remove(filepath.Join(c.dir, d.Name())) // fails unless empty
		}
	}
}

func entryHeader(fingerprint string) []byte {
	buf := binary.AppendUvarint([]byte(cacheMagic), CodecVersion)
	return appendString(buf, fingerprint)
}

// parseEntry splits a cache entry file into the fingerprint it was
// written under and the encoded result payload.
func parseEntry(data []byte) (fingerprint string, payload []byte, err error) {
	if len(data) < len(cacheMagic) || string(data[:len(cacheMagic)]) != cacheMagic {
		return "", nil, errors.New("sweep: not a cache entry")
	}
	d := &decoder{buf: data, pos: len(cacheMagic)}
	ver := d.uvarint()
	if d.err == nil && ver != CodecVersion {
		return "", nil, fmt.Errorf("sweep: cache entry codec version %d, want %d", ver, CodecVersion)
	}
	fingerprint = d.string()
	if d.err != nil {
		return "", nil, d.err
	}
	return fingerprint, data[d.pos:], nil
}

// lookupTrial consults an optional cache for one trial; a nil cache
// always misses.
func lookupTrial(c *Cache, expID, fingerprint string, t engine.Trial) (any, bool) {
	if c == nil {
		return nil, false
	}
	return c.Get(CacheKey(expID, fingerprint, t))
}

// storeTrial persists one trial result to an optional cache; a nil
// cache stores nothing.
func storeTrial(c *Cache, expID, fingerprint string, t engine.Trial, v any) error {
	if c == nil {
		return nil
	}
	return c.Put(CacheKey(expID, fingerprint, t), fingerprint, v)
}

// atomicWriteFile writes data to path via a sibling temp file and
// rename, so readers never observe a partial file and concurrent
// writers of identical content race harmlessly. The temp name is
// dot-prefixed so a crashed writer's leftovers can never match the
// "<expID>.shard-*" glob a merge run sweeps up, and carries tempPrefix
// so cache maintenance recognizes it.
func atomicWriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), tempPrefix+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("sweep: atomic write: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("sweep: atomic write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("sweep: atomic write: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("sweep: atomic write: %w", err)
	}
	return nil
}
