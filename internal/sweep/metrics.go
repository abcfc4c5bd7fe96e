package sweep

import (
	"sort"
	"sync"

	"scalefree/internal/obs"
)

// Package-level metrics, registered once on the process-global
// registry. Everything here sits strictly outside the determinism
// boundary: metrics observe trial execution and sweep scheduling, they
// never feed either — the golden tests pin that a sweep's tables are
// byte-identical with observability fully enabled.
//
// Counters are process-global rather than per-Coordinate/per-RunWorker
// because one process hosts at most one sweep role at a time in
// practice; a scrape therefore reads as "this process's lifetime
// totals", which is exactly what Prometheus counters mean.
var (
	// Trial execution (worker or single-process side; Execute).
	mTrialsCompleted = obs.Default().CounterVec("scalefree_trials_completed_total",
		"Trials executed to completion, by experiment.", "exp")
	mTrialFailures = obs.Default().CounterVec("scalefree_trial_failures_total",
		"Trial executions that returned an error, by experiment.", "exp")
	mTrialSeconds = obs.Default().HistogramVec("scalefree_trial_seconds",
		"Wall-clock latency of executed trials, by experiment.", "exp", nil)

	// Result cache (Cache).
	mCacheHits = obs.Default().Counter("scalefree_cache_hits_total",
		"Cache lookups satisfied from the content-addressed store.")
	mCacheMisses = obs.Default().Counter("scalefree_cache_misses_total",
		"Cache lookups that missed (absent, corrupt, or version-skewed entries).")
	mCachePutBytes = obs.Default().Counter("scalefree_cache_put_bytes_total",
		"Bytes written into the cache by Put.")
	mCacheEvictedEntries = obs.Default().Counter("scalefree_cache_evicted_entries_total",
		"Entries removed by LRU eviction (EvictTo).")
	mCacheEvictedBytes = obs.Default().Counter("scalefree_cache_evicted_bytes_total",
		"Bytes removed by LRU eviction (EvictTo).")
	mCacheGCRemoved = obs.Default().Counter("scalefree_cache_gc_removed_total",
		"Files removed by cache GC (entries, corrupt files, and temps).")

	// Coordinator lease lifecycle (Coordinate).
	mLeasesGranted = obs.Default().Counter("scalefree_coord_leases_granted_total",
		"Chunk leases handed to workers.")
	mLeasesCompleted = obs.Default().Counter("scalefree_coord_leases_completed_total",
		"Leases retired by a worker's COMPLETE.")
	mLeasesStolen = obs.Default().Counter("scalefree_coord_leases_stolen_total",
		"Leases reclaimed after missing their heartbeat deadline (work stealing).")
	mLeasesRevoked = obs.Default().Counter("scalefree_coord_leases_revoked_total",
		"Leases revoked because their worker's connection dropped.")
	mChunkRetries = obs.Default().Counter("scalefree_coord_chunk_retries_total",
		"Failed chunks re-leased for their one retry.")
	mRefusals = obs.Default().Counter("scalefree_coord_refusals_total",
		"Workers that refused the sweep (plan mismatch, codec failure).")
	mDupResults = obs.Default().Counter("scalefree_coord_duplicate_results_total",
		"Duplicate trial deliveries resolved by content equality (stolen chunks).")
	mCoordResults = obs.Default().CounterVec("scalefree_coord_results_total",
		"Newly completed trials accepted by the coordinator, by reporting worker.", "worker")
	mWorkersConnected = obs.Default().Gauge("scalefree_coord_workers_connected",
		"Workers currently past the HELLO handshake.")
	mLeaseSeconds = obs.Default().Histogram("scalefree_coord_lease_seconds",
		"Lease lifetime from grant to COMPLETE — the coordinator's view of chunk latency.", nil)

	// Worker client (RunWorker).
	mWorkerReconnects = obs.Default().Counter("scalefree_worker_reconnects_total",
		"Connection attempts that failed and entered backoff.")
	mWorkerHeartbeats = obs.Default().Counter("scalefree_worker_heartbeats_total",
		"PING heartbeats sent while executing leased chunks.")
	mWorkerLeasesLost = obs.Default().Counter("scalefree_worker_leases_lost_total",
		"Leases revoked under this worker mid-execution (chunk stolen).")
	mWorkerChunks = obs.Default().Counter("scalefree_worker_chunks_total",
		"Leased chunks this worker executed and delivered.")
	mWorkerChunkFailures = obs.Default().Counter("scalefree_worker_chunk_failures_total",
		"Leased chunks whose execution failed (reported as FAIL).")
)

// CoordObserver publishes a live view of one Coordinate call for the
// /status endpoint. Attach it via CoordOptions.Observer; Snapshot is
// safe to call from any goroutine at any time, including before the
// sweep starts (it reports zeros) and after it ends.
type CoordObserver struct {
	mu sync.Mutex //sf:mutex observer.mu
	st *coordState
}

func (o *CoordObserver) attach(st *coordState) {
	o.mu.Lock()
	o.st = st
	o.mu.Unlock()
}

// JobStatus is one experiment's completion state in a CoordSnapshot.
type JobStatus struct {
	ExpID       string `json:"exp"`
	Fingerprint string `json:"fingerprint"`
	Trials      int    `json:"trials"`
	Done        int    `json:"done"`
}

// WorkerCount is one worker's share of a sweep's completed trials in a
// CoordSnapshot.
type WorkerCount struct {
	Source string `json:"source"`
	Done   int    `json:"done"`
}

// CoordSnapshot is a point-in-time view of a coordinated sweep — the
// scheduling half of the /status payload. It is plain data with a
// stable JSON schema; the HTTP layer renders it as-is.
type CoordSnapshot struct {
	Jobs          []JobStatus `json:"jobs"`
	TotalTrials   int         `json:"total_trials"`
	DoneTrials    int         `json:"done_trials"`
	PendingChunks int         `json:"pending_chunks"`
	ActiveLeases  int         `json:"active_leases"`
	Workers       int         `json:"workers_connected"`
	Draining      bool        `json:"draining"`
	Finished      bool        `json:"finished"`
	Failure       string      `json:"failure,omitempty"`

	// ByWorker attributes every one of DoneTrials to the worker that
	// delivered it first, sorted by worker name.
	ByWorker []WorkerCount `json:"done_by_worker"`
}

// Snapshot reads the coordinator's current state. Before Coordinate
// attaches the observer it returns the zero snapshot. It takes
// observer.mu, st.mu, and leases.mu strictly one at a time — never
// nested — so it can run from any ops goroutine without joining the
// coordinator's lock order.
//
//sf:locksequential
func (o *CoordObserver) Snapshot() CoordSnapshot {
	o.mu.Lock()
	st := o.st
	o.mu.Unlock()
	if st == nil {
		return CoordSnapshot{}
	}
	var s CoordSnapshot
	st.mu.Lock()
	s.Jobs = make([]JobStatus, len(st.jobs))
	for j, job := range st.jobs {
		s.Jobs[j] = JobStatus{
			ExpID:       job.Job.ExpID,
			Fingerprint: job.Job.Fingerprint,
			Trials:      len(job.Trials),
			Done:        len(st.results[j]),
		}
		s.TotalTrials += len(job.Trials)
		s.DoneTrials += len(st.results[j])
	}
	names := make([]string, 0, len(st.byWorker))
	for w := range st.byWorker {
		names = append(names, w)
	}
	sort.Strings(names)
	s.ByWorker = make([]WorkerCount, len(names))
	for i, w := range names {
		s.ByWorker[i] = WorkerCount{Source: w, Done: st.byWorker[w]}
	}
	s.Workers = len(st.helloed)
	s.Draining = st.draining
	s.Finished = st.finished
	if st.failure != nil {
		s.Failure = st.failure.Error()
	}
	st.mu.Unlock()
	// The lease table has its own lock; reading it outside st.mu keeps
	// the two locks unnested (coordinator code paths nest st.mu over
	// leases.mu, never the reverse).
	s.PendingChunks, s.ActiveLeases = st.leases.Counts()
	return s
}
