package sweep

import (
	"slices"
	"time"
)

// chunk is the unit of lease-based scheduling: a contiguous slice
// [Lo,Hi) of one job's plan trials. Chunks are small (CoordOptions.
// ChunkSize trials) so a dead worker forfeits little work and a slow
// worker cannot strand the sweep's tail.
type chunk struct {
	JobIdx int // index into the coordinator's job list
	Lo, Hi int // trial slice range [Lo,Hi)
}

// lease is one chunk checked out to one worker with a heartbeat
// deadline. A lease past its deadline is forfeit: the next worker
// asking for work steals the chunk, and any results the original
// worker still delivers are resolved by content address.
type lease struct {
	ID       uint64
	Chunk    chunk
	Worker   string
	ConnID   uint64
	Granted  time.Time
	Deadline time.Time
}

// leaseTable is the coordinator's scheduling state: a FIFO queue of
// unassigned chunks plus the active leases. It is plain data with no
// lock of its own: the coordinator calls it only under coordState.mu,
// in the same critical section that reads and writes the results, so
// a chunk that leaves the lease table and goes back on the queue does
// so in one step as any other reader sees it. Time is injectable so
// expiry logic is unit-testable without sleeping.
type leaseTable struct {
	pending []chunk
	active  map[uint64]*lease
	nextID  uint64
	ttl     time.Duration
	now     func() time.Time
	// avoid maps a chunk requeued after a worker's FAIL to the failing
	// worker and a hold deadline: until the deadline passes, Acquire
	// refuses to hand the chunk back to its failer, so a host-local
	// fault is retried on a different host whenever one frees up
	// within a TTL. After the deadline anyone may take it — the time
	// gate, not a connection census, provides lone-worker liveness
	// (a zombie connection that never asks for work cannot starve the
	// retry).
	avoid map[chunk]avoidEntry
	// onDrop, if set, is notified of steals and revocations (see
	// dropFunc). Observation only — it never affects scheduling.
	onDrop dropFunc
}

// avoidEntry records who failed a chunk and until when the chunk is
// withheld from them.
type avoidEntry struct {
	worker string
	until  time.Time
}

// dropFunc observes the lease losses the table decides internally: how
// is "steal" (heartbeat deadline missed, chunk reclaimed) or "revoke"
// (connection death). It runs inside the table method that decided the
// loss, so under coordState.mu, and only records it (metrics, events,
// trace): it must not call back into the table mid-update.
type dropFunc func(l lease, how string)

func newLeaseTable(chunks []chunk, ttl time.Duration) *leaseTable {
	return &leaseTable{
		pending: append([]chunk(nil), chunks...),
		active:  map[uint64]*lease{},
		ttl:     ttl,
		now:     time.Now,
	}
}

// Acquire hands the next available chunk to a worker, reclaiming
// expired leases first (the work-stealing step). ok is false when
// nothing is assignable right now — either the sweep's chunks are all
// leased out and alive (poll again) or truly done (the caller knows
// which from its result bookkeeping).
func (lt *leaseTable) Acquire(worker string, connID uint64) (lease, bool) {
	lt.reclaimExpired()
	if len(lt.pending) == 0 {
		return lease{}, false
	}
	// Take the first chunk this worker may have: one it did not fail,
	// or one whose avoidance hold has expired (a healthy worker had a
	// full TTL to steal the retry; past that, liveness beats
	// preference — a lone worker must still drive its own retry to
	// the second-failure abort).
	now := lt.now()
	pick := -1
	for i, c := range lt.pending {
		if a, held := lt.avoid[c]; held && a.worker == worker && now.Before(a.until) {
			continue
		}
		pick = i
		break
	}
	if pick == -1 {
		// Everything pending is withheld from this worker for now;
		// poll again (WAIT) — another worker will take it, or the
		// hold expires.
		return lease{}, false
	}
	c := lt.pending[pick]
	lt.pending = append(lt.pending[:pick], lt.pending[pick+1:]...)
	lt.nextID++
	l := &lease{ID: lt.nextID, Chunk: c, Worker: worker, ConnID: connID, Granted: now, Deadline: lt.now().Add(lt.ttl)}
	lt.active[l.ID] = l
	return *l, true
}

// reclaimExpired moves every overdue lease's chunk back onto the
// pending queue.
func (lt *leaseTable) reclaimExpired() {
	now := lt.now()
	// Reclaim in lease-ID order so the requeued chunk order (and the
	// onDrop event stream) is a function of grant order, not of map
	// iteration order.
	var expired []uint64
	for id, l := range lt.active {
		if now.After(l.Deadline) {
			expired = append(expired, id)
		}
	}
	slices.Sort(expired)
	for _, id := range expired {
		l := lt.active[id]
		lt.pending = append(lt.pending, l.Chunk)
		delete(lt.active, id)
		if lt.onDrop != nil {
			lt.onDrop(*l, "steal")
		}
	}
}

// Heartbeat extends a live lease's deadline; false means the lease was
// revoked (expired and reassigned) or already completed, telling the
// worker its chunk now belongs to someone else.
func (lt *leaseTable) Heartbeat(id uint64) bool {
	l, ok := lt.active[id]
	if !ok {
		return false
	}
	if lt.now().After(l.Deadline) {
		// Expired but not yet reclaimed: treat the late heartbeat as
		// lost — the chunk must become stealable, not quietly revived.
		lt.pending = append(lt.pending, l.Chunk)
		delete(lt.active, id)
		if lt.onDrop != nil {
			lt.onDrop(*l, "steal")
		}
		return false
	}
	l.Deadline = lt.now().Add(lt.ttl)
	return true
}

// Complete retires a lease, returning it so the caller can verify
// result coverage (and attribute the lease's lifetime); ok is false
// when the lease had already been revoked (harmless — the results were
// still accepted by content address).
func (lt *leaseTable) Complete(id uint64) (lease, bool) {
	l, ok := lt.active[id]
	if !ok {
		return lease{}, false
	}
	delete(lt.active, id)
	return *l, true
}

// Requeue returns a chunk to the pending queue — the coverage
// backstop for a COMPLETE whose results did not all arrive.
func (lt *leaseTable) Requeue(c chunk) {
	lt.pending = append(lt.pending, c)
}

// RequeueAvoiding returns a failed chunk to the pending queue,
// withholding it from the failing worker for one TTL so the retry
// lands on a different host whenever one frees up in time.
func (lt *leaseTable) RequeueAvoiding(c chunk, worker string) {
	if lt.avoid == nil {
		lt.avoid = map[chunk]avoidEntry{}
	}
	lt.avoid[c] = avoidEntry{worker: worker, until: lt.now().Add(lt.ttl)}
	lt.pending = append(lt.pending, c)
}

// RevokeConn returns every lease held by a disconnected worker's
// connection to the pending queue — immediate reassignment instead of
// waiting out the TTL when the death is observable as an EOF.
func (lt *leaseTable) RevokeConn(connID uint64) int {
	var revoked []uint64
	for id, l := range lt.active {
		if l.ConnID == connID {
			revoked = append(revoked, id)
		}
	}
	slices.Sort(revoked)
	for _, id := range revoked {
		l := lt.active[id]
		lt.pending = append(lt.pending, l.Chunk)
		delete(lt.active, id)
		if lt.onDrop != nil {
			lt.onDrop(*l, "revoke")
		}
	}
	return len(revoked)
}

// Outstanding removes and returns every still-active lease in grant
// order — the coordinator's teardown uses it to close the trace spans
// of stragglers whose chunks completed through another lease.
func (lt *leaseTable) Outstanding() []lease {
	ids := make([]uint64, 0, len(lt.active))
	for id := range lt.active {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]lease, 0, len(ids))
	for _, id := range ids {
		out = append(out, *lt.active[id])
		delete(lt.active, id)
	}
	return out
}

// Counts reports the pending-chunk and active-lease totals — the
// scheduling summary /status renders. Expired leases are not reclaimed
// here: a status read must never perturb scheduling.
func (lt *leaseTable) Counts() (pending, active int) {
	return len(lt.pending), len(lt.active)
}

// chunked splits each job's trial list into ≤ size chunks, in job
// order then index order, leaving out every trial that already has a
// result in done (indexed like jobs): a grid chunk with covered trials
// becomes the runs of its uncovered ones, so the grid — and with it
// every chunk of a sweep without prior results — stays the same. The
// chunking affects only scheduling granularity, never results: every
// trial without a result appears in exactly one chunk.
func chunked(jobs []CoordJob, size int, done []map[int]any) []chunk {
	if size < 1 {
		size = 1
	}
	var out []chunk
	for j, job := range jobs {
		has := func(i int) bool { _, ok := done[j][i]; return ok }
		for lo := 0; lo < len(job.Trials); lo += size {
			hi := min(lo+size, len(job.Trials))
			for i := lo; i < hi; {
				for i < hi && has(i) {
					i++
				}
				start := i
				for i < hi && !has(i) {
					i++
				}
				if start < i {
					out = append(out, chunk{JobIdx: j, Lo: start, Hi: i})
				}
			}
		}
	}
	return out
}
