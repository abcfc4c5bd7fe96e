// Package sweep is the distribution and persistence layer over the
// trial engine: it turns a plan's flat trial list into work that can be
// split across processes or machines, persisted trial-by-trial, and
// reassembled into the exact positional result slice a single-process
// run would have produced.
//
// Four cooperating parts:
//
//   - A trial-result codec (codec.go): a versioned, deterministic
//     binary encoding for the `any`-typed values trial functions
//     return. Experiments register their concrete result types once
//     (RegisterResult) under stable wire names; encoding is then exact
//     — every float crosses the wire as its IEEE-754 bits, so decoded
//     results are bit-identical to in-memory ones and reductions over
//     them render byte-identical tables.
//
//   - A content-addressed result cache (cache.go): completed trial
//     results stored on disk under a key derived from (experiment ID,
//     plan fingerprint, trial key, trial seed, codec version). Trials
//     are pure functions of their seeds, so a cache hit is always
//     valid; interrupted sweeps resume trial-by-trial and unchanged
//     experiments re-reduce without re-executing anything. It is the
//     one resume mechanism: Execute and Coordinate read and write the
//     same entries.
//
//   - A shard dispatcher (shard.go, shardfile.go, exec.go): a
//     ShardSpec deterministically partitions a plan's trials into k
//     disjoint strided subsets, Execute runs one subset on the engine
//     (consulting the cache per trial), WriteShardFile persists the
//     positional results of a shard, and Merge reassembles the full
//     result slice from any complete set of shard files so the plan's
//     Reduce runs exactly once.
//
//   - A work-stealing coordinator (coordinator.go, worker.go, lease.go,
//     wire.go): instead of the static i-mod-k partition, Coordinate
//     serves a plan's trials to live RunWorker processes as small
//     leased chunks over a line-oriented TCP protocol. Leases carry
//     heartbeat deadlines; a dead worker's chunk is reassigned, a
//     dropped connection's chunks return immediately, and duplicate
//     completions are resolved by comparing encoded bytes — so uneven
//     trial mixes balance themselves and a machine loss costs at most
//     one undelivered chunk (zero, when workers share a cache). With a
//     cache of its own, the coordinator persists every result it
//     accepts, and a restart on that cache leases only what is missing.
//
// The invariant the whole package is built around: for a fixed
// (experiment, Config), any execution strategy — one process, k
// processes, k machines, interrupted and resumed, fully cached — must
// yield the same positional result slice, and therefore byte-identical
// rendered tables. The engine already guarantees this across worker
// counts; sweep extends the guarantee across process boundaries and
// time.
package sweep
