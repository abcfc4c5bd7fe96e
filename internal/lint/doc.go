// Package lint is sflint: a suite of static analyzers that prove the
// repository's determinism, hot-path, and registration invariants at
// compile time (DESIGN.md §10).
//
// The golden runtime tests (byte-identical tables for any
// workers/shards/coordinator configuration) catch determinism
// violations only on the code paths a test happens to exercise; the
// analyzers here check the *argument* instead of one schedule, the
// same discipline the paper applies to its schedule-independence
// proofs. Three analyzers ship:
//
//   - determinism: on the deterministic side of the DESIGN.md §9
//     boundary, forbids wall-clock reads (time.Now/Since/Until),
//     global math/rand, environment reads, and map iteration whose
//     results can leak iteration order into return values or output.
//     The nondeterministic side opts out with //sf:wallclock.
//   - hotpath: functions annotated //sf:hotpath may not contain
//     appends to unpreallocated local slices, closure allocations,
//     fmt calls, or interface-boxing conversions — the explained,
//     source-located form of the AllocsPerRun pins.
//   - codecreg: every exported *Result wire type in package
//     experiment must be registered with sweep.RegisterResult, and
//     every model Family's Build hook must read exactly the
//     parameters the family declares.
//
// The annotations are //sf:wallclock and //sf:hotpath; any other //sf:
// keyword is a load error, so a misspelled directive cannot silently
// turn its check off. Suppressions require //sflint:ignore <analyzer>
// <reason>; a missing reason, an unknown analyzer name, or a stale
// ignore (one matching no diagnostic) fails the run, so the
// suppression list can only shrink.
//
// Everything is built on the standard library's go/parser and
// go/types (no golang.org/x/tools dependency): Load type-checks the
// module's packages with a chained importer — module-internal paths
// from source in dependency order, standard-library paths through
// importer.ForCompiler(fset, "source", nil).
package lint
