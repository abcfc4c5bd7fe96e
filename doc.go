// Package scalefree reproduces "Non-Searchability of Random Scale-Free
// Graphs" (Duchon, Eggemann, Hanusse; 2007) as a complete Go library.
//
// The repository implements, from scratch and on the standard library
// only:
//
//   - the Móri model of mixed uniform/preferential attachment random
//     trees and its merged m-out graph variant (internal/mori);
//   - the Cooper–Frieze general model of evolving web graphs
//     (internal/cooperfrieze);
//   - the Barabási–Albert model and the Molloy–Reed power-law
//     configuration model used by the related work the paper contrasts
//     against (internal/ba, internal/configmodel);
//   - Kleinberg's navigable small-world grid and its greedy routing
//     (internal/kleinberg);
//   - the Bianconi–Barabási vertex-fitness model and a geometric
//     (spatial) preferential-attachment model, the two workloads the
//     paper's closing remark invites (internal/fitness,
//     internal/geopa), published with every other generator in the
//     pluggable model registry (internal/model);
//   - the weak and strong models of local knowledge and a suite of
//     local search algorithms measured in numbers of oracle requests
//     (internal/search), plus Sarshar-style percolation search
//     (internal/percolation);
//   - the probabilistic vertex-equivalence machinery behind the paper's
//     Ω(√n) lower bounds: the event E_{a,b}, its exact conditional
//     probability, and the Lemma-1 bound |V|·P(E)/2
//     (internal/equivalence, internal/core);
//   - an experiment harness regenerating every quantitative claim as a
//     table: experiments E1–E13 declared as trial plans and executed on
//     a deterministic worker pool (internal/experiment,
//     internal/engine, cmd/experiments).
//
// See DESIGN.md for the system inventory and execution architecture,
// and EXPERIMENTS.md for paper-versus-measured results.
package scalefree
