// Package compress implements the round-compressed variant of Algorithm 2:
// the same phase driver as the native solver (core.RunCompressed runs it
// on the compressed round plan), with each phase collapsed from five
// accounted MPC cluster rounds to three by dropping the two
// degree-aggregation rounds — the driver computes the average residual
// degree, and the home machines piggyback their nonfrozen edge counts on
// the scatter round so the aggregate stays load-bearing. All k simulated
// LOCAL rounds of a phase then ride on 3 communication rounds instead of 5
// (the Assadi-style round-compression currency: simulated LOCAL rounds per
// MPC round rises by 5/3 while each group's induced neighborhood still
// fits one machine's memory).
//
// Each compressed MPC round:
//
//  1. samples the high-degree vertices into machine-sized groups with a
//     seeded, replica-deterministic hash (rng.ChooseAt);
//  2. gathers each group's induced neighborhood state — residual weights
//     and co-located edges with their initial duals — into one machine via
//     the zero-allocation arena, charging the materialized instance against
//     the per-machine budget s; a partition whose largest group would not
//     fit is split (group count doubled, partition redrawn) before any
//     message is staged;
//  3. locally runs k simulated LOCAL rounds of the GhaffariJN20 phase
//     logic inside that machine — k itself is capped by the estimator's
//     deviation budget (raising it past the native iteration formula
//     measurably inflates the feasibility-violation factor; see
//     Params.LocalRounds), which is exactly why the win is taken on the
//     round bill rather than on k;
//  4. scatters the updated freeze/dual state back to the vertex home
//     machines and reconciles globally (Lines 2h–2k) in the shared driver.
//
// This package maps Params onto the driver, fills Result's per-round
// LocalRounds and Groups from the phase statistics, and, when splitting
// cannot make a phase fit, restarts the whole solve on the native round
// structure (core.Run). Because the reconcile step is the native solver's
// own, the dual certificate quality is unchanged: the returned duals
// rescale to exact feasibility on the original graph via
// core.Result.FeasibleDual. What changes is the round bill — 3·phases+1
// accounted rounds instead of 5·phases+1. Progress is observable through
// the standard round/phase events plus solver.KindCompress, which carries
// the simulated-LOCAL-round count of each compressed round.
package compress
