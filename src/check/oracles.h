// Differential and invariant oracles for the fuzzing subsystem
// (DESIGN.md §10).
//
// Each oracle is a named, self-contained property check over one
// ScenarioSpec: it rebuilds everything it needs from the spec, runs two or
// more independent implementations of the same quantity against each other
// (or an exact conservation identity), and reports the first violated
// property with enough detail to debug. Oracles are pure functions of the
// spec, so a failure replays bit-identically from a repro file.
//
// The registry:
//   mapper_sanity        — permutation validity of every mapper; cost-cache
//                          coherence vs the raw model (eq. 13); incremental
//                          evaluator vs batch evaluate() vs from-scratch
//                          recomputation after a swap storm.
//   global_gapl          — Global solves min g-APL *optimally* (one linear
//                          assignment), so its g-APL must lower-bound every
//                          other mapper's.
//   exact_bound          — on small instances (≤16 tiles) the heuristics'
//                          objectives must upper-bound the branch-and-bound
//                          optimum.
//   hungarian            — warm-started and cold workspace solves and the
//                          one-shot API must all match the O(n!) brute
//                          force on random ≤8×8 cost matrices, and the
//                          workspace must pick exactly the assignment
//                          reference_assignment() picks on tie-heavy
//                          cost-cache, rectangular and warm instances.
//   netsim_conservation  — cycle-level invariants: complete drain, flit
//                          conservation, crossbar/link/buffer identities,
//                          and RouterLoadSummary consistency with the raw
//                          per-router activity counters.
//   netsim_rank          — when the analytic model says Global beats a
//                          random mapping on g-APL by a wide margin, the
//                          measured (cycle-level) g-APL must agree on the
//                          ordering.
//   service_replay       — replays a synthesized churn trace through the
//                          online MappingService: per-event migration-budget
//                          compliance, admission law, occupancy bookkeeping
//                          vs recompute, incremental objective vs the batch
//                          evaluator, lower-bound validity against a fresh
//                          SSS solve, and 1-vs-2-worker decision equality.
//   batch_eval           — every entry point of the shared eq.-5 kernel
//                          (score, score_rows, score_pruned, group
//                          scoring) bit-equal to reference_objective(),
//                          below the cutoff where one is taken; the
//                          evaluator's stored prefixes equal a recompute.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "assign/hungarian.h"
#include "check/scenario.h"
#include "core/cost_cache.h"
#include "core/problem.h"

namespace nocmap::check {

/// Reference eq. 5 objective for the `batch_eval` oracle and the evaluator
/// tests: per application, cost-cache entries summed thread-ascending,
/// (w·Σcost)/Σrate, then the max over applications with traffic. Kept
/// deliberately naive and separate from BatchEvaluator, whose every score
/// must equal it bit-for-bit.
double reference_objective(const ObmProblem& problem,
                           const ThreadCostCache& cache,
                           std::span<const TileId> perm);

/// Reference assignment kernel for the `hungarian` oracle and the kernel
/// tests: the two-pass shortest-augmenting-path loop AssignmentWorkspace
/// ran before its one-pass free-column scan — each path step scans every
/// column (skipping used ones), then updates potentials and minima over
/// every column. The workspace makes the same floating-point operations and
/// the same strict-< lowest-index choices, so fed the same solves it must
/// return this kernel's row_to_col and total_cost exactly; ties are where
/// the two could part. `v` carries the column potentials between calls
/// under the workspace's rule: a warm call on a square instance with the
/// previous call's column count starts from them, any other from zero.
/// Never called from the library itself.
Assignment reference_assignment(const CostView& view, std::vector<double>& v,
                                bool warm);

struct OracleResult {
  bool ok = true;
  /// On failure: which property broke, with the disagreeing values.
  std::string detail;
};

struct Oracle {
  const char* name;
  /// One-line description (--list-oracles, docs).
  const char* what;
  /// Whether the oracle can run on this spec (e.g. exact_bound needs a
  /// small instance, the netsim oracles need a non-torus mesh).
  bool (*applicable)(const ScenarioSpec& spec);
  OracleResult (*run)(const ScenarioSpec& spec);
};

/// Every registered oracle, in a fixed documented order.
std::span<const Oracle> all_oracles();

/// Lookup by name; nullptr when unknown.
const Oracle* find_oracle(std::string_view name);

}  // namespace nocmap::check
