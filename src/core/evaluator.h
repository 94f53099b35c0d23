// Incremental mapping evaluator: the live state of one mapping.
//
// The sliding-window swap stage of sort-select-swap scores and commits
// window permutations over O(N²) windows; recomputing eq. 5 from scratch
// after each commit would cost O(N). This evaluator keeps the live
// mapping, its inverse and per-application weighted-latency numerators, so
// a move costs O(N/A) — only the affected applications — and a max-APL
// query is O(A). The eq.-5 table (thread ranges, weights, volumes) and the
// weighted-max fold are not its own: it reads them from the BatchEvaluator
// it holds, which also scores window candidates (score_group_candidates).
//
// The evaluator owns a live mapping that always remains a valid permutation:
// mutations are expressed as swaps of two threads' tiles or as group
// re-assignments of a thread set onto the tile set it already occupies.
//
// State purity invariant: after any mutation, each affected application's
// numerator is recomputed from scratch in canonical (thread-ascending)
// order, never updated by adding a delta. The numerators are therefore a
// pure function of the current mapping — bit-identical no matter which
// sequence of swaps produced it. That keeps the parallel SSS sweep exact:
// an apply/revert pair restores the evaluator bit-perfectly (a delta-based
// update would leave (n + d) - d != n rounding residue that accumulates
// with evaluation history), and the numerators equal what the batch kernel
// sums for the same mapping, so score_group_candidates predicts the
// objective() an apply_group would produce to the last bit. The same loop
// stores each thread's canonical prefix (its application's running sum
// before it), from which the window scorer resumes instead of re-adding the
// threads ahead of the window. See DESIGN.md, "Parallelism & determinism".
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/batch_eval.h"
#include "core/cost_cache.h"
#include "core/problem.h"

namespace nocmap {

class MappingEvaluator {
 public:
  /// Takes the problem and the shared eq.-13 cost table (both kept by
  /// reference; they must outlive the evaluator and match each other) and
  /// an initial valid mapping. The cache is read-only here, so any number
  /// of evaluators can share one concurrently.
  MappingEvaluator(const ObmProblem& problem, Mapping initial,
                   const ThreadCostCache& cache);

  const Mapping& mapping() const { return mapping_; }
  /// Thread currently running on `tile`.
  std::size_t thread_on(TileId tile) const { return tile_to_thread_[tile]; }

  double apl(std::size_t app) const;
  /// Max over applications with non-zero traffic; O(A).
  double max_apl() const;
  /// The OBM objective max_i w_i·APL_i; equals max_apl() when the problem
  /// is unweighted. Algorithms minimize this.
  double objective() const;
  double g_apl() const;

  /// Swaps the tiles of threads j1 and j2 (j1 == j2 is a no-op).
  void swap_threads(std::size_t j1, std::size_t j2);

  /// Re-assigns `threads[idx]` to `tiles[idx]` for all idx. The tile set
  /// must equal the set of tiles currently occupied by `threads` (i.e. this
  /// is a permutation within the group), which keeps the mapping valid.
  void apply_group(std::span<const std::size_t> threads,
                   std::span<const TileId> tiles);

  /// Cost contribution of thread j when placed on `tile`
  /// (c_j·TC + m_j·TM, eq. 13).
  double thread_cost(std::size_t j, TileId tile) const {
    return table_.cache().cost(j, tile);
  }

  /// Scores `count` candidate re-assignments of one thread group without
  /// mutating the evaluator (BatchEvaluator::score_group on the live
  /// state): candidate b re-assigns threads[x] to tiles[x·count + b].
  /// out[b] < cutoff is bit-identical to the objective() this evaluator
  /// would report after apply_group(threads, candidate b); out[b] >= cutoff
  /// means that objective is >= cutoff too. Being const, any number of
  /// workers may score windows through one shared evaluator concurrently;
  /// the SSS sweep does.
  void score_group_candidates(std::span<const std::size_t> threads,
                              const TileId* tiles, std::size_t count,
                              double cutoff, std::span<double> out) const {
    table_.score_group(mapping_.thread_to_tile, numerator_, prefix_, threads,
                       tiles, count, cutoff, out);
  }
  /// Objective of the applications owning none of `threads` — a floor
  /// under every score_group_candidates() score for that group.
  double group_floor(std::span<const std::size_t> threads) const {
    return table_.group_floor(numerator_, threads);
  }

  /// Per thread, its application's canonical running sum before it
  /// (BatchEvaluator::numerator); kept in step with the numerators.
  std::span<const double> prefixes() const { return prefix_; }

  /// Recomputes everything from scratch; used by tests to check that the
  /// incremental state never drifts.
  double recomputed_max_apl() const;

 private:
  /// Updates position state only; callers must recompute_app afterwards.
  void place_thread(std::size_t j, TileId tile);
  /// Rebuilds one application's numerator from the live mapping in
  /// canonical thread order (the purity invariant above).
  void recompute_app(std::size_t app);

  const ObmProblem* problem_;
  BatchEvaluator table_;
  Mapping mapping_;
  std::vector<std::size_t> tile_to_thread_;
  std::vector<double> numerator_;  // per app: Σ c_j TC(π(j)) + m_j TM(π(j))
  std::vector<double> prefix_;     // per thread: its app's sum before it
  std::vector<std::size_t> group_apps_;  // apply_group scratch
  double total_volume_ = 0.0;
};

}  // namespace nocmap
