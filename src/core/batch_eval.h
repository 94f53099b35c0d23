// The one eq.-5 scorer: the per-application table and the lane kernel
// every mapper's objective goes through.
//
// Eq. 5 per application i is Σ_j cost(j, π(j)) / Σ_j (c_j + m_j) over its
// threads, and the OBM objective (eqs. 6–7) is the weighted max over
// applications. BatchEvaluator owns the table that reduction needs —
// thread range, service weight, traffic volume (summed thread-ascending
// from the cost cache's rates; applications without traffic are never
// folded) — and the one kernel that folds it. MappingEvaluator, the GA's
// delta-tracked fitness, the annealer's max-APL chain and the exact solver
// all read their slices, thread→application lookup and fold from here.
//
// Scored one candidate at a time the reduction is latency-bound: each +=
// waits ~4 cycles on the previous one, and the cost row pointer chases the
// candidate's tiles. The kernel instead scores a block of lanes per pass,
// thread-outer and lane-inner, over *transposed* candidate storage
// (CandidateBatch: tiles[j·K + b] = candidate b's tile for thread j), so it
// makes ONE contiguous pass over the padded cost rows with K independent
// accumulators. The inner loop is a contiguous gather-and-add with no
// cross-iteration dependence, which the compiler auto-vectorizes and the
// core overlaps — ~6× per candidate versus the scalar loop at K ≥ 8.
//
// Bit-identity contract: every entry point performs the same floating-point
// operations in the same order — per application, costs added
// thread-ascending; each term (w·Σcost)/Σrate; max over applications — so
// a score does not depend on the entry point, the lane count or the block
// it landed in. The `batch_eval` fuzz oracle and
// tests/test_evaluator_batch.cpp hold every entry point to exact equality
// with an independent reference reduction (check::reference_objective).
//
// score_pruned() adds the Monte-Carlo search refinement: given a cutoff
// (the best objective seen so far), a sub-block of candidates whose partial
// weighted-max already reaches the cutoff after some application can never
// win, so the remaining applications are skipped. Pruning is exact: a lane
// returns either its bit-identical full score (when that score < cutoff) or
// a partial max that is provably >= cutoff.
//
// score_group() is the SSS window scorer, under the same cutoff contract:
// candidates re-assign a few threads on top of a live mapping, so only the
// applications owning those threads are re-summed (window threads read the
// candidate's tile, all others the live tile) and the untouched
// applications are folded once from their stored numerators
// (group_floor()). When that floor already reaches the cutoff no candidate
// can win and nothing is summed; otherwise the touched applications are
// folded worst-first with the pruned break, and each starts from the live
// mapping's canonical prefix at its first group thread — the same leading
// adds a sum from 0.0 would make, so the scores stay bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/cost_cache.h"
#include "core/problem.h"

namespace nocmap {

/// Transposed (tile-major) storage for a batch of candidate mappings:
/// lane b of K holds one thread→tile permutation, stored so that all lanes'
/// tiles for one thread are contiguous. Mappers that generate candidates
/// in place (the Monte-Carlo shuffle) write through at(); callers with
/// candidate-major data use load()/extract().
class CandidateBatch {
 public:
  CandidateBatch(std::size_t num_threads, std::size_t capacity)
      : num_threads_(num_threads), capacity_(capacity),
        tiles_(num_threads * capacity) {}

  std::size_t num_threads() const { return num_threads_; }
  std::size_t capacity() const { return capacity_; }

  TileId& at(std::size_t thread, std::size_t lane) {
    NOCMAP_ASSERT(thread < num_threads_ && lane < capacity_);
    return tiles_[thread * capacity_ + lane];
  }
  TileId at(std::size_t thread, std::size_t lane) const {
    NOCMAP_ASSERT(thread < num_threads_ && lane < capacity_);
    return tiles_[thread * capacity_ + lane];
  }

  /// All lanes' tiles for one thread (capacity() entries, contiguous).
  const TileId* lane_row(std::size_t thread) const {
    NOCMAP_ASSERT(thread < num_threads_);
    return &tiles_[thread * capacity_];
  }
  TileId* lane_row(std::size_t thread) {
    NOCMAP_ASSERT(thread < num_threads_);
    return &tiles_[thread * capacity_];
  }

  /// Scatters a candidate-major permutation into lane b.
  void load(std::size_t lane, std::span<const TileId> perm);
  /// Gathers lane b back out as a candidate-major permutation.
  void extract(std::size_t lane, std::span<TileId> perm) const;

 private:
  std::size_t num_threads_;
  std::size_t capacity_;
  std::vector<TileId> tiles_;  // [thread][lane]
};

class BatchEvaluator {
 public:
  /// Lanes scored per internal pass; score()/score_rows() accept any count
  /// and loop over sub-blocks of this width on the stack.
  static constexpr std::size_t kMaxLanes = 128;
  /// Sub-block width used by score_pruned: narrower blocks prune earlier
  /// (a block skips an application only once every live lane is over the
  /// cutoff), and 8 doubles still fill a vector register file.
  static constexpr std::size_t kPruneLanes = 8;
  /// Largest thread group score_group() accepts.
  static constexpr std::size_t kMaxGroup = 16;

  /// One application's row of the eq.-5 table.
  struct AppSlice {
    std::uint32_t first = 0;  // global thread range [first, last)
    std::uint32_t last = 0;
    double weight = 1.0;
    double volume = 0.0;  // Σ rate, summed thread-ascending

    /// The application's term of the objective: w·APL, with the
    /// association every score uses. Only meaningful when volume > 0.
    double weighted_apl(double numerator) const {
      return weight * numerator / volume;
    }
  };

  /// Problem and cache are kept by reference and must outlive the
  /// evaluator. The evaluator is immutable after construction, so any
  /// number of workers may score through it concurrently.
  BatchEvaluator(const ObmProblem& problem, const ThreadCostCache& cache);

  std::size_t num_threads() const { return app_of_.size(); }
  const ThreadCostCache& cache() const { return *cache_; }

  /// The table, one slice per application in workload order.
  std::span<const AppSlice> apps() const { return apps_; }
  /// Application owning each global thread.
  std::span<const std::uint32_t> thread_apps() const { return app_of_; }
  std::size_t app_of(std::size_t thread) const { return app_of_[thread]; }

  /// Σ cost(j, perm[j]) over the application's threads, thread-ascending:
  /// the canonical eq.-5 numerator.
  double numerator(std::size_t app, std::span<const TileId> perm) const;
  /// numerator(), also writing each of the application's threads' canonical
  /// prefix: prefix[j] is the running sum before thread j's cost is added
  /// (0.0 at the first thread). score_group() starts from these.
  double numerator(std::size_t app, std::span<const TileId> perm,
                   std::span<double> prefix) const;
  /// APL of one application from its numerator; 0 without traffic.
  double apl(std::size_t app, double numerator) const;
  /// Max APL over applications with traffic (unweighted).
  double max_apl(std::span<const double> numerators) const;
  /// The OBM objective max_i w_i·APL_i over applications with traffic.
  /// Inline: the GA folds every offspring's tracked numerators through it.
  double objective(std::span<const double> numerators) const {
    double worst = 0.0;
    for (const Fold& f : live_) {
      const double apl = apps_[f.app].weighted_apl(numerators[f.app]);
      if (apl > worst) worst = apl;
    }
    return worst;
  }
  /// The objective over the applications with traffic that own none of
  /// `threads`: a floor under the score of every re-assignment of that
  /// group (score_group()).
  double group_floor(std::span<const double> numerators,
                     std::span<const std::size_t> threads) const;

  /// Scores lanes [0, count) of the batch: out[b] is the OBM objective of
  /// lane b's permutation.
  void score(const CandidateBatch& batch, std::size_t count,
             std::span<double> out) const;

  /// Like score(), but skips the tail of any kPruneLanes sub-block whose
  /// lanes have all reached `cutoff`. Post-condition per lane:
  /// out[b] < cutoff implies out[b] is the exact (bit-identical) score;
  /// out[b] >= cutoff implies the true score is also >= cutoff.
  void score_pruned(const CandidateBatch& batch, std::size_t count,
                    double cutoff, std::span<double> out) const;

  /// Scores `count` candidate-major permutations stored in consecutive
  /// rows: candidate b's tile for thread j is rows[b·stride + j]. Used
  /// where candidates already live candidate-major (the GA's genome pool)
  /// so no transpose is paid; one row scores a single mapping.
  void score_rows(const TileId* rows, std::size_t stride, std::size_t count,
                  std::span<double> out) const;

  /// Scores `count` candidate re-assignments of one thread group (at most
  /// kMaxGroup threads) on top of the mapping `live`, whose per-application
  /// numerators and per-thread prefixes are `numerators` and `prefix`
  /// (canonical, see numerator()). All candidates share the thread set:
  /// candidate b re-assigns threads[x] to tiles[x·count + b] (transposed,
  /// one contiguous row of candidate tiles per group position). Each
  /// application owning a group thread is re-summed in canonical order with
  /// the candidate's tiles substituted, never by delta arithmetic. Same
  /// post-condition as score_pruned: out[b] < cutoff implies out[b] is the
  /// exact objective of `live` with candidate b applied; out[b] >= cutoff
  /// implies that objective is also >= cutoff. An infinite cutoff scores
  /// every candidate exactly.
  void score_group(std::span<const TileId> live,
                   std::span<const double> numerators,
                   std::span<const double> prefix,
                   std::span<const std::size_t> threads, const TileId* tiles,
                   std::size_t count, double cutoff,
                   std::span<double> out) const;

 private:
  /// One thread's tiles across the lanes of a block: lane b reads
  /// tiles[b·stride]; stride 0 means every lane shares tiles[0].
  struct LaneTiles {
    const TileId* tiles;
    std::size_t stride;
  };

  /// One application for the lane kernel: its threads from `from` to the
  /// end of its range are added onto `sum`, the canonical prefix of the
  /// threads before `from` (0.0 when `from` is its first thread).
  struct Fold {
    std::uint32_t app;
    std::uint32_t from;
    double sum;
  };

  /// The lane kernel: folds `folds` (applications with traffic) into
  /// out[b] = max(base, max_i w_i·APL_i of lane b), reading lane b's tile
  /// for thread j through tiles_of(j). `Shared` enables the stride-0
  /// broadcast path; without it the per-thread body stays branch-free,
  /// which lets the compiler jam consecutive threads into one lane pass.
  template <bool Pruned, bool Shared, typename TilesOf>
  void score_block(std::span<const Fold> folds, double base,
                   std::size_t lanes, double cutoff, double* out,
                   const TilesOf& tiles_of) const;

  const ThreadCostCache* cache_;
  std::vector<AppSlice> apps_;         // every application
  std::vector<Fold> live_;             // applications with volume > 0, whole
  std::vector<std::uint32_t> app_of_;  // thread -> application
};

}  // namespace nocmap
