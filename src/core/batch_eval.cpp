#include "core/batch_eval.h"

#include <algorithm>
#include <vector>

namespace nocmap {

void CandidateBatch::load(std::size_t lane, std::span<const TileId> perm) {
  NOCMAP_REQUIRE(lane < capacity_, "candidate lane out of range");
  NOCMAP_REQUIRE(perm.size() == num_threads_,
                 "candidate arity does not match the batch");
  for (std::size_t j = 0; j < num_threads_; ++j) {
    tiles_[j * capacity_ + lane] = perm[j];
  }
}

void CandidateBatch::extract(std::size_t lane, std::span<TileId> perm) const {
  NOCMAP_REQUIRE(lane < capacity_, "candidate lane out of range");
  NOCMAP_REQUIRE(perm.size() == num_threads_,
                 "candidate arity does not match the batch");
  for (std::size_t j = 0; j < num_threads_; ++j) {
    perm[j] = tiles_[j * capacity_ + lane];
  }
}

BatchEvaluator::BatchEvaluator(const ObmProblem& problem,
                               const ThreadCostCache& cache)
    : cache_(&cache) {
  NOCMAP_REQUIRE(cache.num_threads() == problem.num_threads() &&
                     cache.num_tiles() == problem.num_tiles(),
                 "cost cache does not match the problem");
  const Workload& wl = problem.workload();
  apps_.resize(wl.num_applications());
  app_of_.resize(wl.num_threads());
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    AppSlice& app = apps_[i];
    app.first = static_cast<std::uint32_t>(wl.first_thread(i));
    app.last = static_cast<std::uint32_t>(wl.last_thread(i));
    app.weight = problem.app_weight(i);
    // Thread-ascending summation (the cache's prefix sums round
    // differently).
    for (std::uint32_t j = app.first; j < app.last; ++j) {
      app.volume += cache.rate(j);
      app_of_[j] = static_cast<std::uint32_t>(i);
    }
    // Applications without traffic have no APL and never reach the fold.
    if (app.volume > 0.0) live_.push_back(static_cast<std::uint32_t>(i));
  }
}

double BatchEvaluator::numerator(std::size_t app,
                                 std::span<const TileId> perm) const {
  NOCMAP_ASSERT(app < apps_.size() && perm.size() == app_of_.size());
  double sum = 0.0;
  for (std::uint32_t j = apps_[app].first; j < apps_[app].last; ++j) {
    sum += cache_->cost(j, perm[j]);
  }
  return sum;
}

double BatchEvaluator::apl(std::size_t app, double numerator) const {
  NOCMAP_REQUIRE(app < apps_.size(), "application index out of range");
  return apps_[app].volume > 0.0 ? numerator / apps_[app].volume : 0.0;
}

double BatchEvaluator::max_apl(std::span<const double> numerators) const {
  double best = 0.0;
  for (const std::uint32_t i : live_) {
    best = std::max(best, numerators[i] / apps_[i].volume);
  }
  return best;
}

// Every search mapper spends its time in these loops, and their speed moved
// by ~10% with where the linker happened to place them; a fixed 64-byte
// start makes the loop alignment a property of this code, not of the link.
template <bool Pruned, bool Shared, typename TilesOf>
__attribute__((aligned(64))) void BatchEvaluator::score_block(std::span<const std::uint32_t> apps,
                                 double base, std::size_t lanes,
                                 double cutoff, double* out,
                                 const TilesOf& tiles_of) const {
  NOCMAP_ASSERT(lanes <= kMaxLanes);
  double worst[kMaxLanes];
  double acc[kMaxLanes];
  for (std::size_t b = 0; b < lanes; ++b) worst[b] = base;
  for (const std::uint32_t i : apps) {
    const AppSlice& app = apps_[i];
    for (std::size_t b = 0; b < lanes; ++b) acc[b] = 0.0;
    for (std::uint32_t j = app.first; j < app.last; ++j) {
      const double* row = cache_->row(j);
      const LaneTiles t = tiles_of(j);
      if (Shared && t.stride == 0) {
        const double c = row[t.tiles[0]];
        for (std::size_t b = 0; b < lanes; ++b) acc[b] += c;
        continue;
      }
      for (std::size_t b = 0; b < lanes; ++b) {
        acc[b] += row[t.tiles[b * t.stride]];
      }
    }
    for (std::size_t b = 0; b < lanes; ++b) {
      const double apl = app.weighted_apl(acc[b]);
      if (apl > worst[b]) worst[b] = apl;
    }
    if constexpr (Pruned) {
      // The per-lane max only grows with later applications, so once every
      // lane has reached the cutoff none of them can come back under it.
      double live = worst[0];
      for (std::size_t b = 1; b < lanes; ++b) live = std::min(live, worst[b]);
      if (live >= cutoff) break;
    }
  }
  for (std::size_t b = 0; b < lanes; ++b) out[b] = worst[b];
}

void BatchEvaluator::score(const CandidateBatch& batch, std::size_t count,
                           std::span<double> out) const {
  NOCMAP_REQUIRE(batch.num_threads() == num_threads(),
                 "batch arity does not match the problem");
  NOCMAP_REQUIRE(count <= batch.capacity() && out.size() >= count,
                 "batch score count out of range");
  for (std::size_t b0 = 0; b0 < count; b0 += kMaxLanes) {
    const std::size_t lanes = std::min(kMaxLanes, count - b0);
    score_block<false, false>(live_, 0.0, lanes, 0.0, out.data() + b0,
                              [&batch, b0](std::uint32_t j) {
                                return LaneTiles{batch.lane_row(j) + b0, 1};
                              });
  }
}

void BatchEvaluator::score_pruned(const CandidateBatch& batch,
                                  std::size_t count, double cutoff,
                                  std::span<double> out) const {
  NOCMAP_REQUIRE(batch.num_threads() == num_threads(),
                 "batch arity does not match the problem");
  NOCMAP_REQUIRE(count <= batch.capacity() && out.size() >= count,
                 "batch score count out of range");
  for (std::size_t b0 = 0; b0 < count; b0 += kPruneLanes) {
    const std::size_t lanes = std::min(kPruneLanes, count - b0);
    score_block<true, false>(live_, 0.0, lanes, cutoff, out.data() + b0,
                             [&batch, b0](std::uint32_t j) {
                               return LaneTiles{batch.lane_row(j) + b0, 1};
                             });
  }
}

void BatchEvaluator::score_rows(const TileId* rows, std::size_t stride,
                                std::size_t count,
                                std::span<double> out) const {
  NOCMAP_REQUIRE(stride >= num_threads(),
                 "candidate row stride shorter than the thread count");
  NOCMAP_REQUIRE(out.size() >= count, "batch score count out of range");
  for (std::size_t b0 = 0; b0 < count; b0 += kMaxLanes) {
    const std::size_t lanes = std::min(kMaxLanes, count - b0);
    score_block<false, false>(live_, 0.0, lanes, 0.0, out.data() + b0,
                              [rows, stride, b0](std::uint32_t j) {
                                return LaneTiles{rows + b0 * stride + j,
                                                 stride};
                              });
  }
}

void BatchEvaluator::score_group(std::span<const TileId> live,
                                 std::span<const double> numerators,
                                 std::span<const std::size_t> threads,
                                 const TileId* tiles, std::size_t count,
                                 std::span<double> out) const {
  NOCMAP_REQUIRE(live.size() == num_threads() &&
                     numerators.size() == apps_.size(),
                 "live state does not match the problem");
  NOCMAP_REQUIRE(out.size() >= count, "score output span too small");
  // Applications with traffic owning a group thread, ascending and
  // deduplicated; the rest contribute the same term to every candidate,
  // folded once.
  std::vector<std::uint32_t> touched;
  touched.reserve(threads.size());
  for (const std::size_t j : threads) {
    if (apps_[app_of_[j]].volume > 0.0) touched.push_back(app_of_[j]);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  const double base = objective(numerators, touched);

  for (std::size_t b0 = 0; b0 < count; b0 += kMaxLanes) {
    const std::size_t lanes = std::min(kMaxLanes, count - b0);
    score_block<false, true>(
        touched, base, lanes, 0.0, out.data() + b0,
        [&](std::uint32_t j) {
          // Group membership resolved once per thread, shared by all lanes.
          for (std::size_t x = 0; x < threads.size(); ++x) {
            if (threads[x] == j) return LaneTiles{tiles + x * count + b0, 1};
          }
          return LaneTiles{&live[j], 0};
        });
  }
}

}  // namespace nocmap
