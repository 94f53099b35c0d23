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
    if (app.volume > 0.0) {
      live_.push_back({static_cast<std::uint32_t>(i), app.first, 0.0});
    }
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

double BatchEvaluator::numerator(std::size_t app,
                                 std::span<const TileId> perm,
                                 std::span<double> prefix) const {
  NOCMAP_ASSERT(app < apps_.size() && perm.size() == app_of_.size() &&
                prefix.size() == app_of_.size());
  double sum = 0.0;
  for (std::uint32_t j = apps_[app].first; j < apps_[app].last; ++j) {
    prefix[j] = sum;
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
  for (const Fold& f : live_) {
    best = std::max(best, numerators[f.app] / apps_[f.app].volume);
  }
  return best;
}

double BatchEvaluator::group_floor(std::span<const double> numerators,
                                   std::span<const std::size_t> threads) const {
  double floor = 0.0;
  for (const Fold& f : live_) {
    if (std::any_of(threads.begin(), threads.end(), [&](std::size_t j) {
          return app_of_[j] == f.app;
        })) {
      continue;
    }
    const double apl = apps_[f.app].weighted_apl(numerators[f.app]);
    if (apl > floor) floor = apl;
  }
  return floor;
}

// Every search mapper spends its time in these loops, and their speed moved
// by ~10% with where the linker happened to place them; a fixed 64-byte
// start makes the loop alignment a property of this code, not of the link.
template <bool Pruned, bool Shared, typename TilesOf>
__attribute__((aligned(64))) void BatchEvaluator::score_block(
    std::span<const Fold> folds, double base, std::size_t lanes,
    double cutoff, double* out, const TilesOf& tiles_of) const {
  NOCMAP_ASSERT(lanes <= kMaxLanes);
  double worst[kMaxLanes];
  double acc[kMaxLanes];
  for (std::size_t b = 0; b < lanes; ++b) worst[b] = base;
  for (const Fold& f : folds) {
    const AppSlice& app = apps_[f.app];
    for (std::size_t b = 0; b < lanes; ++b) acc[b] = f.sum;
    for (std::uint32_t j = f.from; j < app.last; ++j) {
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
                                 std::span<const double> prefix,
                                 std::span<const std::size_t> threads,
                                 const TileId* tiles, std::size_t count,
                                 double cutoff, std::span<double> out) const {
  NOCMAP_REQUIRE(live.size() == num_threads() &&
                     numerators.size() == apps_.size() &&
                     prefix.size() == num_threads(),
                 "live state does not match the problem");
  NOCMAP_REQUIRE(threads.size() <= kMaxGroup, "thread group too large");
  NOCMAP_REQUIRE(out.size() >= count, "score output span too small");
  // The untouched applications contribute the same term to every
  // candidate; when it alone reaches the cutoff, so does every score.
  const double base = group_floor(numerators, threads);
  if (base >= cutoff) {
    std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(count),
              base);
    return;
  }
  // The touched applications with traffic, each from its first group
  // thread on, worst-first: the application holding the objective up is
  // the likeliest to push a lane over the cutoff early.
  Fold folds[kMaxGroup];
  std::size_t num_folds = 0;
  for (const std::size_t j : threads) {
    const std::uint32_t i = app_of_[j];
    if (!(apps_[i].volume > 0.0)) continue;
    Fold* f = std::find_if(folds, folds + num_folds,
                           [i](const Fold& g) { return g.app == i; });
    if (f == folds + num_folds) {
      *f = {i, static_cast<std::uint32_t>(j), 0.0};
      ++num_folds;
    } else {
      f->from = std::min(f->from, static_cast<std::uint32_t>(j));
    }
  }
  for (Fold& f : std::span(folds, num_folds)) f.sum = prefix[f.from];
  std::sort(folds, folds + num_folds, [&](const Fold& a, const Fold& b) {
    const double wa = apps_[a.app].weighted_apl(numerators[a.app]);
    const double wb = apps_[b.app].weighted_apl(numerators[b.app]);
    return wa != wb ? wa > wb : a.app < b.app;
  });

  // One wide block: per block every thread resolves its group membership,
  // which costs more than the finer pruning of narrower blocks saves (an
  // SSS window's 23 candidates measured ~1.5x faster in one block than in
  // three of kPruneLanes).
  for (std::size_t b0 = 0; b0 < count; b0 += kMaxLanes) {
    const std::size_t lanes = std::min(kMaxLanes, count - b0);
    score_block<true, true>(
        std::span<const Fold>(folds, num_folds), base, lanes, cutoff,
        out.data() + b0, [&](std::uint32_t j) {
          // Group membership resolved once per thread, shared by all lanes.
          for (std::size_t x = 0; x < threads.size(); ++x) {
            if (threads[x] == j) return LaneTiles{tiles + x * count + b0, 1};
          }
          return LaneTiles{&live[j], 0};
        });
  }
}

}  // namespace nocmap
