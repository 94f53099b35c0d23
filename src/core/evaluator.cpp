#include "core/evaluator.h"

#include <algorithm>

#include "core/metrics.h"

namespace nocmap {

MappingEvaluator::MappingEvaluator(const ObmProblem& problem, Mapping initial,
                                   const ThreadCostCache& cache)
    : problem_(&problem), table_(problem, cache), mapping_(std::move(initial)) {
  NOCMAP_REQUIRE(mapping_.is_valid_permutation(problem.num_threads()),
                 "initial mapping must be a valid permutation");
  tile_to_thread_.assign(problem.num_tiles(), 0);
  for (std::size_t j = 0; j < mapping_.size(); ++j) {
    tile_to_thread_[mapping_.tile_of(j)] = j;
  }
  numerator_.assign(table_.apps().size(), 0.0);
  prefix_.assign(problem.num_threads(), 0.0);
  for (std::size_t i = 0; i < numerator_.size(); ++i) {
    recompute_app(i);
    total_volume_ += table_.apps()[i].volume;
  }
}

double MappingEvaluator::apl(std::size_t app) const {
  NOCMAP_REQUIRE(app < numerator_.size(), "application index out of range");
  return table_.apl(app, numerator_[app]);
}

double MappingEvaluator::max_apl() const { return table_.max_apl(numerator_); }

double MappingEvaluator::objective() const {
  return table_.objective(numerator_);
}

double MappingEvaluator::g_apl() const {
  if (total_volume_ <= 0.0) return 0.0;
  double total_numerator = 0.0;
  for (const double n : numerator_) total_numerator += n;
  return total_numerator / total_volume_;
}

void MappingEvaluator::place_thread(std::size_t j, TileId tile) {
  mapping_.thread_to_tile[j] = tile;
  tile_to_thread_[tile] = j;
}

void MappingEvaluator::recompute_app(std::size_t app) {
  numerator_[app] = table_.numerator(app, mapping_.thread_to_tile, prefix_);
}

void MappingEvaluator::swap_threads(std::size_t j1, std::size_t j2) {
  NOCMAP_REQUIRE(j1 < mapping_.size() && j2 < mapping_.size(),
                 "thread index out of range");
  if (j1 == j2) return;
  const TileId t1 = mapping_.tile_of(j1);
  const TileId t2 = mapping_.tile_of(j2);
  place_thread(j1, t2);
  place_thread(j2, t1);
  const std::size_t a1 = table_.app_of(j1);
  const std::size_t a2 = table_.app_of(j2);
  recompute_app(std::min(a1, a2));
  if (a1 != a2) recompute_app(std::max(a1, a2));
}

void MappingEvaluator::apply_group(std::span<const std::size_t> threads,
                                   std::span<const TileId> tiles) {
  NOCMAP_REQUIRE(threads.size() == tiles.size(),
                 "group thread/tile arity mismatch");
#ifndef NDEBUG
  // The tile multiset must equal the tiles the group currently occupies,
  // otherwise the permutation would break.
  std::vector<TileId> held;
  held.reserve(threads.size());
  for (std::size_t j : threads) held.push_back(mapping_.tile_of(j));
  std::vector<TileId> target(tiles.begin(), tiles.end());
  std::sort(held.begin(), held.end());
  std::sort(target.begin(), target.end());
  NOCMAP_ASSERT(held == target);
#endif
  // Collect the affected applications, then recompute each once in
  // ascending order (the order is fixed so the result is too).
  group_apps_.clear();
  for (std::size_t idx = 0; idx < threads.size(); ++idx) {
    place_thread(threads[idx], tiles[idx]);
    group_apps_.push_back(table_.app_of(threads[idx]));
  }
  std::sort(group_apps_.begin(), group_apps_.end());
  group_apps_.erase(std::unique(group_apps_.begin(), group_apps_.end()),
                    group_apps_.end());
  for (const std::size_t app : group_apps_) recompute_app(app);
}

double MappingEvaluator::recomputed_max_apl() const {
  return evaluate(*problem_, mapping_).max_apl;
}

}  // namespace nocmap
