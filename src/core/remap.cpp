#include "core/remap.h"

#include <algorithm>
#include <vector>

#include "assign/hungarian.h"

namespace nocmap {

namespace {

/// Scratch one remap reuses across its penalty steps. Every solve runs
/// cold, so reuse changes no result, only the allocations.
struct TileSetScratch {
  AssignmentWorkspace ws;
  std::vector<double> cost;
  std::vector<TileId> tiles;
};

/// Stage 2 of the migration-aware remap: within each application, assign
/// threads onto the fresh tile sets with the migration penalty λ folded into
/// the cost (see the header comment). Factored out so remap_budgeted can
/// re-run it under different penalties without repeating the SSS solve.
/// The report is left empty: only the result a remap returns is evaluated.
RemapResult assign_within_tile_sets(const ObmProblem& problem,
                                    const Mapping& fresh,
                                    const Mapping& old_mapping,
                                    double migration_penalty_cycles,
                                    TileSetScratch& scratch) {
  const Workload& wl = problem.workload();
  const TileLatencyModel& model = problem.model();

  RemapResult result;
  result.mapping.thread_to_tile.resize(problem.num_threads());
  std::vector<double>& cost = scratch.cost;
  std::vector<TileId>& tiles = scratch.tiles;
  for (std::size_t a = 0; a < wl.num_applications(); ++a) {
    const std::size_t lo = wl.first_thread(a);
    const std::size_t dn = wl.last_thread(a) - lo;
    tiles.resize(dn);
    for (std::size_t t = 0; t < dn; ++t) {
      tiles[t] = fresh.thread_to_tile[lo + t];
    }

    cost.resize(dn * dn);
    for (std::size_t t = 0; t < dn; ++t) {
      const std::size_t j = lo + t;
      const ThreadProfile& prof = wl.thread(j);
      const bool has_old = j < old_mapping.thread_to_tile.size();
      for (std::size_t k = 0; k < dn; ++k) {
        double c = prof.cache_rate * model.tc(tiles[k]) +
                   prof.memory_rate * model.tm(tiles[k]);
        if (has_old && old_mapping.thread_to_tile[j] != tiles[k]) {
          c += migration_penalty_cycles * prof.total_rate();
        }
        cost[t * dn + k] = c;
      }
    }
    const Assignment& assignment =
        scratch.ws.solve(CostView(cost.data(), dn, dn, dn));
    for (std::size_t t = 0; t < dn; ++t) {
      result.mapping.thread_to_tile[lo + t] =
          tiles[assignment.row_to_col[t]];
    }
  }

  // Count real migrations: zero-rate pad threads are fictitious and move
  // for free.
  result.moved_threads = 0;
  for (std::size_t j = 0; j < problem.num_threads(); ++j) {
    if (wl.thread(j).total_rate() <= 0.0) continue;
    const bool has_old = j < old_mapping.thread_to_tile.size();
    if (!has_old ||
        old_mapping.thread_to_tile[j] != result.mapping.thread_to_tile[j]) {
      ++result.moved_threads;
    }
  }
  return result;
}

/// Fills in the report of the result a remap returns.
RemapResult evaluated(const ObmProblem& problem, RemapResult result) {
  result.report = evaluate(problem, result.mapping);
  return result;
}

/// Real threads whose old tile is absent from their application's fresh
/// tile set: these migrate under *any* penalty, so they lower-bound the
/// move count of every sticky solution.
std::size_t count_forced_moves(const ObmProblem& problem,
                               const Mapping& fresh,
                               const Mapping& old_mapping) {
  const Workload& wl = problem.workload();
  std::size_t forced = 0;
  std::vector<TileId> tiles;
  for (std::size_t a = 0; a < wl.num_applications(); ++a) {
    const std::size_t lo = wl.first_thread(a);
    const std::size_t hi = wl.last_thread(a);
    tiles.assign(fresh.thread_to_tile.begin() +
                     static_cast<std::ptrdiff_t>(lo),
                 fresh.thread_to_tile.begin() +
                     static_cast<std::ptrdiff_t>(hi));
    std::sort(tiles.begin(), tiles.end());
    for (std::size_t j = lo; j < hi; ++j) {
      if (wl.thread(j).total_rate() <= 0.0) continue;
      if (j >= old_mapping.thread_to_tile.size() ||
          !std::binary_search(tiles.begin(), tiles.end(),
                              old_mapping.thread_to_tile[j])) {
        ++forced;
      }
    }
  }
  return forced;
}

}  // namespace

std::size_t count_moved_threads(const Mapping& before, const Mapping& after) {
  const std::size_t overlap =
      std::min(before.thread_to_tile.size(), after.thread_to_tile.size());
  std::size_t moved = 0;
  for (std::size_t j = 0; j < overlap; ++j) {
    if (before.thread_to_tile[j] != after.thread_to_tile[j]) ++moved;
  }
  // Threads with no old position count as moved (they must be placed).
  moved += after.thread_to_tile.size() - overlap;
  return moved;
}

RemapResult remap_balanced(const ObmProblem& problem,
                           const Mapping& old_mapping,
                           double migration_penalty_cycles,
                           const SssOptions& sss_options) {
  NOCMAP_REQUIRE(migration_penalty_cycles >= 0.0,
                 "migration penalty must be non-negative");
  // Stage 1: fresh balanced solution fixes the per-application tile sets.
  SortSelectSwapMapper sss(sss_options);
  const Mapping fresh = sss.map(problem);
  TileSetScratch scratch;
  return evaluated(problem,
                   assign_within_tile_sets(problem, fresh, old_mapping,
                                           migration_penalty_cycles, scratch));
}

BudgetedRemapResult remap_budgeted(const ObmProblem& problem,
                                   const Mapping& old_mapping,
                                   std::size_t max_moved_threads,
                                   const SssOptions& sss_options) {
  NOCMAP_REQUIRE(old_mapping.is_valid_permutation(problem.num_threads()),
                 "budgeted remap needs a valid old mapping to fall back on");
  SortSelectSwapMapper sss(sss_options);
  const Mapping fresh = sss.map(problem);

  BudgetedRemapResult out;
  TileSetScratch scratch;
  RemapResult free_moves =
      assign_within_tile_sets(problem, fresh, old_mapping, 0.0, scratch);
  if (free_moves.moved_threads <= max_moved_threads) {
    out.remap = evaluated(problem, std::move(free_moves));
    return out;
  }

  if (count_forced_moves(problem, fresh, old_mapping) > max_moved_threads) {
    // No penalty can fit the budget: keep everything where it is.
    out.remap.mapping = old_mapping;
    out.remap.moved_threads = 0;
    out.remap.report = evaluate(problem, old_mapping);
    out.reverted_to_old = true;
    return out;
  }

  // Exponential search for a penalty whose sticky solution fits the budget
  // (one exists: forced moves alone fit, and λ → ∞ moves only those).
  double lo = 0.0;
  double hi = 1.0;
  RemapResult at_hi;
  for (;;) {
    at_hi = assign_within_tile_sets(problem, fresh, old_mapping, hi, scratch);
    if (at_hi.moved_threads <= max_moved_threads) break;
    lo = hi;
    hi *= 16.0;
    if (hi > 1e30) {
      // Defensive only: forced moves fit the budget, so a finite penalty
      // always exists; never give back an over-budget result regardless.
      out.remap.mapping = old_mapping;
      out.remap.moved_threads = 0;
      out.remap.report = evaluate(problem, old_mapping);
      out.reverted_to_old = true;
      return out;
    }
  }
  // Bisect to the smallest budget-respecting penalty, so the remap pays no
  // more quality than the budget demands.
  for (int iter = 0; iter < 24; ++iter) {
    const double mid = 0.5 * (lo + hi);
    RemapResult at_mid =
        assign_within_tile_sets(problem, fresh, old_mapping, mid, scratch);
    if (at_mid.moved_threads <= max_moved_threads) {
      hi = mid;
      at_hi = std::move(at_mid);
    } else {
      lo = mid;
    }
  }
  out.remap = evaluated(problem, std::move(at_hi));
  out.penalty_cycles = hi;
  return out;
}

}  // namespace nocmap
