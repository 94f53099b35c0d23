#include "core/annealing_mapper.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "core/batch_eval.h"
#include "core/cost_cache.h"
#include "core/evaluator.h"
#include "obs/metrics.h"
#include "util/fastmath.h"
#include "util/rng.h"

namespace nocmap {

namespace {

// Iteration-throughput metrics (docs/metrics-schema.md). Accumulated locally
// per chain and published with one add each when the chain finishes, so the
// per-iteration hot loop carries plain integer increments only.
const obs::Timer t_map("sa.map");
const obs::Counter c_chains("sa.chains");
const obs::Counter c_iterations("sa.iterations");
const obs::Counter c_accepts("sa.accepts");

}  // namespace

const char* anneal_objective_name(AnnealObjective objective) {
  switch (objective) {
    case AnnealObjective::kMaxApl: return "max-APL";
    case AnnealObjective::kDevApl: return "dev-APL";
    case AnnealObjective::kMinToMax: return "min-to-max";
  }
  return "?";
}

std::string AnnealingMapper::name() const {
  if (params_.objective == AnnealObjective::kMaxApl) return "SA";
  return std::string("SA(") + anneal_objective_name(params_.objective) + ")";
}

namespace {

/// Scalar objective (minimized) from the evaluator's per-app APLs.
double objective_value(const MappingEvaluator& eval, std::size_t num_apps,
                       AnnealObjective kind) {
  switch (kind) {
    case AnnealObjective::kMaxApl:
      return eval.objective();
    case AnnealObjective::kDevApl: {
      // Population stddev over applications with traffic.
      double sum = 0.0, sum_sq = 0.0;
      std::size_t count = 0;
      for (std::size_t a = 0; a < num_apps; ++a) {
        const double apl = eval.apl(a);
        if (apl > 0.0) {
          sum += apl;
          sum_sq += apl * apl;
          ++count;
        }
      }
      if (count == 0) return 0.0;
      const double mean = sum / static_cast<double>(count);
      return std::sqrt(
          std::max(0.0, sum_sq / static_cast<double>(count) - mean * mean));
    }
    case AnnealObjective::kMinToMax: {
      double lo = std::numeric_limits<double>::infinity();
      double hi = 0.0;
      for (std::size_t a = 0; a < num_apps; ++a) {
        const double apl = eval.apl(a);
        if (apl > 0.0) {
          lo = std::min(lo, apl);
          hi = std::max(hi, apl);
        }
      }
      if (hi == 0.0) return 0.0;
      return -lo / hi;  // maximize the ratio => minimize its negation
    }
  }
  return 0.0;
}

}  // namespace

Mapping AnnealingMapper::map(const ObmProblem& problem) {
  NOCMAP_REQUIRE(params_.iterations > 0, "SA needs at least one iteration");
  NOCMAP_REQUIRE(params_.restarts > 0, "SA needs at least one restart");
  const obs::ScopedTimer map_scope(t_map);
  const std::size_t n = problem.num_threads();
  const std::size_t num_apps = problem.num_applications();
  const ThreadCostCache cache(problem.workload(), problem.model());
  const BatchEvaluator table(problem, cache);

  struct ChainResult {
    Mapping best;
    double obj = std::numeric_limits<double>::infinity();
  };

  // Random initial state, shuffled directly in the mapping's own storage.
  auto initial_mapping = [&](Rng& rng) {
    Mapping initial;
    initial.thread_to_tile.resize(n);
    std::iota(initial.thread_to_tile.begin(), initial.thread_to_tile.end(),
              TileId{0});
    rng.shuffle(initial.thread_to_tile);
    return initial;
  };

  // Cooling schedule shared by both chain variants: relative to the
  // max-APL magnitude so acceptance probabilities stay meaningful for all
  // objectives.
  auto cooling = [&](double initial_max_apl) {
    const double scale = std::max(initial_max_apl, 1.0);
    const double t0 = std::max(params_.initial_temp_fraction * scale, 1e-9);
    const double t_end = std::max(t0 * params_.final_temp_fraction, 1e-12);
    const double alpha =
        std::pow(t_end / t0, 1.0 / static_cast<double>(params_.iterations));
    return std::pair<double, double>(t0, alpha);
  };

  // Flat max-APL chain: the hot configuration (the paper's OBM objective).
  // The chain reads its per-application factors, thread→application
  // lookup and canonical numerators from the shared table, owns its state
  // as flat arrays — permutation, per-app numerators, per-app weighted
  // APLs — and fuses move scoring into the walk: each proposal is scored
  // against the *current* state by delta substitution (4 cost-row lookups,
  // affected numerators re-derived, weighted max over applications), so
  // there is never a stale prescore to discard, and an accepted move
  // commits with a handful of stores instead of a canonical O(N/A)
  // recompute. Proposals are pre-drawn in blocks of 64 (two bounded
  // indices per raw PCG draw, multiply-shift, bias < 1e-6 — irrelevant for
  // a Metropolis walk) so the generator's serial dependency chain is off
  // the scoring path.
  //
  // Numerators evolve by delta arithmetic here — the annealer trades the
  // evaluator's purity invariant (which exists for the parallel SSS sweep's
  // apply/revert exactness, not needed inside a sequential chain) for
  // per-move cost; every 8192 consumed iterations the numerators are
  // re-derived from the permutation to keep the accumulated rounding drift
  // bounded, and the returned best mapping is re-scored canonically so the
  // cross-restart argmin merge sees exact objectives.
  //
  // Uphill acceptance compares a single-draw uniform32() variate (2^-32
  // resolution) against fast_exp_neg — deterministic arithmetic, no libm.
  // For delta >= 23·temp the true probability e^-23 is below that
  // resolution: the chain accepts only the exact-zero draw (and only while
  // exp(-delta/temp) is still positive, i.e. delta < ~700·temp), the same
  // decision the comparison would make, without the polynomial.
  //
  // The RNG draw pattern differs from the classic loop's (paired bounded
  // draws, one uniform32 lazily per uphill move), so chains were
  // re-goldened against the classic annealer: equal mapping quality on the
  // bench workloads, with the batch_eval / mapper_relations oracles as the
  // safety net.
  auto run_chain_max_apl = [&](Rng rng) -> ChainResult {
    Mapping state = initial_mapping(rng);
    std::vector<TileId>& perm = state.thread_to_tile;

    // Frozen per-app factors from the shared table. inv_wden folds the
    // zero-traffic guard: apps with no traffic get factor 0, contributing 0
    // to the max exactly as the canonical objective skips them (all
    // weighted APLs are >= 0).
    const std::span<const std::uint32_t> app_of = table.thread_apps();
    std::vector<double> inv_wden(num_apps, 0.0);
    for (std::size_t a = 0; a < num_apps; ++a) {
      const BatchEvaluator::AppSlice& app = table.apps()[a];
      if (app.volume > 0.0) inv_wden[a] = app.weight / app.volume;
    }

    std::vector<double> num(num_apps);
    std::vector<double> wapl(num_apps);
    // (Re)derives numerators and weighted APLs from the permutation in
    // canonical thread-ascending order; returns the current objective.
    auto renormalize = [&]() -> double {
      double worst = 0.0;
      for (std::size_t a = 0; a < num_apps; ++a) {
        num[a] = table.numerator(a, perm);
        wapl[a] = num[a] * inv_wden[a];
        worst = std::max(worst, wapl[a]);
      }
      return worst;
    };
    double current = renormalize();
    ChainResult result{state, current};

    const auto [t0, alpha] = cooling(table.max_apl(num));

    constexpr std::size_t kBlock = 64;
    std::uint32_t j1s[kBlock];
    std::uint32_t j2s[kBlock];
    const auto un64 = static_cast<std::uint64_t>(n);

    double temp = t0;
    std::uint64_t accepts = 0;
    std::size_t done = 0;
    std::size_t since_renorm = 0;
    while (done < params_.iterations) {
      const std::size_t count = std::min(kBlock, params_.iterations - done);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t m1 = static_cast<std::uint64_t>(rng()) * un64;
        j1s[i] = static_cast<std::uint32_t>(m1 >> 32);
        const std::uint64_t m2 =
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(m1)) * un64;
        j2s[i] = static_cast<std::uint32_t>(m2 >> 32);
      }
      for (std::size_t i = 0; i < count; ++i, temp *= alpha) {
        const std::size_t j1 = j1s[i];
        const std::size_t j2 = j2s[i];
        if (j1 == j2) continue;
        const std::size_t a1 = app_of[j1];
        const std::size_t a2 = app_of[j2];
        const TileId t1 = perm[j1];
        const TileId t2 = perm[j2];
        const double c11 = cache.cost(j1, t1);
        const double c12 = cache.cost(j1, t2);
        const double c22 = cache.cost(j2, t2);
        const double c21 = cache.cost(j2, t1);
        double n1, n2;
        if (a1 == a2) {
          n1 = n2 = num[a1] - c11 - c22 + c12 + c21;
        } else {
          n1 = num[a1] - c11 + c12;
          n2 = num[a2] - c22 + c21;
        }
        const double v1 = n1 * inv_wden[a1];
        const double v2 = n2 * inv_wden[a2];
        double worst = v1 > v2 ? v1 : v2;
        for (std::size_t a = 0; a < num_apps; ++a) {
          if (a != a1 && a != a2 && wapl[a] > worst) worst = wapl[a];
        }
        const double delta = worst - current;
        bool take = delta <= 0.0;
        if (!take) {
          const double u = rng.uniform32();
          take = delta < 23.0 * temp
                     ? u < fast_exp_neg(delta / temp)
                     : u == 0.0 && delta < 700.0 * temp;
        }
        if (take) {
          ++accepts;
          perm[j1] = t2;
          perm[j2] = t1;
          num[a1] = n1;
          num[a2] = n2;
          wapl[a1] = v1;
          wapl[a2] = v2;
          current = worst;
          if (current < result.obj) {
            result.obj = current;
            result.best = state;  // copy-on-improvement
          }
        }
      }
      done += count;
      since_renorm += count;
      if (since_renorm >= 8192) {
        current = renormalize();
        since_renorm = 0;
      }
    }
    // Canonical objective of the best mapping, so the restart merge (and
    // the reported quality) never carries delta-arithmetic drift.
    table.score_rows(result.best.thread_to_tile.data(), n, 1,
                     std::span<double>(&result.obj, 1));
    c_chains.add();
    c_iterations.add(params_.iterations);
    c_accepts.add(accepts);
    return result;
  };

  // Classic one-swap-at-a-time chain for the alternative objectives, whose
  // scalarizations need the evaluator's per-app APLs after the move.
  auto run_chain_classic = [&](Rng rng) -> ChainResult {
    MappingEvaluator eval(problem, initial_mapping(rng), cache);
    double current = objective_value(eval, num_apps, params_.objective);
    ChainResult result{eval.mapping(), current};
    const auto [t0, alpha] = cooling(eval.max_apl());

    double temp = t0;
    std::uint64_t iterations = 0;
    std::uint64_t accepts = 0;
    for (std::size_t it = 0; it < params_.iterations; ++it, temp *= alpha) {
      ++iterations;
      const auto j1 = static_cast<std::size_t>(
          rng.uniform_u32(static_cast<std::uint32_t>(n)));
      const auto j2 = static_cast<std::size_t>(
          rng.uniform_u32(static_cast<std::uint32_t>(n)));
      if (j1 == j2) continue;

      eval.swap_threads(j1, j2);
      const double candidate = objective_value(eval, num_apps,
                                               params_.objective);
      const double delta = candidate - current;
      if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temp)) {
        ++accepts;
        current = candidate;
        if (current < result.obj) {
          result.obj = current;
          result.best = eval.mapping();
        }
      } else {
        eval.swap_threads(j1, j2);  // revert
      }
    }
    c_chains.add();
    c_iterations.add(iterations);
    c_accepts.add(accepts);
    return result;
  };

  // One full annealing chain driven by its own RNG stream. Chains share
  // only the problem and the read-only cost cache, so any number of them
  // can run concurrently.
  auto run_chain = [&](Rng rng) -> ChainResult {
    return params_.objective == AnnealObjective::kMaxApl
               ? run_chain_max_apl(std::move(rng))
               : run_chain_classic(std::move(rng));
  };

  // The single-restart path is the canonical chain, seeded exactly as the
  // classic serial annealer.
  if (params_.restarts == 1) return run_chain(Rng(params_.seed)).best;

  const std::vector<Rng> streams =
      Rng(params_.seed).fork_streams(params_.restarts);
  std::vector<ChainResult> results(params_.restarts);
  ParallelTrialRunner runner(params_.parallel);
  runner.for_each(params_.restarts,
                  [&](std::size_t r) { results[r] = run_chain(streams[r]); });

  std::vector<double> objectives;
  objectives.reserve(results.size());
  for (const ChainResult& r : results) objectives.push_back(r.obj);
  return std::move(results[ParallelTrialRunner::argmin(objectives)].best);
}

}  // namespace nocmap
