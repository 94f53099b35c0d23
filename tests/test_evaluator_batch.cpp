// Bit-identity contract of the shared eq.-5 kernel (DESIGN.md §14): every
// entry point of BatchEvaluator — transposed, candidate-major, pruned and
// group scoring — must equal an independent reference reduction
// (check::reference_objective) on the same permutation to the last bit; the
// mappers' search decisions are rewired through the batched pass on that
// guarantee. Also covers the pruned variant's postcondition, worker-count
// invariance of a fitness fan-out through
// ParallelTrialRunner::for_each_batch, and the fast_exp_neg kernel the
// annealer's acceptance test runs on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "check/oracles.h"
#include "core/batch_eval.h"
#include "core/cost_cache.h"
#include "core/evaluator.h"
#include "core/parallel.h"
#include "core/problem.h"
#include "util/fastmath.h"
#include "util/rng.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

ObmProblem make_problem(std::uint32_t side, std::uint64_t seed) {
  const Mesh mesh = Mesh::square(side);
  SynthesisOptions opt;
  opt.num_applications = 4;
  opt.threads_per_app = mesh.num_tiles() / 4;
  const auto configs = parsec_table3_configs();
  const ConfigSpec& spec = configs[seed % configs.size()];
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(spec, 500 + seed, opt));
}

std::vector<TileId> random_perm(std::size_t n, Rng& rng) {
  std::vector<TileId> perm(n);
  std::iota(perm.begin(), perm.end(), TileId{0});
  rng.shuffle(perm);
  return perm;
}

/// The same problem with service weights other than 1, under which the
/// association of (w·Σcost)/Σrate becomes observable.
ObmProblem weighted(const ObmProblem& p) {
  return ObmProblem(p.model(), p.workload(), {1.7, 0.6, 1.0, 2.3});
}

using check::reference_objective;

constexpr double kNoCutoff = std::numeric_limits<double>::infinity();

TEST(BatchEvaluator, BitIdenticalToScalarAcrossSizes) {
  const ObmProblem problems[] = {make_problem(4, 4), make_problem(8, 8),
                                 weighted(make_problem(8, 9))};
  for (std::size_t k = 0; k < std::size(problems); ++k) {
    const ObmProblem& p = problems[k];
    const std::size_t n = p.num_threads();
    const ThreadCostCache cache(p.workload(), p.model());
    const BatchEvaluator evaluator(p, cache);
    Rng rng(15 + 4 * k);

    constexpr std::size_t kCount = 64;
    CandidateBatch batch(n, kCount);
    std::vector<std::vector<TileId>> perms;
    for (std::size_t b = 0; b < kCount; ++b) {
      perms.push_back(random_perm(n, rng));
      batch.load(b, perms.back());
    }
    std::vector<double> scores(kCount);
    evaluator.score(batch, kCount, scores);
    for (std::size_t b = 0; b < kCount; ++b) {
      EXPECT_EQ(scores[b], reference_objective(p, cache, perms[b]))
          << "lane " << b << " problem " << k;
    }
  }
}

TEST(BatchEvaluator, RaggedFinalBlockAndSingleLane) {
  const ObmProblem p = make_problem(8, 1);
  const std::size_t n = p.num_threads();
  const ThreadCostCache cache(p.workload(), p.model());
  const BatchEvaluator evaluator(p, cache);
  Rng rng(29);

  // 137 = 128 + 9: one full internal sub-block plus a ragged tail; also
  // exercise count < capacity and the K=1 degenerate batch.
  for (const std::size_t count :
       {std::size_t{137}, std::size_t{5}, std::size_t{1}}) {
    CandidateBatch batch(n, count == 5 ? 8 : count);  // capacity may exceed
    std::vector<std::vector<TileId>> perms;
    for (std::size_t b = 0; b < count; ++b) {
      perms.push_back(random_perm(n, rng));
      batch.load(b, perms.back());
    }
    std::vector<double> scores(count, -1.0);
    evaluator.score(batch, count, scores);
    for (std::size_t b = 0; b < count; ++b) {
      EXPECT_EQ(scores[b], reference_objective(p, cache, perms[b]))
          << "lane " << b << " of " << count;
    }
  }
}

TEST(BatchEvaluator, ScoreRowsMatchesTransposedScore) {
  const ObmProblem p = make_problem(8, 2);
  const std::size_t n = p.num_threads();
  const ThreadCostCache cache(p.workload(), p.model());
  const BatchEvaluator evaluator(p, cache);
  Rng rng(31);

  constexpr std::size_t kCount = 23;  // deliberately not a lane multiple
  std::vector<TileId> rows(kCount * n);
  CandidateBatch batch(n, kCount);
  for (std::size_t b = 0; b < kCount; ++b) {
    const std::vector<TileId> perm = random_perm(n, rng);
    std::copy(perm.begin(), perm.end(), rows.begin() + b * n);
    batch.load(b, perm);
  }
  std::vector<double> transposed(kCount), row_major(kCount);
  evaluator.score(batch, kCount, transposed);
  evaluator.score_rows(rows.data(), n, kCount, row_major);
  for (std::size_t b = 0; b < kCount; ++b) {
    EXPECT_EQ(row_major[b], transposed[b]) << "lane " << b;
    const std::vector<TileId> perm(rows.begin() + b * n,
                                   rows.begin() + (b + 1) * n);
    EXPECT_EQ(row_major[b], reference_objective(p, cache, perm))
        << "lane " << b;
  }
}

TEST(BatchEvaluator, PrunedScoresKeepTheExactWinner) {
  const ObmProblem p = make_problem(8, 3);
  const std::size_t n = p.num_threads();
  const ThreadCostCache cache(p.workload(), p.model());
  const BatchEvaluator evaluator(p, cache);
  Rng rng(37);

  constexpr std::size_t kCount = 96;
  CandidateBatch batch(n, kCount);
  for (std::size_t b = 0; b < kCount; ++b) batch.load(b, random_perm(n, rng));
  std::vector<double> exact(kCount), pruned(kCount);
  evaluator.score(batch, kCount, exact);

  // Sweep cutoffs from permissive to aggressive; the postcondition must
  // hold for each: below-cutoff lanes are bit-exact, at-or-above-cutoff
  // lanes are only guaranteed to be >= cutoff (like the true score).
  std::vector<double> cutoffs = {1e300, exact[0], exact[kCount / 2], 0.0};
  for (const double cutoff : cutoffs) {
    evaluator.score_pruned(batch, kCount, cutoff, pruned);
    for (std::size_t b = 0; b < kCount; ++b) {
      if (pruned[b] < cutoff) {
        EXPECT_EQ(pruned[b], exact[b]) << "lane " << b;
      } else {
        EXPECT_GE(exact[b], cutoff) << "lane " << b;
      }
    }
  }
}

TEST(MappingEvaluatorBatch, GroupCandidatesBitMatchApplyGroup) {
  const ObmProblem p = weighted(make_problem(8, 4));
  const std::size_t n = p.num_threads();
  const ThreadCostCache cache(p.workload(), p.model());
  Rng rng(41);
  MappingEvaluator eval(p, Mapping{random_perm(n, rng)}, cache);

  // Random 3-thread window, all 6 within-group permutations as candidates.
  const std::vector<std::size_t> threads = {2, 17, 40};
  std::vector<TileId> held;
  for (const std::size_t j : threads) held.push_back(eval.mapping().tile_of(j));
  std::vector<std::vector<TileId>> cands;
  std::vector<TileId> perm = held;
  std::sort(perm.begin(), perm.end());
  do {
    cands.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));

  const std::size_t count = cands.size();
  std::vector<TileId> transposed(threads.size() * count);
  for (std::size_t x = 0; x < threads.size(); ++x) {
    for (std::size_t b = 0; b < count; ++b) {
      transposed[x * count + b] = cands[b][x];
    }
  }
  std::vector<double> scores(count);
  eval.score_group_candidates(threads, transposed.data(), count, kNoCutoff,
                              scores);

  for (std::size_t b = 0; b < count; ++b) {
    eval.apply_group(threads, cands[b]);
    EXPECT_EQ(scores[b], eval.objective()) << "candidate " << b;
    EXPECT_EQ(scores[b],
              reference_objective(p, cache, eval.mapping().thread_to_tile))
        << "candidate " << b;
    eval.apply_group(threads, held);  // revert
  }
}

TEST(MappingEvaluatorBatch, GroupCutoffContractHolds) {
  // score_group's pruned contract on SSS-shaped windows (2 to 4 threads,
  // all their permutations): below the cutoff a score is the exact
  // reference objective; at or above it the reference is too.
  const ObmProblem p = weighted(make_problem(8, 2));
  const std::size_t n = p.num_threads();
  const ThreadCostCache cache(p.workload(), p.model());
  Rng rng(53);
  MappingEvaluator eval(p, Mapping{random_perm(n, rng)}, cache);

  std::size_t exact = 0;
  std::size_t cut = 0;
  for (int window = 0; window < 120; ++window) {
    const std::size_t w = 2 + static_cast<std::size_t>(window % 3);
    std::vector<std::size_t> threads;
    while (threads.size() < w) {
      const std::size_t j = rng.uniform_u32(static_cast<std::uint32_t>(n));
      if (std::find(threads.begin(), threads.end(), j) == threads.end()) {
        threads.push_back(j);
      }
    }
    std::vector<TileId> held;
    for (const std::size_t j : threads) {
      held.push_back(eval.mapping().tile_of(j));
    }
    std::vector<std::vector<TileId>> cands;
    std::vector<TileId> perm = held;
    std::sort(perm.begin(), perm.end());
    do {
      cands.push_back(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
    const std::size_t count = cands.size();
    std::vector<TileId> transposed(threads.size() * count);
    std::vector<double> truth(count);
    for (std::size_t b = 0; b < count; ++b) {
      for (std::size_t x = 0; x < threads.size(); ++x) {
        transposed[x * count + b] = cands[b][x];
      }
      eval.apply_group(threads, cands[b]);
      truth[b] = reference_objective(p, cache, eval.mapping().thread_to_tile);
      eval.apply_group(threads, held);
    }

    // Cutoffs: the SSS one (the live objective), none, a random level and
    // a candidate's own score across the candidates' range, and the floor
    // of the untouched applications and halfway from it to the lowest
    // score, where whole windows are dismissed.
    const auto [lo, hi] = std::minmax_element(truth.begin(), truth.end());
    const double floor = eval.group_floor(threads);
    for (const double cutoff :
         {eval.objective(), kNoCutoff, rng.uniform(*lo, *hi),
          truth[rng.uniform_u32(static_cast<std::uint32_t>(count))], floor,
          0.5 * (floor + *lo)}) {
      std::vector<double> scores(count);
      eval.score_group_candidates(threads, transposed.data(), count, cutoff,
                                  scores);
      for (std::size_t b = 0; b < count; ++b) {
        if (scores[b] < cutoff) {
          EXPECT_EQ(scores[b], truth[b]) << "window " << window;
          ++exact;
        } else {
          EXPECT_GE(truth[b], cutoff) << "window " << window;
          ++cut;
        }
      }
    }
    // Commit one candidate so later windows see a moving live state.
    eval.apply_group(threads, cands[rng.uniform_u32(
                                  static_cast<std::uint32_t>(count))]);
  }
  // Both sides of the contract were exercised.
  EXPECT_GT(exact, 0u);
  EXPECT_GT(cut, 0u);
}

TEST(MappingEvaluatorBatch, PrefixesEqualFromScratchRecompute) {
  const ObmProblem p = weighted(make_problem(8, 3));
  const std::size_t n = p.num_threads();
  const ThreadCostCache cache(p.workload(), p.model());
  Rng rng(59);
  MappingEvaluator eval(p, Mapping{random_perm(n, rng)}, cache);
  const auto un = static_cast<std::uint32_t>(n);
  for (int step = 0; step < 500; ++step) {
    if (step % 3 == 0) {
      eval.swap_threads(rng.uniform_u32(un), rng.uniform_u32(un));
    } else {
      std::vector<std::size_t> threads;
      while (threads.size() < 4) {
        const std::size_t j = rng.uniform_u32(un);
        if (std::find(threads.begin(), threads.end(), j) == threads.end()) {
          threads.push_back(j);
        }
      }
      std::vector<TileId> tiles;
      for (const std::size_t j : threads) {
        tiles.push_back(eval.mapping().tile_of(j));
      }
      rng.shuffle(tiles);
      eval.apply_group(threads, tiles);
    }
  }
  // A fresh evaluator on the same mapping, and the running sums by hand.
  const MappingEvaluator fresh(p, eval.mapping(), cache);
  const Workload& wl = p.workload();
  for (std::size_t a = 0; a < wl.num_applications(); ++a) {
    double sum = 0.0;
    for (std::size_t j = wl.first_thread(a); j < wl.last_thread(a); ++j) {
      EXPECT_EQ(eval.prefixes()[j], sum) << "thread " << j;
      EXPECT_EQ(eval.prefixes()[j], fresh.prefixes()[j]) << "thread " << j;
      sum += cache.row(j)[eval.mapping().tile_of(j)];
    }
  }
}

TEST(BatchEvaluator, FanOutIsWorkerCountInvariant) {
  const ObmProblem p = make_problem(8, 6);
  const std::size_t n = p.num_threads();
  const ThreadCostCache cache(p.workload(), p.model());
  const BatchEvaluator evaluator(p, cache);
  Rng rng(47);

  constexpr std::size_t kPop = 70;  // ragged over the batch size below
  std::vector<TileId> rows(kPop * n);
  for (std::size_t b = 0; b < kPop; ++b) {
    const std::vector<TileId> perm = random_perm(n, rng);
    std::copy(perm.begin(), perm.end(), rows.begin() + b * n);
  }

  auto run = [&](std::size_t workers) {
    std::vector<double> fit(kPop, -1.0);
    ParallelTrialRunner runner(ParallelConfig{workers, true});
    runner.for_each_batch(kPop, 16, [&](std::size_t lo, std::size_t hi) {
      evaluator.score_rows(rows.data() + lo * n, n, hi - lo,
                           std::span<double>(fit.data() + lo, hi - lo));
    });
    return fit;
  };

  const std::vector<double> serial = run(1);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    const std::vector<double> parallel = run(workers);
    for (std::size_t b = 0; b < kPop; ++b) {
      EXPECT_EQ(parallel[b], serial[b])
          << "slot " << b << " at " << workers << " workers";
    }
  }
}

TEST(FastMath, ExpNegMatchesLibmTo1e8) {
  // The annealer compares fast_exp_neg against a 2^-32-resolution uniform
  // variate; 1e-8 relative error is two orders tighter than it needs.
  for (double x = 0.0; x < 60.0; x += 0.0137) {
    const double got = fast_exp_neg(x);
    const double want = std::exp(-x);
    EXPECT_NEAR(got, want, 1e-8 * want) << "x=" << x;
  }
  EXPECT_EQ(fast_exp_neg(0.0), 1.0);
  EXPECT_EQ(fast_exp_neg(2000.0), 0.0);  // past the flush-to-zero threshold
  // Monotone non-increasing across the flush boundary.
  EXPECT_GE(fast_exp_neg(700.0), 0.0);
  EXPECT_LE(fast_exp_neg(700.0), fast_exp_neg(699.0));
}

}  // namespace
}  // namespace nocmap
