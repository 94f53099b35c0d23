// `map`: the nocmap_cli flow, serial, with evaluate() after every map().
//
// Three chips: the paper's 8x8 mesh with C1..C8, a 16x16 mesh with C1 and a
// 4x8x8 stack with C1 (4 applications x 64 threads on the large chips). One
// round maps every (instance, mapper) pair once with Global, SSS, MC (10k
// trials), SA (50k iterations) and GA at the CLI's budgets and seed 1.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/annealing_mapper.h"
#include "core/cost_cache.h"
#include "core/genetic_mapper.h"
#include "core/global_mapper.h"
#include "core/metrics.h"
#include "core/monte_carlo_mapper.h"
#include "core/sss_mapper.h"
#include "workload/synthesis.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace nocmap;

constexpr const char* kMapperNames[] = {"Global", "SSS", "MC", "SA", "GA"};
constexpr std::size_t kMappers = std::size(kMapperNames);
constexpr const char* kChipNames[] = {"mesh8", "mesh16", "stack4x8x8"};
constexpr std::size_t kChips = std::size(kChipNames);

std::unique_ptr<Mapper> make_mapper(std::size_t which) {
  const ParallelConfig serial = ParallelConfig::serial_config();
  switch (which) {
    case 0: return std::make_unique<GlobalMapper>();
    case 1:
      return std::make_unique<SortSelectSwapMapper>(
          SssOptions{.parallel = serial});
    case 2: return std::make_unique<MonteCarloMapper>(10000, 1, serial);
    case 3:
      return std::make_unique<AnnealingMapper>(
          AnnealingParams{.iterations = 50000, .seed = 1, .parallel = serial});
    default:
      return std::make_unique<GeneticMapper>(
          GeneticParams{.seed = 1, .parallel = serial});
  }
}

struct Instance {
  std::size_t chip;
  std::string config;
  ObmProblem problem;
};

class MapWorkload final : public BenchWorkload {
 public:
  MapWorkload(const Options& options, Checker& checker)
      : options_(options), checker_(checker) {}

  std::size_t workers() const override { return 1; }

  void setup() override {
    instances_.clear();
    const Mesh meshes[kChips] = {
        Mesh::square(8), Mesh::square(16),
        Mesh::stacked_with_placement(4, 8, McPlacement::kCorners, 1.0)};
    SynthesisOptions large;
    large.num_applications = 4;
    large.threads_per_app = 64;
    for (std::size_t chip = 0; chip < kChips; ++chip) {
      std::vector<std::string> configs;
      if (chip == 0) {
        for (const ConfigSpec& spec : parsec_table3_configs()) {
          configs.push_back(spec.name);
        }
      } else {
        configs.push_back("C1");
      }
      std::vector<nocmap::Workload> workloads;
      {
        auto span = tracer().span(Layer::kWorkloadSynthesize);
        for (const std::string& config : configs) {
          workloads.push_back(
              chip == 0 ? synthesize_workload(parsec_config(config),
                                              options_.seed)
                        : synthesize_workload(parsec_config(config),
                                              options_.seed, large));
        }
      }
      std::unique_ptr<TileLatencyModel> model;
      {
        auto span = tracer().span(Layer::kLatencyModel);
        model = std::make_unique<TileLatencyModel>(meshes[chip],
                                                   LatencyParams{});
      }
      for (std::size_t i = 0; i < configs.size(); ++i) {
        instances_.push_back(
            {chip, configs[i], ObmProblem(*model, std::move(workloads[i]))});
      }
    }
  }

  double run_unit() override {
    for (const Instance& inst : instances_) {
      // Each mapper builds its own cost cache inside map(); this standalone
      // build times that layer on its own (well under 1% of a round).
      {
        auto span = tracer().span(Layer::kCostCache);
        const auto t0 = Clock::now();
        const ThreadCostCache cache(inst.problem.workload(),
                                    inst.problem.model());
        cost_cache_ms_[inst.chip].add(seconds_since(t0) * 1e3);
      }
      for (std::size_t m = 0; m < kMappers; ++m) map_one(inst, m);
    }
    return static_cast<double>(instances_.size() * kMappers);
  }

  void reset_samples() override {
    op_ms_.clear();
    evaluate_us_.clear();
    max_apl_sum_ = 0.0;
    for (auto& per_chip : mapper_ms_) {
      for (Samples& s : per_chip) s.clear();
    }
    for (Samples& s : cost_cache_ms_) s.clear();
  }

  EndToEnd end_to_end() const override {
    EndToEnd e;
    e.op_ms_p50 = op_ms_.block_percentile(50);
    e.op_ms_tail = op_ms_.block_percentile(e.tail_percentile);
    e.op_samples = op_ms_.size();
    e.max_apl_cycles = max_apl_sum_ / static_cast<double>(op_ms_.size());
    return e;
  }

  std::vector<Metric> named(const EndToEnd& e) const override {
    return {{"maps_per_s", e.ops_per_s, "1/s"},
            {"map_ms_p50", e.op_ms_p50, "ms"},
            {"map_ms_p99", e.op_ms_tail, "ms"},
            {"max_apl_mean", e.max_apl_cycles, "cycles"}};
  }

  void layers(const ObsDelta& obs,
              std::map<std::string, double>& out) const override {
    for (std::size_t chip = 0; chip < kChips; ++chip) {
      const std::string c = kChipNames[chip];
      out["cost_cache.build_ms." + c] = cost_cache_ms_[chip].percentile(50);
      for (std::size_t m = 0; m < kMappers; ++m) {
        out[std::string("mapper.") + kMapperNames[m] + "." + c + ".ms_p50"] =
            mapper_ms_[chip][m].percentile(50);
      }
    }
    const double sss_maps = obs.count("sss.maps");
    for (const char* stage : {"sort", "select", "swap", "final_sam"}) {
      out[std::string("sss.") + stage + "_ms"] =
          sss_maps > 0 ? obs.timer_ms(std::string("sss.") + stage) / sss_maps
                       : 0.0;
    }
    auto rate = [&](const char* counter, const char* timer) {
      const double ms = obs.timer_ms(timer);
      return ms > 0 ? obs.count(counter) / ms : 0.0;
    };
    out["eval.mc_trials_per_ms"] = rate("mc.trials", "mc.map");
    out["eval.sa_iters_per_ms"] = rate("sa.iterations", "sa.map");
    out["eval.ga_evals_per_ms"] = rate("ga.evaluations", "ga.map");
    out["evaluate.us"] = evaluate_us_.percentile(50);
    const double maps = static_cast<double>(op_ms_.size());
    out["assign.solves_per_map"] =
        (obs.count("assign.cold_solves") + obs.count("assign.warm_solves")) /
        maps;
    out["assign.path_steps_per_map"] = obs.count("assign.path_steps") / maps;
  }

 private:
  void map_one(const Instance& inst, std::size_t m) {
    std::unique_ptr<Mapper> mapper = make_mapper(m);
    const auto t0 = Clock::now();
    Mapping mapping;
    {
      auto span = tracer().span(Layer::kMapper);
      mapping = mapper->map(inst.problem);
    }
    const auto t1 = Clock::now();
    LatencyReport report;
    {
      auto span = tracer().span(Layer::kEvaluate);
      report = evaluate(inst.problem, mapping);
    }
    const auto t2 = Clock::now();
    op_ms_.add(host_scaled(
        std::chrono::duration<double, std::milli>(t2 - t0).count()));
    mapper_ms_[inst.chip][m].add(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    evaluate_us_.add(
        std::chrono::duration<double, std::micro>(t2 - t1).count());
    max_apl_sum_ += report.max_apl;

    auto span = tracer().span(Layer::kCheck);
    if (options_.tamper != Tamper::kNone && !tampered_) {
      tampered_ = true;
      auto& tiles = mapping.thread_to_tile;
      if (options_.tamper == Tamper::kDigest) {
        std::swap(tiles[0], tiles[1]);
      } else {
        tiles[1] = tiles[0];
      }
    }
    const std::string key = std::string(kChipNames[inst.chip]) + "/" +
                            inst.config + "/" + kMapperNames[m];
    bool ok = checker_.expect(
        mapping.is_valid_permutation(inst.problem.num_threads()),
        key + ": mapping is not a permutation of the tiles");
    ok = checker_.expect(std::isfinite(report.max_apl) && report.max_apl > 0,
                         key + ": max-APL not positive") &&
         ok;
    Fnv digest;
    for (const TileId k : mapping.thread_to_tile) digest.add(std::uint64_t{k});
    digest.add(report.max_apl);
    ok = checker_.digest(key, digest.hex()) && ok;
    checker_.record(ok);
  }

  const Options& options_;
  Checker& checker_;
  std::vector<Instance> instances_;
  Samples op_ms_;
  Samples evaluate_us_;
  Samples mapper_ms_[kChips][kMappers];
  Samples cost_cache_ms_[kChips];
  double max_apl_sum_ = 0.0;
  bool tampered_ = false;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_map_workload(const Options& options,
                                                 Checker& checker) {
  return std::make_unique<MapWorkload>(options, checker);
}

}  // namespace perfbench
