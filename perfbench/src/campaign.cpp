// `campaign`: a sweep campaign's write path (run_campaign with the netsim
// on, many small serial simulations spread across scenario workers) and
// its read path (read_campaign_log + aggregate_log over the finished log).
//
// Grid: 4x4 and 8x8 meshes x proximity / interleaved memory traffic x C1 /
// C3 x kSeeds workload seeds, each mapped by Global, SSS and MC.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>

#include "sweep/aggregate.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace nocmap;

constexpr std::uint32_t kSeeds = 1;
constexpr std::size_t kWorkers = 2;

std::string spec_text(std::uint64_t seed) {
  return R"({"schema": "nocmap.sweep_spec/1", "name": "perfbench",
  "axes": {"mesh_side": [4, 8], "traffic_mode": ["proximity", "interleaved"],
           "config": ["C1", "C3"], "injection_scale": [0.5],
           "seed": {"base": )" +
         std::to_string(seed) + R"(, "count": )" + std::to_string(kSeeds) +
         R"(}},
  "mappers": ["Global", "SSS", "MC"],
  "netsim": {"enabled": true, "warmup_cycles": 500,
             "measure_cycles": 4000, "max_drain_cycles": 100000}})";
}

/// The record without its wall-clock field, compact.
std::string reproducible(const obs::JsonValue& record) {
  obs::JsonValue copy;
  for (const auto& [key, value] : record.members()) {
    if (key != "map_us") copy[key] = value;
  }
  return copy.dump(0);
}

class CampaignWorkload final : public BenchWorkload {
 public:
  CampaignWorkload(const Options& options, Checker& checker)
      : options_(options),
        checker_(checker),
        workers_(std::min(kWorkers, available_cpus())) {}

  std::size_t workers() const override { return workers_; }

  void setup() override {
    auto span = tracer().span(Layer::kSweepSpec);
    spec_ = std::make_unique<sweep::CampaignSpec>(
        sweep::parse_spec(spec_text(options_.seed)));
    scenarios_ = sweep::expand_spec(*spec_).scenarios.size();
  }

  double run_unit() override {
    const std::string dir = options_.work_dir + "/campaign";
    std::filesystem::remove_all(dir);
    sweep::CampaignOptions run;
    run.out_dir = dir;
    run.parallel = ParallelConfig{workers_, true};
    run.chunk_size = 16;

    const auto t0 = Clock::now();
    sweep::CampaignResult result;
    {
      auto span = tracer().span(Layer::kSweepCampaign);
      result = sweep::run_campaign(*spec_, run);
    }
    const auto t1 = Clock::now();
    sweep::CampaignLog log;
    {
      auto span = tracer().span(Layer::kSweepReadLog);
      log = sweep::read_campaign_log(result.log_path);
    }
    const auto t2 = Clock::now();
    if (options_.tamper != Tamper::kNone && !tampered_) {
      tampered_ = true;
      if (options_.tamper == Tamper::kDigest) {
        obs::JsonValue& apl = log.records.front()["max_apl"];
        apl = std::nextafter(apl.as_double(), 0.0);
      } else {
        log.records.pop_back();
      }
    }
    obs::JsonValue frontier;
    {
      auto span = tracer().span(Layer::kSweepAggregate);
      frontier = sweep::aggregate_log(log);
    }
    const auto t3 = Clock::now();
    auto ms = [](auto a, auto b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    write_ms_.add(ms(t0, t1));
    read_ms_.add(ms(t1, t2));
    aggregate_ms_.add(ms(t2, t3));
    pass_ms_.add(host_scaled(ms(t0, t3)));
    records_ += static_cast<double>(log.records.size());
    check(result, log, frontier);
    return static_cast<double>(scenarios_);
  }

  void reset_samples() override {
    write_ms_.clear();
    read_ms_.clear();
    aggregate_ms_.clear();
    pass_ms_.clear();
    records_ = 0.0;
    max_apl_sum_ = 0.0;
    max_apl_count_ = 0;
  }

  EndToEnd end_to_end() const override {
    EndToEnd e;
    e.tail_percentile = 90;
    e.op_ms_p50 = pass_ms_.block_percentile(50);
    e.op_ms_tail = pass_ms_.block_percentile(e.tail_percentile);
    e.op_samples = pass_ms_.size();
    e.max_apl_cycles = max_apl_sum_ / static_cast<double>(max_apl_count_);
    return e;
  }

  std::vector<Metric> named(const EndToEnd& e) const override {
    return {{"scenarios_per_s", e.ops_per_s, "1/s"},
            {"log_records_per_s",
             records_ / ((read_ms_.sum() + aggregate_ms_.sum()) / 1e3), "1/s"},
            {"campaign_ms_p50", e.op_ms_p50, "ms"},
            {"campaign_ms_p90", e.op_ms_tail, "ms"},
            {"analytic_max_apl_mean", e.max_apl_cycles, "cycles"}};
  }

  void layers(const ObsDelta& obs,
              std::map<std::string, double>& out) const override {
    const double passes = static_cast<double>(write_ms_.size());
    const double map_eval = obs.timer_ms("sweep.map_eval") / passes;
    const double netsim_batch = obs.timer_ms("netsim.batch.run") / passes;
    out["sweep.map_eval_ms"] = map_eval;
    out["sweep.netsim_batch_ms"] = netsim_batch;
    out["sweep.append_ms"] =
        obs.timer_ms("sweep.chunk") / passes - map_eval - netsim_batch;
    out["sweep.read_log_ms"] = read_ms_.percentile(50);
    out["sweep.aggregate_ms"] = aggregate_ms_.percentile(50);
    const double runs = obs.count("netsim.run_simulation");
    out["netsim.run_ms_mean"] =
        runs > 0 ? obs.timer_ms("netsim.run_simulation") / runs : 0.0;
    const double hops = obs.count("netsim.link_traversals");
    out["netsim.host_ns_per_flit_hop"] =
        hops > 0 ? obs.timer_ms("netsim.run_simulation") * 1e6 / hops : 0.0;
  }

 private:
  void check(const sweep::CampaignResult& result,
             const sweep::CampaignLog& log, const obs::JsonValue& frontier) {
    auto span = tracer().span(Layer::kCheck);
    bool ok = checker_.expect(result.finished && result.total == scenarios_ &&
                                  result.completed == scenarios_,
                              "campaign did not finish");
    ok = checker_.expect(log.records.size() == scenarios_,
                         "log holds " + std::to_string(log.records.size()) +
                             " of " + std::to_string(scenarios_) +
                             " records") &&
         ok;
    Fnv records;
    records.add(log.header.dump(0));
    for (const obs::JsonValue& rec : log.records) {
      records.add(reproducible(rec));
      const double apl = rec.find("max_apl")->as_double();
      max_apl_sum_ += apl;
      ++max_apl_count_;
      const obs::JsonValue* sim = rec.find("sim");
      ok = checker_.expect(sim != nullptr && sim->is_object() &&
                               !sim->find("drain_incomplete")->as_bool(),
                           "scenario not simulated to a complete drain") &&
           ok;
    }
    ok = checker_.digest("log", records.hex()) && ok;
    Fnv front;
    front.add(frontier.dump(0));
    ok = checker_.digest("frontier", front.hex()) && ok;
    checker_.record(ok, scenarios_);
  }

  const Options& options_;
  Checker& checker_;
  const std::size_t workers_;
  std::unique_ptr<sweep::CampaignSpec> spec_;
  std::size_t scenarios_ = 0;
  Samples write_ms_;
  Samples read_ms_;
  Samples aggregate_ms_;
  Samples pass_ms_;
  double records_ = 0.0;
  double max_apl_sum_ = 0.0;
  std::uint64_t max_apl_count_ = 0;
  bool tampered_ = false;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_campaign_workload(
    const Options& options, Checker& checker) {
  return std::make_unique<CampaignWorkload>(options, checker);
}

}  // namespace perfbench
