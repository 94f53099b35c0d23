// `simulate`: one 64x64 mesh (4096 routers) carrying four C1 applications
// in contiguous blocks (identity mapping), stepped by the spatially
// partitioned engine at min(4, nproc / 2) workers, then DSENT-lite power.
//
// The workers meet at a barrier every cycle, so one worker on a CPU the
// host has taken away stalls them all; half the CPUs leaves the scheduler
// room to move a worker off such a CPU.
//
// The injection scale sits below saturation: at 1.0 this mesh saturates
// and a short run mostly measures the drain.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "netsim/sim.h"
#include "power/dsent_lite.h"
#include "workload/synthesis.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace nocmap;

constexpr std::uint32_t kSide = 64;
constexpr double kInjection = 0.25;
constexpr Cycle kWarmup = 100;
constexpr Cycle kMeasure = 400;

class SimulateWorkload final : public BenchWorkload {
 public:
  SimulateWorkload(const Options& options, Checker& checker)
      : options_(options),
        checker_(checker),
        workers_(std::clamp<std::size_t>(available_cpus() / 2, 1, 4)) {}

  std::size_t workers() const override { return workers_; }

  void setup() override {
    const Mesh mesh = Mesh::square(kSide);
    SynthesisOptions opt;
    opt.num_applications = 4;
    opt.threads_per_app = mesh.num_tiles() / 4;
    std::optional<nocmap::Workload> workload;
    {
      auto span = tracer().span(Layer::kWorkloadSynthesize);
      workload = synthesize_workload(parsec_config("C1"), options_.seed, opt);
    }
    std::unique_ptr<TileLatencyModel> model;
    {
      auto span = tracer().span(Layer::kLatencyModel);
      model = std::make_unique<TileLatencyModel>(mesh, LatencyParams{});
    }
    problem_ = std::make_unique<ObmProblem>(std::move(*model),
                                            std::move(*workload));
    mapping_ = problem_->identity_mapping();
  }

  double run_unit() override {
    const std::uint64_t before = cycle_counter();
    const SimResult r = simulate(workers_, true);
    const std::uint64_t counted = cycle_counter() - before;
    // Without the obs layer compiled in, count the protocol's cycles.
    return counted > 0 ? static_cast<double>(counted)
                       : static_cast<double>(kWarmup + r.measured_cycles);
  }

  void reset_samples() override {
    run_ms_.clear();
    power_us_.clear();
    max_apl_sum_ = 0.0;
  }

  EndToEnd end_to_end() const override {
    EndToEnd e;
    e.tail_percentile = 90;
    e.op_ms_p50 = run_ms_.block_percentile(50);
    e.op_ms_tail = run_ms_.block_percentile(e.tail_percentile);
    e.op_samples = run_ms_.size();
    e.max_apl_cycles = max_apl_sum_ / static_cast<double>(run_ms_.size());
    return e;
  }

  std::vector<Metric> named(const EndToEnd& e) const override {
    return {{"sim_cycles_per_s", e.ops_per_s, "1/s"},
            {"sim_ms_p50", e.op_ms_p50, "ms"},
            {"sim_ms_p90", e.op_ms_tail, "ms"},
            {"measured_max_apl", e.max_apl_cycles, "cycles"}};
  }

  void layers(const ObsDelta& obs,
              std::map<std::string, double>& out) const override {
    const double runs = obs.count("netsim.run_simulation");
    out["netsim.run_ms_mean"] =
        runs > 0 ? obs.timer_ms("netsim.run_simulation") / runs : 0.0;
    const double hops = obs.count("netsim.link_traversals");
    out["netsim.host_ns_per_flit_hop"] =
        hops > 0 ? obs.timer_ms("netsim.run_simulation") * 1e6 / hops : 0.0;
    const double cycles = obs.count("netsim.cycles");
    out["netsim.boundary_flits_per_cycle"] =
        cycles > 0 ? obs.count("netsim.parallel.boundary_flits") / cycles
                   : 0.0;
    out["power.report_us"] = power_us_.percentile(50);
  }

  void after_trace(std::map<std::string, double>& out) override {
    // run_ms_ holds the traced phase's runs, which share one host scale
    // (no probe runs there), so the ratio is of unscaled times.
    const double parallel_ms = run_ms_.percentile(50);
    const auto t0 = Clock::now();
    simulate(1, false);
    out["netsim.parallel_speedup"] =
        host_seconds_since(t0) * 1e3 / parallel_ms;
  }

 private:
  /// One simulation plus its power report, checked. `sample` adds its
  /// timings to the workload's samples.
  SimResult simulate(std::size_t workers, bool sample) {
    SimConfig cfg;
    cfg.warmup_cycles = kWarmup;
    cfg.measure_cycles = kMeasure;
    cfg.sim_workers = workers;
    cfg.traffic.seed = options_.seed;
    cfg.traffic.injection_scale = kInjection;
    const auto t0 = Clock::now();
    SimResult r;
    {
      auto span = tracer().span(Layer::kNetsimRun);
      r = run_simulation(*problem_, mapping_, cfg);
    }
    const auto t1 = Clock::now();
    PowerReport power;
    {
      auto span = tracer().span(Layer::kPowerReport);
      power = DsentLitePowerModel().report(r.activity, r.measured_cycles,
                                           problem_->num_tiles(),
                                           num_directed_links(
                                               problem_->mesh()));
    }
    const auto t2 = Clock::now();
    if (sample) {
      run_ms_.add(host_scaled(
          std::chrono::duration<double, std::milli>(t2 - t0).count()));
      power_us_.add(
          std::chrono::duration<double, std::micro>(t2 - t1).count());
      max_apl_sum_ += r.max_apl;
    }
    check(r, power);
    return r;
  }

  static std::uint64_t cycle_counter() {
    for (const obs::MetricRow& row : obs::snapshot()) {
      if (row.name == "netsim.cycles") return row.count;
    }
    return 0;
  }

  void check(SimResult& r, const PowerReport& power) {
    auto span = tracer().span(Layer::kCheck);
    if (options_.tamper != Tamper::kNone && !tampered_) {
      tampered_ = true;
      if (options_.tamper == Tamper::kDigest) {
        r.apl[0] = std::nextafter(r.apl[0], 0.0);
      } else {
        --r.flits_ejected;
      }
    }
    bool ok = checker_.expect(r.flits_injected == r.flits_ejected,
                              "flits injected != flits ejected");
    ok = checker_.expect(!r.drain_incomplete, "drain incomplete") && ok;
    ok = checker_.expect(r.packets_measured > 0 && std::isfinite(r.max_apl) &&
                             r.max_apl > 0,
                         "no measured packets") &&
         ok;
    ok = checker_.expect(std::isfinite(power.total_mw) && power.total_mw > 0,
                         "power not positive") &&
         ok;
    std::ostringstream value;
    value << "apl";
    for (const double apl : r.apl) value << ' ' << hexfloat(apl);
    const ActivityCounters& a = r.activity;
    value << " activity";
    for (const std::uint64_t c :
         {a.buffer_writes, a.buffer_reads, a.crossbar_traversals,
          a.link_traversals, a.sw_arbitrations, a.vc_allocations,
          a.queue_wait_cycles}) {
      value << ' ' << c;
    }
    value << " flits " << r.flits_injected << " power "
          << hexfloat(power.total_mw);
    ok = checker_.digest("result", value.str()) && ok;
    checker_.record(ok);
  }

  const Options& options_;
  Checker& checker_;
  const std::size_t workers_;
  std::unique_ptr<ObmProblem> problem_;
  Mapping mapping_;
  Samples run_ms_;
  Samples power_us_;
  double max_apl_sum_ = 0.0;
  bool tampered_ = false;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_simulate_workload(
    const Options& options, Checker& checker) {
  return std::make_unique<SimulateWorkload>(options, checker);
}

}  // namespace perfbench
