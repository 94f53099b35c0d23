// `serve`: replays churn traces, each pass through a fresh MappingService.
//
// The traces come from generate_trace (apps of 2..16 threads, seeds derived
// from the workload seed) on the 8x8 chip; the service runs serial with
// migration budget 8 at degradation threshold 1.14. At the default 1.25
// the 100k-event micro_service trace never falls back, which would leave
// remap_budgeted and the SSS re-solve unmeasured; at 1.14 a few percent of
// decisions fall back, so the median decision is an incremental one and
// the 99th percentile a fallback.
#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "service/events.h"
#include "service/mapping_service.h"
#include "service/replay.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace nocmap;
using service::Decision;
using service::EventKind;

/// Traces per run cycle and events per trace. The fallback share, which
/// sets about half of the serving time, differs by up to 2x between single
/// traces; a cycle over kTraces traces evens that out between seeds.
constexpr std::size_t kTraces = 8;
constexpr std::size_t kEventsPerTrace = 10000;
constexpr std::size_t kBudget = 8;
constexpr double kThreshold = 1.14;

/// The fold of service::replay_trace's ReplayStats.digest: every decision
/// field, then the final placement. Recomputed here so a deliberately
/// altered decision shows as a digest mismatch.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return splitmix64(h ^ v);
}

std::uint64_t fold_decision(std::uint64_t h, const Decision& d) {
  h = mix(h, static_cast<std::uint64_t>(d.kind));
  h = mix(h, d.app_id);
  h = mix(h, d.accepted ? 1 : 0);
  h = mix(h, d.placed_threads);
  h = mix(h, d.moved_threads);
  h = mix(h, (d.used_fallback ? 2ULL : 0ULL) |
                 (d.quality_degraded ? 1ULL : 0ULL));
  h = mix(h, std::bit_cast<std::uint64_t>(d.objective));
  h = mix(h, std::bit_cast<std::uint64_t>(d.lower_bound));
  h = mix(h, (static_cast<std::uint64_t>(d.residents) << 32) |
                 d.occupied_tiles);
  return h;
}

service::ServiceConfig service_config() {
  service::ServiceConfig config;
  config.migration_budget = kBudget;
  config.degradation_threshold = kThreshold;
  config.sss.parallel = ParallelConfig::serial_config();
  return config;
}

class ServeWorkload final : public BenchWorkload {
 public:
  ServeWorkload(const Options& options, Checker& checker)
      : options_(options), checker_(checker) {}

  std::size_t workers() const override { return 1; }

  std::size_t units_per_cycle() const override { return kTraces; }

  void setup() override {
    traces_.clear();
    {
      auto span = tracer().span(Layer::kTraceGenerate);
      for (std::size_t i = 0; i < kTraces; ++i) {
        service::TraceConfig trace;
        trace.seed = splitmix64(options_.seed * kTraces + i);
        trace.num_events = kEventsPerTrace;
        trace.num_tiles = 64;
        trace.min_threads_per_app = 2;
        trace.max_threads_per_app = 16;
        traces_.push_back(service::generate_trace(trace));
      }
    }
    construct();
  }

  double run_unit() override {
    const std::size_t trace_index = next_trace_;
    next_trace_ = (next_trace_ + 1) % kTraces;
    const std::vector<service::Event>& events = traces_[trace_index];
    // The first pass after setup() uses the service it built.
    if (!engine_) construct();
    const std::unique_ptr<service::MappingService> engine = std::move(engine_);
    std::optional<std::uint64_t> library_digest;
    if (options_.cross_check) {
      service::MappingService fresh(engine->chip(), engine->config());
      library_digest = service::replay_trace(fresh, events).digest;
    }
    std::uint64_t digest = 0;
    std::uint64_t invariant_failures = 0;
    pass_.clear();
    for (const service::Event& event : events) {
      const auto t0 = Clock::now();
      Decision d;
      {
        auto span = tracer().span(Layer::kServiceHandle);
        d = engine->handle(event);
      }
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count();
      pass_.push_back({us, d.used_fallback});
      decision_total_us_ += us;
      if (d.used_fallback) {
        ++fallbacks_;
        fallback_total_us_ += us;
      }
      // Per-path samples serve only the traced run's layer metrics.
      if (tracer().enabled()) {
        (d.used_fallback ? fallback_us_
                         : kind_us_[static_cast<std::size_t>(d.kind)])
            .add(us);
      }
      if (d.accepted && d.residents > 0) {
        objective_sum_ += d.objective;
        ratio_sum_ += d.lower_bound > 0 ? d.objective / d.lower_bound : 1.0;
        ++objective_samples_;
      }
      if (options_.tamper != Tamper::kNone && !tampered_) {
        tampered_ = true;
        if (options_.tamper == Tamper::kDigest) {
          d.used_fallback = !d.used_fallback;
        } else {
          d.moved_threads = kBudget + 1;
        }
      }
      if (!decision_ok(event, d)) ++invariant_failures;
      digest = fold_decision(digest, d);
    }

    auto span = tracer().span(Layer::kCheck);
    bool state_ok = true;
    const std::vector<std::uint64_t> occupancy = engine->occupancy();
    std::size_t occupied = 0;
    for (const service::Resident& r : engine->residents()) {
      digest = mix(digest, r.id);
      state_ok = checker_.expect(r.tiles.size() == r.app.threads.size(),
                                 "resident tile count != thread count") &&
                 state_ok;
      for (const TileId k : r.tiles) {
        digest = mix(digest, k);
        state_ok = checker_.expect(k < occupancy.size() &&
                                       occupancy[k] == r.id,
                                   "two residents share a tile") &&
                   state_ok;
      }
      occupied += r.tiles.size();
    }
    state_ok = checker_.expect(occupied == engine->occupied_tiles(),
                               "occupied tile count disagrees") &&
               state_ok;
    if (library_digest) {
      state_ok = checker_.expect(*library_digest == digest,
                                 "decision digest differs from "
                                 "ReplayStats.digest") &&
                 state_ok;
    }
    const bool digest_ok = checker_.digest(
        "trace" + std::to_string(trace_index), hex64(digest));
    const std::uint64_t n = events.size();
    const std::uint64_t failed =
        digest_ok && state_ok ? invariant_failures : n;
    checker_.record(true, n - failed);
    checker_.record(false, failed);
    decisions_ += n;
    const Sample p50 = pass_percentile(50);
    const Sample p99 = pass_percentile(99);
    pass_p50_us_.add(host_scaled(p50.first));
    pass_p99_us_.add(host_scaled(p99.first));
    p50_incremental_ += p50.second ? 0 : 1;
    p99_fallback_ += p99.second ? 1 : 0;
    return static_cast<double>(n);
  }

  void reset_samples() override {
    pass_p50_us_.clear();
    pass_p99_us_.clear();
    fallback_us_.clear();
    for (Samples& s : kind_us_) s.clear();
    decisions_ = fallbacks_ = p50_incremental_ = p99_fallback_ = 0;
    decision_total_us_ = fallback_total_us_ = 0.0;
    objective_sum_ = ratio_sum_ = 0.0;
    objective_samples_ = 0;
  }

  EndToEnd end_to_end() const override {
    EndToEnd e;
    e.op_ms_p50 = pass_p50_us_.percentile(50) / 1e3;
    e.op_ms_tail = pass_p99_us_.percentile(50) / 1e3;
    e.op_samples = decisions_;
    e.max_apl_cycles =
        objective_sum_ / static_cast<double>(objective_samples_);
    return e;
  }

  std::vector<Metric> named(const EndToEnd& e) const override {
    return {{"decisions_per_s", e.ops_per_s, "1/s"},
            {"decision_us_p50", e.op_ms_p50 * 1e3, "us"},
            {"decision_us_p99", e.op_ms_tail * 1e3, "us"},
            {"objective_ratio",
             ratio_sum_ / static_cast<double>(objective_samples_), "-"},
            {"fallback_share",
             static_cast<double>(fallbacks_) /
                 static_cast<double>(decisions_),
             "fraction"},
            {"p50_incremental_share",
             static_cast<double>(p50_incremental_) /
                 static_cast<double>(pass_p50_us_.size()),
             "fraction"},
            {"p99_fallback_share",
             static_cast<double>(p99_fallback_) /
                 static_cast<double>(pass_p99_us_.size()),
             "fraction"}};
  }

  void layers(const ObsDelta& obs,
              std::map<std::string, double>& out) const override {
    const char* kinds[] = {"arrival", "departure", "phase_change"};
    for (std::size_t k = 0; k < 3; ++k) {
      const std::string stem = std::string("service.") + kinds[k] + "_us_";
      out[stem + "p50"] = kind_us_[k].percentile(50);
      out[stem + "p99"] = kind_us_[k].percentile(99);
    }
    out["service.fallback_us_p50"] = fallback_us_.percentile(50);
    out["service.fallback_us_p99"] = fallback_us_.percentile(99);
    const double events = static_cast<double>(decisions_);
    out["service.fallback_share"] = static_cast<double>(fallbacks_) / events;
    out["service.fallback_time_share"] =
        fallback_total_us_ / decision_total_us_;
    const double warm = obs.count("assign.warm_solves");
    out["assign.warm_solves_per_event"] = warm / events;
    out["assign.path_steps_per_event"] =
        obs.count("assign.path_steps") / events;
    out["assign.warm_hit_rate"] =
        warm > 0 ? obs.count("assign.warm_hits") / warm : 0.0;
    const double sss_maps = obs.count("sss.maps");
    for (const char* stage : {"sort", "select", "swap", "final_sam"}) {
      out[std::string("sss.") + stage + "_ms"] =
          sss_maps > 0 ? obs.timer_ms(std::string("sss.") + stage) / sss_maps
                       : 0.0;
    }
  }

 private:
  /// (latency in microseconds, decision used the fallback)
  using Sample = std::pair<double, bool>;

  /// Nearest-rank percentile of the current pass, with its path.
  Sample pass_percentile(double p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(pass_.size())));
    const auto nth = pass_.begin() + static_cast<std::ptrdiff_t>(
                                         rank == 0 ? 0 : rank - 1);
    std::nth_element(pass_.begin(), nth, pass_.end());
    return *nth;
  }

  void construct() {
    auto span = tracer().span(Layer::kServiceConstruct);
    engine_ = std::make_unique<service::MappingService>(
        TileLatencyModel(Mesh::square(8), LatencyParams{}), service_config());
  }

  bool decision_ok(const service::Event& event, const Decision& d) {
    bool ok = checker_.expect(d.moved_threads <= kBudget,
                              "decision moved more threads than the budget");
    ok = checker_.expect(d.occupied_tiles <= 64, "occupancy above 64") && ok;
    if (d.accepted && event.kind == EventKind::kArrival) {
      ok = checker_.expect(d.placed_threads == event.app.threads.size(),
                           "accepted arrival not fully placed") &&
           ok;
    }
    if (d.accepted && d.residents > 0) {
      ok = checker_.expect(
               std::isfinite(d.objective) &&
                   d.objective >= d.lower_bound * (1.0 - 1e-9),
               "objective below its lower bound") &&
           ok;
    }
    return ok;
  }

  const Options& options_;
  Checker& checker_;
  std::vector<std::vector<service::Event>> traces_;
  std::size_t next_trace_ = 0;
  std::unique_ptr<service::MappingService> engine_;
  /// Decision latencies of the current pass, and each pass's p50 and p99:
  /// the run reports the median pass, so memory does not grow with the
  /// number of decisions a run completes. The counters say how many
  /// passes had an incremental decision at p50 and a fallback at p99.
  std::vector<Sample> pass_;
  Samples pass_p50_us_;
  Samples pass_p99_us_;
  std::uint64_t p50_incremental_ = 0;
  std::uint64_t p99_fallback_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t fallbacks_ = 0;
  double decision_total_us_ = 0.0;
  double fallback_total_us_ = 0.0;
  Samples fallback_us_;
  Samples kind_us_[3];
  double objective_sum_ = 0.0;
  double ratio_sum_ = 0.0;
  std::uint64_t objective_samples_ = 0;
  bool tampered_ = false;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_serve_workload(const Options& options,
                                                   Checker& checker) {
  return std::make_unique<ServeWorkload>(options, checker);
}

}  // namespace perfbench
