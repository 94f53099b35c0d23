// Shared machinery of the nocmap benchmark: layer spans and their self-time
// accounting, latency samples, output checks with reference digests, deltas
// of the program's own obs counters, and the interface each workload
// implements.
//
// Spans are recorded here, in the benchmark's files, around each call into
// a nocmap module; nothing inside src/ is instrumented for the benchmark.
// A span's self time is its duration minus the durations of its direct
// children, so the self times of all spans add up to the duration of the
// root span, which covers the whole traced phase.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// CPUs this process may run on (its affinity mask).
std::size_t available_cpus();

/// Host speed probe. The benchmark's hosts are shared: neighbours on the
/// same cache and cores make the same code run 20-40% slower in spells that
/// last from seconds to minutes, longer than a run. So the benchmark times a
/// fixed probe before every unit and multiplies the unit's end-to-end
/// timings by scale(), the probe's reference time over its latest time:
/// they read as times on the reference host at its usual speed. The probe
/// is the benchmark's own code (random updates of an L2-sized and an
/// L3-sized table, inserts and lookups in an open-addressing hash table,
/// interleaved Fisher-Yates shuffles), so a change to nocmap never changes
/// it. Per-layer timings stay unscaled.
class HostProbe {
 public:
  /// Median probe time on the reference host (4-vCPU Intel Xeon VM, GCC
  /// 12.2, Release).
  static constexpr double kReferenceS = 6.0e-3;

  HostProbe();
  /// Times the probe once; its scale applies until the next run().
  void run();
  double scale() const { return scale_; }
  /// Probe times of the runs so far.
  const std::vector<double>& times() const { return times_; }
  /// Wall time spent probing, warm-up included.
  double total_s() const { return total_s_; }
  /// Memory the probe's tables hold; all of it is resident.
  std::size_t bytes() const;

 private:
  std::vector<std::uint32_t> l2_;
  std::vector<std::uint32_t> l3_;
  std::vector<std::uint64_t> table_;
  std::vector<std::uint16_t> rows_;
  std::vector<double> times_;
  double scale_ = 1.0;
  double total_s_ = 0.0;
  std::uint64_t sink_ = 0;
};

HostProbe& host_probe();

/// Seconds `start` to now, scaled by the latest host probe.
double host_seconds_since(Clock::time_point start);
/// A timing scaled by the latest host probe.
inline double host_scaled(double t) { return t * host_probe().scale(); }

/// Workload seed whose outputs are pinned in reference.json.
inline constexpr std::uint64_t kReferenceSeed = 20140519;

/// The modules a span can be charged to. kBench is the benchmark's own loop
/// code (the root span); kCheck is its output checking.
enum class Layer : std::uint8_t {
  kBench,
  kCheck,
  kWorkloadSynthesize,
  kLatencyModel,
  kCostCache,
  kMapper,
  kEvaluate,
  kTraceGenerate,
  kServiceConstruct,
  kServiceHandle,
  kNetsimRun,
  kPowerReport,
  kSweepSpec,
  kSweepCampaign,
  kSweepReadLog,
  kSweepAggregate,
  kCount,
};

const char* layer_name(Layer layer);
/// True for layers only BenchWorkload::setup() calls into.
bool is_setup_layer(Layer layer);

/// Single-threaded span recorder. When disabled, spans cost one branch.
class Tracer {
 public:
  struct Totals {
    std::uint64_t spans = 0;
    std::uint64_t self_ns = 0;
  };

  class Span {
   public:
    Span(Tracer* tracer, Layer layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  [[nodiscard]] Span span(Layer layer) {
    return Span(enabled_ ? this : nullptr, layer);
  }
  const std::array<Totals, static_cast<std::size_t>(Layer::kCount)>& totals()
      const {
    return totals_;
  }
  void reset();

 private:
  struct Frame {
    Layer layer;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  void open(Layer layer);
  void close();

  bool enabled_ = false;
  std::vector<Frame> stack_;
  std::array<Totals, static_cast<std::size_t>(Layer::kCount)> totals_{};
};

Tracer& tracer();

/// Latency samples with nearest-rank percentiles.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  double sum() const;
  /// p in [0, 100]; 0 when empty.
  double percentile(double p) const;
  /// Median over kBlocks consecutive blocks of the samples (in the order
  /// added) of each block's p-th percentile: the host's speed drifts over
  /// seconds, and a slow spell then moves at most the blocks it covers.
  double block_percentile(double p) const;
  static constexpr std::size_t kBlocks = 5;
  void clear() { values_.clear(); }

 private:
  std::vector<double> values_;
};

/// Counts operations and failed operations, and compares output digests
/// against the reference at the reference seed.
class Checker {
 public:
  /// `reference` is the workload's object from reference.json, or null at
  /// a non-reference seed (then only invariants are checked).
  explicit Checker(const nocmap::obs::JsonValue* reference)
      : reference_(reference) {}

  /// Records `ops` attempted operations; all of them fail when !ok.
  void record(bool ok, std::uint64_t ops = 1);
  /// Checks one digest. True when it matches the reference or no reference
  /// applies. The actual value is kept for --dump-digests.
  bool digest(const std::string& key, const std::string& value);
  /// An invariant of the outputs; prints the first few violations.
  bool expect(bool condition, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, std::string>& digests() const {
    return digests_;
  }

 private:
  const nocmap::obs::JsonValue* reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t reported_ = 0;
  std::map<std::string, std::string> digests_;
};

/// FNV-1a/64 folding, formatted as 0x-prefixed hex.
class Fnv {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const std::string& s);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v);
std::string hexfloat(double v);

/// Change of the program's own obs counters and timers between two points.
class ObsDelta {
 public:
  static std::map<std::string, nocmap::obs::MetricRow> take();
  ObsDelta(const std::map<std::string, nocmap::obs::MetricRow>& before,
           const std::map<std::string, nocmap::obs::MetricRow>& after);
  /// Counter increments, or completed spans of a timer.
  double count(const std::string& name) const;
  /// Summed timer durations in milliseconds.
  double timer_ms(const std::string& name) const;

 private:
  std::map<std::string, nocmap::obs::MetricRow> delta_;
};

/// Which output a workload should deliberately alter (self-test only): the
/// digest-level tamper changes a value that only the reference digest pins,
/// the invariant-level one breaks an invariant checked at every seed.
enum class Tamper : std::uint8_t { kNone, kDigest, kInvariant };

struct Options {
  std::string workload;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 10.0;
  bool trace = false;
  Tamper tamper = Tamper::kNone;
  /// Set while recording reference digests: workloads that fold a digest
  /// themselves also compute the library's own digest and compare.
  bool cross_check = false;
  /// Scratch directory for campaign logs (inside the checkout).
  std::string work_dir = ".bench_build/work";
};

/// One metric value with its unit, in output order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The end-to-end numbers of the untraced phase; setup_s and peak_rss_mb
/// are added by main.cpp.
struct EndToEnd {
  /// Median over units of the work a unit completed per second of it.
  double ops_per_s = 0.0;
  double op_ms_p50 = 0.0;
  /// Latency at the workload's tail percentile (the highest one that has
  /// at least ten samples beyond it in a run).
  double op_ms_tail = 0.0;
  double tail_percentile = 99.0;
  std::size_t op_samples = 0;
  double max_apl_cycles = 0.0;
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  /// Workers (threads) the workload runs on, including the caller.
  virtual std::size_t workers() const = 0;
  /// Builds every input from the seed; main.cpp times it as setup_s. It
  /// may run again between units and must rebuild the same inputs.
  virtual void setup() = 0;
  /// One closed-loop unit of work (a round of maps, a trace pass, one
  /// simulation, one campaign), each output checked as it completes.
  /// Returns the work done, in what ops_per_s counts.
  virtual double run_unit() = 0;
  /// Units that cover every input once; a run stops on a multiple of it.
  virtual std::size_t units_per_cycle() const { return 1; }
  /// Forgets the samples of earlier units.
  virtual void reset_samples() = 0;
  /// Latency and quality over the units since reset_samples.
  virtual EndToEnd end_to_end() const = 0;
  /// The workload's numbers under their own names (maps_per_s,
  /// decision_us_p99, ...), printed for people.
  virtual std::vector<Metric> named(const EndToEnd& e) const = 0;
  /// Per-layer metrics of the traced phase; `obs` is the change of the
  /// program's counters over it.
  virtual void layers(const ObsDelta& obs,
                      std::map<std::string, double>& out) const = 0;
  /// Extra traced-run measurements taken after the traced phase, outside
  /// its accounting (the simulate workload's 1-worker comparison).
  virtual void after_trace(std::map<std::string, double>&) {}
};

}  // namespace perfbench
