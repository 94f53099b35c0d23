// nocmap benchmark: runs one workload and prints its result.
//
//   nocmap_perfbench --workload map|serve|simulate|campaign --seed N
//                    --seconds S --trace 0|1 --metrics metrics.json
//                    [--reference reference.json] [--work-dir DIR]
//                    [--source ID] [--dump-digests FILE]
//                    [--tamper none|digest|invariant]
//
// A run runs closed-loop units for S seconds with every output checked and
// sets the workload up again between units, up to kSetupRuns set-ups in
// all (setup_s is their median). The host probe runs before every unit and
// the first set-up, and the end-to-end timings are scaled by it. With
// --trace 1 it then sets up once more and runs a quarter as many units with
// spans on, and reports the per-layer metrics instead of the end-to-end
// ones, together with the tracing overhead per unit against the untraced
// phase. The last line of stdout is the result object.
#include <malloc.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "obs/json.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using nocmap::obs::JsonValue;

/// setup_s is the median of up to this many set-ups spread evenly over the
/// run: one before the first unit, the rest between units. Set-up takes
/// from microseconds to tens of milliseconds, so a burst of set-ups at the
/// start would all see the same momentary state of the machine.
constexpr std::size_t kSetupRuns = 25;
/// Largest accepted gap between the summed span self times and the traced
/// phase's wall time, as a share of the wall time.
constexpr double kAccountingTolerance = 0.01;

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

/// Peak resident set of this process image, without the host probe's
/// tables. VmHWM restarts at exec, while getrusage's ru_maxrss keeps the
/// peak of the process that exec'd us.
double peak_rss_mb() {
  const double probe_mb =
      static_cast<double>(host_probe().bytes()) / (1024.0 * 1024.0);
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0 - probe_mb;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0 - probe_mb;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += JsonValue::escape(s);
  out += '"';
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("metric is not finite");
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

struct Args {
  Options options;
  std::string metrics_path;
  std::string reference_path;
  std::string dump_digests;
  std::string source = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.options.workload = v;
    } else if (arg == "--seed") {
      a.options.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      a.options.seconds = std::stod(v);
    } else if (arg == "--trace") {
      a.options.trace = v == "1";
    } else if (arg == "--metrics") {
      a.metrics_path = v;
    } else if (arg == "--reference") {
      a.reference_path = v;
    } else if (arg == "--work-dir") {
      a.options.work_dir = v;
    } else if (arg == "--source") {
      a.source = v;
    } else if (arg == "--dump-digests") {
      a.dump_digests = v;
    } else if (arg == "--tamper") {
      a.options.tamper = v == "digest"      ? Tamper::kDigest
                         : v == "invariant" ? Tamper::kInvariant
                                            : Tamper::kNone;
    } else {
      throw std::runtime_error("unknown argument " + arg);
    }
  }
  if (a.metrics_path.empty()) throw std::runtime_error("--metrics required");
  a.options.cross_check = !a.dump_digests.empty();
  return a;
}

std::unique_ptr<BenchWorkload> make_workload(const Options& options,
                                             Checker& checker) {
  if (options.workload == "map") return make_map_workload(options, checker);
  if (options.workload == "serve") {
    return make_serve_workload(options, checker);
  }
  if (options.workload == "simulate") {
    return make_simulate_workload(options, checker);
  }
  if (options.workload == "campaign") {
    return make_campaign_workload(options, checker);
  }
  throw std::runtime_error("unknown workload " + options.workload);
}

int run(const Args& args) {
  const Options& opt = args.options;
  const JsonValue metrics = JsonValue::parse(read_file(args.metrics_path));
  JsonValue reference;
  const JsonValue* expected = nullptr;
  if (opt.seed == kReferenceSeed && !args.reference_path.empty()) {
    reference = JsonValue::parse(read_file(args.reference_path));
    expected = reference.find(opt.workload);
    if (expected == nullptr) {
      throw std::runtime_error("reference has no entry for " + opt.workload);
    }
  }
  Checker checker(expected);
  std::unique_ptr<BenchWorkload> workload = make_workload(opt, checker);
#ifdef M_ARENA_MAX
  // One malloc arena per thread at most: otherwise how many arenas the
  // worker threads of successive units end up with depends on timing, and
  // peak_rss_mb with it.
  mallopt(M_ARENA_MAX, static_cast<int>(workload->workers() + 1));
#endif

  Samples setup_s;
  auto timed_setup = [&] {
    const auto t0 = Clock::now();
    workload->setup();
    setup_s.add(host_seconds_since(t0));
  };
  HostProbe& probe = host_probe();
  probe.run();
  timed_setup();

  workload->reset_samples();
  Samples unit_rates;
  const std::size_t cycle = workload->units_per_cycle();
  const double probe_start_s = probe.total_s();
  const auto start = Clock::now();
  do {
    probe.run();
    const auto t0 = Clock::now();
    const double work = workload->run_unit();
    unit_rates.add(work / host_seconds_since(t0));
    if (setup_s.size() < kSetupRuns &&
        seconds_since(start) >= static_cast<double>(setup_s.size()) *
                                    opt.seconds / kSetupRuns) {
      timed_setup();
    }
  } while (unit_rates.size() % cycle != 0 ||
           seconds_since(start) < opt.seconds);
  const double wall_s = seconds_since(start);
  const double probe_s = probe.total_s() - probe_start_s;
  const std::size_t units = unit_rates.size();
  EndToEnd e2e = workload->end_to_end();
  e2e.ops_per_s = unit_rates.percentile(50);
  const std::vector<Metric> named = workload->named(e2e);

  std::map<std::string, double> layers;
  bool accounting_ok = true;
  if (opt.trace) {
    Tracer& t = tracer();
    t.reset();
    workload->reset_samples();
    const auto before = ObsDelta::take();
    t.set_enabled(true);
    const auto traced_start = Clock::now();
    // A quarter of the untraced units, rounded up to whole cycles over the
    // inputs.
    const std::size_t traced_units = (units / cycle + 3) / 4 * cycle;
    double traced_units_s = 0.0;
    {
      auto root = t.span(Layer::kBench);
      workload->setup();
      const auto units_start = Clock::now();
      for (std::size_t u = 0; u < traced_units; ++u) workload->run_unit();
      traced_units_s = seconds_since(units_start);
    }
    const double traced_s = seconds_since(traced_start);
    t.set_enabled(false);
    const ObsDelta delta(before, ObsDelta::take());
    workload->layers(delta, layers);

    std::uint64_t self_ns = 0;
    std::cout << "layer self time over the traced phase (" << traced_units
              << " units, " << traced_s * 1e3 << " ms):\n";
    for (std::size_t i = 0; i < t.totals().size(); ++i) {
      const Tracer::Totals& tot = t.totals()[i];
      self_ns += tot.self_ns;
      const double ms = static_cast<double>(tot.self_ns) / 1e6;
      // Set-up layers ran once in the traced phase; the others per unit.
      const Layer layer = static_cast<Layer>(i);
      const std::string stem = std::string("layer.") + layer_name(layer);
      if (is_setup_layer(layer)) {
        layers[stem + ".self_ms"] = ms;
      } else {
        layers[stem + ".self_ms_per_unit"] =
            ms / static_cast<double>(traced_units);
      }
      if (tot.spans > 0) {
        std::cout << "  " << std::left << std::setw(24)
                  << layer_name(static_cast<Layer>(i)) << std::right
                  << std::setw(12) << ms << " ms  " << std::setw(8)
                  << tot.spans << " spans\n";
      }
    }
    const double self_share = static_cast<double>(self_ns) / 1e9 / traced_s;
    accounting_ok = std::fabs(self_share - 1.0) <= kAccountingTolerance;
    std::cout << "  self times sum to " << self_share * 100
              << "% of the traced wall time (tolerance "
              << kAccountingTolerance * 100 << "%): "
              << (accounting_ok ? "ok" : "OUTSIDE TOLERANCE") << "\n";
    layers["trace.self_time_sum_pct"] = self_share * 100;
    // Both sides unscaled; the traced phase runs no probes.
    const double untraced_unit_s =
        (wall_s - probe_s) / static_cast<double>(units);
    layers["obs.trace_overhead_pct"] =
        (traced_units_s / static_cast<double>(traced_units) -
         untraced_unit_s) /
        untraced_unit_s * 100;
    workload->after_trace(layers);
  }

  // Every metric the code produced must be declared, and every declared
  // metric of the run's kind is printed (0 where this workload bypasses
  // the layer).
  const char* kind = opt.trace ? "per_layer" : "end_to_end";
  std::map<std::string, double> values;
  if (opt.trace) {
    values = layers;
  } else {
    values = {{"setup_s", setup_s.percentile(50)},
              {"ops_per_s", e2e.ops_per_s},
              {"op_ms_p50", e2e.op_ms_p50},
              {"op_ms_tail", e2e.op_ms_tail},
              {"max_apl_cycles", e2e.max_apl_cycles},
              {"peak_rss_mb", peak_rss_mb()}};
  }
  const JsonValue* declared = metrics.find(kind);
  for (const auto& [name, value] : values) {
    bool found = false;
    for (const JsonValue& m : declared->items()) {
      found = found || m.find("name")->as_string() == name;
    }
    if (!found) throw std::runtime_error("undeclared metric " + name);
  }

  Samples probe_ms;
  for (const double t : probe.times()) probe_ms.add(t * 1e3);
  JsonValue fingerprint;
  fingerprint["cpu"] = cpu_model();
  fingerprint["nproc"] = std::uint64_t{available_cpus()};
  fingerprint["compiler"] = PERFBENCH_COMPILER;
  fingerprint["build_type"] = PERFBENCH_BUILD_TYPE;
  fingerprint["nocmap_obs"] = nocmap::obs::compiled_in() ? "ON" : "OFF";
  fingerprint["source"] = args.source;
  fingerprint["workload"] = opt.workload;
  fingerprint["workers"] = std::uint64_t{workload->workers()};
  fingerprint["seed"] = opt.seed;
  fingerprint["reference_checked"] = expected != nullptr;
  fingerprint["host_probe_ms_p50"] = probe_ms.percentile(50);
  std::cout << "fingerprint: " << fingerprint.dump(0) << "\n";
  std::cout << opt.workload << ": " << units << " units in " << wall_s
            << " s, " << e2e.op_samples << " latency samples (tail = p"
            << e2e.tail_percentile << "), setup median of " << setup_s.size()
            << "\n";
  std::cout << "host probe: median " << probe_ms.percentile(50) << " ms over "
            << probe_ms.size() << " probes (" << probe_s / wall_s * 100
            << "% of the run), reference " << HostProbe::kReferenceS * 1e3
            << " ms; timings below are scaled to the reference host\n";
  for (const Metric& m : named) {
    std::cout << "  " << std::left << std::setw(24) << m.name << std::right
              << std::setw(16) << m.value << " " << m.unit << "\n";
  }
  const double error_rate =
      checker.attempted() > 0 ? static_cast<double>(checker.failed()) /
                                    static_cast<double>(checker.attempted())
                              : 1.0;
  std::cout << "  " << std::left << std::setw(24) << "error_rate"
            << std::right << std::setw(16) << error_rate << " fraction ("
            << checker.failed() << " of " << checker.attempted()
            << " operations failed)\n";

  if (!args.dump_digests.empty()) {
    JsonValue dump;
    for (const auto& [key, value] : checker.digests()) dump[key] = value;
    std::ofstream(args.dump_digests) << dump.dump(2) << "\n";
  }

  std::string out = "{\"correct\": ";
  out += checker.failed() == 0 && accounting_ok ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checker.attempted());
  out += ", \"failed\": " + std::to_string(checker.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const JsonValue& m : declared->items()) {
    const std::string& name = m.find("name")->as_string();
    const auto it = values.find(name);
    out += (first ? "" : ", ") + quoted(name) + ": {\"value\": " +
           number(it == values.end() ? 0.0 : it->second) +
           ", \"unit\": " + quoted(m.find("unit")->as_string()) + "}";
    first = false;
  }
  out += "}}";
  std::cout << out << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "nocmap_perfbench: " << e.what() << "\n";
    return 2;
  }
}
