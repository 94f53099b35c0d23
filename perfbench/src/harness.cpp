#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <utility>

namespace perfbench {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

constexpr std::uint64_t kMaxReportedFailures = 5;

std::uint64_t lcg(std::uint64_t x) {
  return x * 6364136223846793005ULL + 1442695040888963407ULL;
}

}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::size_t available_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

HostProbe::HostProbe()
    : l2_(std::size_t{1} << 18), l3_(std::size_t{1} << 22),
      table_(std::size_t{1} << 15), rows_(8 * 64) {}

void HostProbe::run() {
  const auto warm_start = Clock::now();
  // Bring both tables back into cache, so what the workload left there does
  // not change the probe's time.
  std::uint64_t h = 0;
  for (const std::uint32_t v : l2_) h += v;
  for (const std::uint32_t v : l3_) h += v;
  const auto start = Clock::now();
  for (int i = 0; i < 400000; ++i) {
    h = lcg(h);
    l2_[(h >> 40) & (l2_.size() - 1)] += static_cast<std::uint32_t>(h);
  }
  for (int i = 0; i < 200000; ++i) {
    h = lcg(h);
    l3_[(h >> 40) & (l3_.size() - 1)] += static_cast<std::uint32_t>(h);
  }
  std::fill(table_.begin(), table_.end(), 0);
  const std::size_t mask = table_.size() - 1;
  for (int pass = 0; pass < 2; ++pass) {
    std::uint64_t key = 1;
    for (int i = 0; i < 20000; ++i) {
      key = lcg(key);
      const std::uint64_t k = (key >> 24) | 1;
      std::size_t slot = ((k * 0x9e3779b97f4a7c15ULL) >> 49) & mask;
      while (table_[slot] != 0 && table_[slot] != k) slot = (slot + 1) & mask;
      if (pass == 0) {
        table_[slot] = k;
      } else {
        h += slot;
      }
    }
  }
  // Eight interleaved shuffles of 64 entries keep many dependent stores in
  // flight, which some host states slow far more than loads (the Monte
  // Carlo mapper's candidate generation is such code).
  std::array<std::uint64_t, 8> streams{};
  for (std::size_t k = 0; k < streams.size(); ++k) streams[k] = h + k;
  for (int rep = 0; rep < 2400; ++rep) {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      rows_[i] = static_cast<std::uint16_t>(i % 64);
    }
    for (std::size_t i = 63; i > 0; --i) {
      for (std::size_t k = 0; k < streams.size(); ++k) {
        streams[k] = lcg(streams[k]);
        const std::size_t j = ((streams[k] >> 32) * (i + 1)) >> 32;
        std::swap(rows_[k * 64 + i], rows_[k * 64 + j]);
      }
    }
  }
  h += rows_[5] + streams[3];
  const double t = seconds_since(start);
  sink_ += h;
  times_.push_back(t);
  scale_ = kReferenceS / t;
  total_s_ += seconds_since(warm_start);
}

std::size_t HostProbe::bytes() const {
  return (l2_.size() + l3_.size()) * sizeof(std::uint32_t) +
         table_.size() * sizeof(std::uint64_t) +
         rows_.size() * sizeof(std::uint16_t);
}

HostProbe& host_probe() {
  static HostProbe probe;
  return probe;
}

double host_seconds_since(Clock::time_point start) {
  return host_scaled(seconds_since(start));
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kCheck: return "bench.check";
    case Layer::kWorkloadSynthesize: return "workload.synthesize";
    case Layer::kLatencyModel: return "latency.model_build";
    case Layer::kCostCache: return "core.cost_cache";
    case Layer::kMapper: return "core.mapper";
    case Layer::kEvaluate: return "core.evaluate";
    case Layer::kTraceGenerate: return "service.generate_trace";
    case Layer::kServiceConstruct: return "service.construct";
    case Layer::kServiceHandle: return "service.handle";
    case Layer::kNetsimRun: return "netsim.run_simulation";
    case Layer::kPowerReport: return "power.report";
    case Layer::kSweepSpec: return "sweep.spec";
    case Layer::kSweepCampaign: return "sweep.run_campaign";
    case Layer::kSweepReadLog: return "sweep.read_log";
    case Layer::kSweepAggregate: return "sweep.aggregate";
    case Layer::kCount: break;
  }
  return "?";
}

bool is_setup_layer(Layer layer) {
  return layer == Layer::kWorkloadSynthesize ||
         layer == Layer::kLatencyModel || layer == Layer::kTraceGenerate ||
         layer == Layer::kSweepSpec;
}

Tracer::Span::Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
  if (tracer_) tracer_->open(layer);
}

Tracer::Span::~Span() {
  if (tracer_) tracer_->close();
}

void Tracer::open(Layer layer) { stack_.push_back({layer, now_ns(), 0}); }

void Tracer::close() {
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = now_ns() - frame.start_ns;
  Totals& t = totals_[static_cast<std::size_t>(frame.layer)];
  ++t.spans;
  t.self_ns += duration - std::min(duration, frame.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

void Tracer::reset() {
  stack_.clear();
  totals_ = {};
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

double Samples::sum() const {
  double s = 0.0;
  for (const double v : values_) s += v;
  return s;
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  const auto rank = static_cast<std::size_t>(
      std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 *
                static_cast<double>(sorted.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(idx),
                   sorted.end());
  return sorted[idx];
}

double Samples::block_percentile(double p) const {
  if (values_.size() < kBlocks) return percentile(p);
  Samples medians;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    Samples block;
    const std::size_t first = values_.size() * b / kBlocks;
    const std::size_t last = values_.size() * (b + 1) / kBlocks;
    block.values_.assign(values_.begin() + static_cast<std::ptrdiff_t>(first),
                         values_.begin() + static_cast<std::ptrdiff_t>(last));
    medians.add(block.percentile(p));
  }
  return medians.percentile(50);
}

void Checker::record(bool ok, std::uint64_t ops) {
  attempted_ += ops;
  if (!ok) failed_ += ops;
}

bool Checker::expect(bool condition, const std::string& what) {
  if (!condition && reported_++ < kMaxReportedFailures) {
    std::cout << "CHECK FAILED: " << what << "\n";
  }
  return condition;
}

bool Checker::digest(const std::string& key, const std::string& value) {
  digests_[key] = value;
  if (reference_ == nullptr) return true;
  const nocmap::obs::JsonValue* want = reference_->find(key);
  if (want == nullptr) {
    return expect(false, "no reference digest for " + key);
  }
  return expect(want->is_string() && want->as_string() == value,
                "digest " + key + " = " + value + ", reference " +
                    (want->is_string() ? want->as_string() : "?"));
}

void Fnv::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Fnv::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

void Fnv::add(const std::string& s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  add(static_cast<std::uint64_t>(s.size()));
}

std::string Fnv::hex() const { return hex64(h_); }

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string hexfloat(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::map<std::string, nocmap::obs::MetricRow> ObsDelta::take() {
  std::map<std::string, nocmap::obs::MetricRow> rows;
  for (nocmap::obs::MetricRow& row : nocmap::obs::snapshot()) {
    std::string name = row.name;
    rows.emplace(std::move(name), std::move(row));
  }
  return rows;
}

ObsDelta::ObsDelta(
    const std::map<std::string, nocmap::obs::MetricRow>& before,
    const std::map<std::string, nocmap::obs::MetricRow>& after) {
  for (const auto& [name, row] : after) {
    nocmap::obs::MetricRow d = row;
    if (const auto it = before.find(name); it != before.end()) {
      d.count -= it->second.count;
      d.total_ns -= it->second.total_ns;
    }
    delta_.emplace(name, d);
  }
}

double ObsDelta::count(const std::string& name) const {
  const auto it = delta_.find(name);
  return it == delta_.end() ? 0.0 : static_cast<double>(it->second.count);
}

double ObsDelta::timer_ms(const std::string& name) const {
  const auto it = delta_.find(name);
  return it == delta_.end() ? 0.0
                            : static_cast<double>(it->second.total_ns) / 1e6;
}

}  // namespace perfbench
