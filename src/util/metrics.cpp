#include "util/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>

#include "util/failpoint.h"
#include "util/pipeline_report.h"
#include "util/table.h"

namespace asteria::util {

namespace {

// JSON string escaping (quotes, backslashes, control characters).
std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatJsonDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  // %g can produce "inf"/"nan" which are not JSON; gauges of non-finite
  // values render as null rather than corrupting the document.
  if (std::strchr(buffer, 'i') != nullptr || std::strchr(buffer, 'n') != nullptr) {
    return "null";
  }
  // Ensure a decimal marker so the value parses as a double downstream.
  if (std::strpbrk(buffer, ".eE") == nullptr) {
    std::strcat(buffer, ".0");
  }
  return buffer;
}

std::string FormatU64(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  return buffer;
}

// Turns raw per-bucket tallies into `value`'s sparse bucket list and
// percentile estimates (count/sum/min/max are already accumulated).
void FinishHistogramValue(const std::uint64_t* buckets,
                          HistogramValue* value) {
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    if (buckets[b] != 0) {
      value->buckets.emplace_back(Histogram::BucketLowerBound(b), buckets[b]);
    }
  }
  value->p50 = value->Percentile(0.50);
  value->p95 = value->Percentile(0.95);
  value->p99 = value->Percentile(0.99);
}

struct PipelineStageStats {
  std::int64_t ok = 0;
  std::int64_t skipped = 0;
  std::int64_t failed = 0;
  std::string first_failure;
};

}  // namespace

// Registry of every metric object in the process. Like FailpointRegistry,
// it is created on first use and never destroyed: metrics are statics in
// arbitrary translation units and may be touched during shutdown.
struct MetricsRegistry {
  std::mutex mutex;
  std::vector<Counter*> counters;
  std::vector<Gauge*> gauges;
  std::vector<Histogram*> histograms;
  std::map<std::string, PipelineStageStats> pipeline;

  static MetricsRegistry& Instance() {
    static MetricsRegistry* registry = new MetricsRegistry;  // never destroyed
    return *registry;
  }

  void Register(Counter* counter) {
    std::lock_guard<std::mutex> lock(mutex);
    counters.push_back(counter);
  }
  void Register(Gauge* gauge) {
    std::lock_guard<std::mutex> lock(mutex);
    gauges.push_back(gauge);
  }
  void Register(Histogram* histogram) {
    std::lock_guard<std::mutex> lock(mutex);
    histograms.push_back(histogram);
  }
};

namespace internal {

unsigned ThreadStripe() {
  static std::atomic<unsigned> next_ordinal{0};
  thread_local const unsigned stripe =
      next_ordinal.fetch_add(1, std::memory_order_relaxed) %
      static_cast<unsigned>(kMetricStripes);
  return stripe;
}

}  // namespace internal

Counter::Counter(const char* name) : name_(name) {
  MetricsRegistry::Instance().Register(this);
}

std::uint64_t Counter::Value() const {
  std::uint64_t total = 0;
  for (const internal::MetricStripe& stripe : stripes_) {
    total += stripe.value.load(std::memory_order_relaxed);
  }
  return total;
}

Gauge::Gauge(const char* name) : name_(name) {
  MetricsRegistry::Instance().Register(this);
}

void Gauge::Set(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  bits_.store(bits, std::memory_order_relaxed);
  set_.store(true, std::memory_order_release);
}

double Gauge::Value() const {
  const std::uint64_t bits = bits_.load(std::memory_order_relaxed);
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Histogram::Histogram(const char* name) : name_(name) {
  for (HistStripe& stripe : stripes_) {
    for (std::atomic<std::uint64_t>& bucket : stripe.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
  MetricsRegistry::Instance().Register(this);
}

int Histogram::BucketIndex(std::uint64_t value) {
  return value == 0 ? 0 : std::bit_width(value);
}

std::uint64_t Histogram::BucketLowerBound(int bucket) {
  return bucket <= 0 ? 0 : std::uint64_t{1} << (bucket - 1);
}

void Histogram::Observe(std::uint64_t value) {
  HistStripe& stripe = stripes_[internal::ThreadStripe()];
  stripe.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  stripe.count.fetch_add(1, std::memory_order_relaxed);
  stripe.sum.fetch_add(value, std::memory_order_relaxed);
  // Relaxed CAS loops: min/max are monotone, so lost races simply retry.
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

double HistogramValue::Percentile(double q) const {
  if (count == 0 || buckets.empty()) return 0.0;
  if (q <= 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation, 1-based: the smallest r with r >= q*n.
  const double exact = q * static_cast<double>(count);
  std::uint64_t rank = static_cast<std::uint64_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (const auto& [lower, tally] : buckets) {
    if (seen + tally < rank) {
      seen += tally;
      continue;
    }
    if (lower == 0) return 0.0;  // bucket 0 holds the exact value 0
    // Bucket i covers [2^(i-1), 2^i); interpolate by the rank's position
    // inside the bucket. The last bucket's ceiling 2^64 exceeds uint64, so
    // width math is done in double.
    const double width = static_cast<double>(lower);  // upper - lower == lower
    const double frac = static_cast<double>(rank - seen) /
                        static_cast<double>(tally);
    return static_cast<double>(lower) + width * frac;
  }
  return static_cast<double>(max);  // unreachable when tallies sum to count
}

void Histogram::AccumulateInto(HistogramValue* value,
                               std::uint64_t* buckets) const {
  std::uint64_t count = 0;
  for (const HistStripe& stripe : stripes_) {
    count += stripe.count.load(std::memory_order_relaxed);
    value->sum += stripe.sum.load(std::memory_order_relaxed);
    for (int b = 0; b < kBuckets; ++b) {
      buckets[b] += stripe.buckets[b].load(std::memory_order_relaxed);
    }
  }
  if (count == 0) return;
  const std::uint64_t min = min_.load(std::memory_order_relaxed);
  value->min = value->count == 0 ? min : std::min(value->min, min);
  value->max = std::max(value->max, max_.load(std::memory_order_relaxed));
  value->count += count;
}

HistogramValue Histogram::SnapshotValue() const {
  HistogramValue value;
  value.name = name_;
  std::uint64_t buckets[kBuckets] = {};
  AccumulateInto(&value, buckets);
  FinishHistogramValue(buckets, &value);
  return value;
}

void PublishPipelineReport(const PipelineReport& report) {
  if (report.stage.empty() && report.total() == 0) return;
  MetricsRegistry& registry = MetricsRegistry::Instance();
  std::lock_guard<std::mutex> lock(registry.mutex);
  PipelineStageStats& stats =
      registry.pipeline[report.stage.empty() ? "(unnamed)" : report.stage];
  stats.ok = report.ok;
  stats.skipped = report.skipped;
  stats.failed = report.failed;
  stats.first_failure.clear();
  for (const std::string& reason : report.reasons) {
    if (!reason.empty()) {
      stats.first_failure = reason;
      break;
    }
  }
}

MetricsSnapshot SnapshotMetrics() {
  MetricsSnapshot snapshot;
  MetricsRegistry& registry = MetricsRegistry::Instance();
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    // Counters merge by name (independent translation units may legally
    // register the same name) and sort for stable output.
    std::map<std::string, std::uint64_t> counters;
    for (const Counter* counter : registry.counters) {
      counters[counter->name()] += counter->Value();
    }
    for (const auto& [name, value] : counters) {
      snapshot.counters.push_back({name, value});
    }
    std::map<std::string, double> gauges;
    for (const Gauge* gauge : registry.gauges) {
      if (gauge->HasValue()) gauges[gauge->name()] = gauge->Value();
    }
    for (const auto& [name, value] : gauges) {
      snapshot.gauges.push_back({name, value});
    }
    // Histograms merge by name too: every ASTERIA_SPAN call site owns one,
    // and one stage name may be recorded from several sites.
    std::map<std::string, std::vector<const Histogram*>> histograms;
    for (const Histogram* histogram : registry.histograms) {
      histograms[histogram->name()].push_back(histogram);
    }
    for (const auto& [name, group] : histograms) {
      HistogramValue value;
      value.name = name;
      std::uint64_t buckets[Histogram::kBuckets] = {};
      for (const Histogram* histogram : group) {
        histogram->AccumulateInto(&value, buckets);
      }
      FinishHistogramValue(buckets, &value);
      snapshot.histograms.push_back(std::move(value));
    }
    for (const auto& [stage, stats] : registry.pipeline) {
      snapshot.pipeline.push_back(
          {stage, stats.ok, stats.skipped, stats.failed, stats.first_failure});
    }
  }
  // Failpoint trip counts surface as counters so robustness runs show which
  // points fired and how often (docs/ROBUSTNESS.md). Only fired points are
  // listed — an exhaustive zero table would drown the interesting rows.
  for (const auto& [name, fires] : FailpointFireCounts()) {
    if (fires > 0) snapshot.counters.push_back({"failpoint." + name, fires});
  }
  std::sort(snapshot.counters.begin(), snapshot.counters.end(),
            [](const CounterValue& a, const CounterValue& b) {
              return a.name < b.name;
            });
  return snapshot;
}

void ResetMetricsForTest() {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    for (Counter* counter : registry.counters) {
      for (internal::MetricStripe& stripe : counter->stripes_) {
        stripe.value.store(0, std::memory_order_relaxed);
      }
    }
    for (Gauge* gauge : registry.gauges) {
      gauge->bits_.store(0, std::memory_order_relaxed);
      gauge->set_.store(false, std::memory_order_relaxed);
    }
    for (Histogram* histogram : registry.histograms) {
      histogram->min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
      histogram->max_.store(0, std::memory_order_relaxed);
      for (Histogram::HistStripe& stripe : histogram->stripes_) {
        stripe.count.store(0, std::memory_order_relaxed);
        stripe.sum.store(0, std::memory_order_relaxed);
        for (std::atomic<std::uint64_t>& bucket : stripe.buckets) {
          bucket.store(0, std::memory_order_relaxed);
        }
      }
    }
    registry.pipeline.clear();
  }
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"schema\": \"asteria.metrics.v2\",\n";

  out += "  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + JsonEscape(counters[i].name) +
           "\": " + FormatU64(counters[i].value);
  }
  out += counters.empty() ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + JsonEscape(gauges[i].name) +
           "\": " + FormatJsonDouble(gauges[i].value);
  }
  out += gauges.empty() ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramValue& h = histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + JsonEscape(h.name) + "\": {\n";
    out += "      \"count\": " + FormatU64(h.count) + ",\n";
    out += "      \"sum\": " + FormatU64(h.sum) + ",\n";
    out += "      \"min\": " + FormatU64(h.count ? h.min : 0) + ",\n";
    out += "      \"max\": " + FormatU64(h.count ? h.max : 0) + ",\n";
    out += "      \"p50\": " + FormatJsonDouble(h.p50) + ",\n";
    out += "      \"p95\": " + FormatJsonDouble(h.p95) + ",\n";
    out += "      \"p99\": " + FormatJsonDouble(h.p99) + ",\n";
    out += "      \"buckets\": {";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out += ", ";
      out += "\"" + FormatU64(h.buckets[b].first) +
             "\": " + FormatU64(h.buckets[b].second);
    }
    out += "}\n    }";
  }
  out += histograms.empty() ? "},\n" : "\n  },\n";

  out += "  \"pipeline\": {";
  for (std::size_t i = 0; i < pipeline.size(); ++i) {
    const PipelineStageValue& stage = pipeline[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + JsonEscape(stage.stage) + "\": {\n";
    out += "      \"ok\": " + std::to_string(stage.ok) + ",\n";
    out += "      \"skipped\": " + std::to_string(stage.skipped) + ",\n";
    out += "      \"failed\": " + std::to_string(stage.failed) + ",\n";
    out += "      \"first_failure\": \"" + JsonEscape(stage.first_failure) +
           "\"\n    }";
  }
  out += pipeline.empty() ? "}\n" : "\n  }\n";

  out += "}\n";
  return out;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  if (!counters.empty() || !gauges.empty()) {
    TextTable table({"metric", "type", "value"});
    for (const CounterValue& counter : counters) {
      table.AddRow({counter.name, "counter", FormatU64(counter.value)});
    }
    for (const GaugeValue& gauge : gauges) {
      table.AddRow({gauge.name, "gauge", FormatDouble(gauge.value, 6)});
    }
    out += table.ToString();
  }
  if (!histograms.empty()) {
    TextTable table({"histogram", "count", "min", "max", "mean", "p50", "p95",
                     "p99", "buckets"});
    for (const HistogramValue& h : histograms) {
      std::string buckets;
      for (const auto& [bound, tally] : h.buckets) {
        if (!buckets.empty()) buckets += " ";
        buckets += FormatU64(bound) + ":" + FormatU64(tally);
      }
      const double mean =
          h.count ? static_cast<double>(h.sum) / static_cast<double>(h.count)
                  : 0.0;
      table.AddRow({h.name, FormatU64(h.count), FormatU64(h.count ? h.min : 0),
                    FormatU64(h.count ? h.max : 0), FormatDouble(mean, 1),
                    FormatDouble(h.p50, 1), FormatDouble(h.p95, 1),
                    FormatDouble(h.p99, 1), buckets});
    }
    out += "\n" + table.ToString();
  }
  if (!pipeline.empty()) {
    TextTable table({"pipeline stage", "ok", "skipped", "failed",
                     "first failure"});
    for (const PipelineStageValue& stage : pipeline) {
      table.AddRow({stage.stage, std::to_string(stage.ok),
                    std::to_string(stage.skipped), std::to_string(stage.failed),
                    stage.first_failure});
    }
    out += "\n" + table.ToString();
  }
  return out.empty() ? "(no metrics recorded)\n" : out;
}

bool MetricsSnapshot::WriteJson(const std::string& path,
                                std::string* error) const {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    if (error != nullptr) *error = path + ": cannot open for writing";
    return false;
  }
  const std::string json = ToJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), file) == json.size();
  if (std::fclose(file) != 0 || !ok) {
    if (error != nullptr) *error = path + ": write failed";
    return false;
  }
  return true;
}

}  // namespace asteria::util
