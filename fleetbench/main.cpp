// fleetbench entry point: set up the fleet, run one workload, check
// it, and print the report. The last stdout line is the result JSON:
//
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// with the end-to-end metrics (--trace=0) or the per-layer metrics
// (--trace=1). The line before it, "fleetbench-record {...}", carries the
// machine/build fingerprint and traffic properties for the history file.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "util/flags.h"
#include "util/log.h"
#include "workloads.h"

namespace fleetbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every one of these (README.md says what each
// means on each workload). The costs are CPU times scaled to the reference
// host speed; the raw CPU times and the wall-clock latencies are printed
// beside them, not gated.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"op_cost_ms", "ms"},
    {"ingest_cost_ms", "ms"},
    {"daemon_rss_mb", "MB"},
    {"success_ratio", "ratio"},
};

// Per-layer metrics: the mean of the samples the spans recorded, 0 when the
// layer did no work on this workload.
const std::vector<MetricSpec> kPerLayer = {
    {"serve.client.round_trip_us", "us"},
    {"serve.queue_wait_us", "us"},
    {"serve.encode_us", "us"},
    {"serve.score_us", "us"},
    {"serve.reply_us", "us"},
    {"serve.unattributed_us", "us"},
    {"serve.batch_size", "count"},
    {"search.topk_batch_us_per_query", "us"},
    {"serve.protocol.query_codec_us", "us"},
    {"serve.shed", "count"},
    {"serve.deadline_exceeded", "count"},
    {"search.scored_fraction", "ratio"},
    {"search.above_threshold_batch_ms", "ms"},
    {"search.hits_materialized", "count"},
    {"ingest.ingest_file_ms", "ms"},
    {"firmware.unpack_ms", "ms"},
    {"decompiler.decompile_image_ms", "ms"},
    {"core.encode_image_ms", "ms"},
    {"store.shard_save_ms", "ms"},
    {"ingest.unattributed_ms", "ms"},
    {"serve.reload_ms", "ms"},
    {"search.open_ms", "ms"},
    {"serve.first_query_after_reload_us", "us"},
    {"ingest.dedup_ratio", "ratio"},
    {"ingest.functions_per_image", "count"},
    {"setup.fleet_build_s", "s"},
    {"compiler.compile_program_ms", "ms"},
    {"nn.train_pair_ms", "ms"},
    {"setup.ingest_s", "s"},
    {"setup.daemon_ready_s", "s"},
    {"trace.query_p50_overhead_pct", "%"},
    {"trace.arrival_p50_overhead_pct", "%"},
};

// Unit of a reported, ungated value, from its name.
const char* ExtraUnit(const std::string& name) {
  const auto ends_with = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends_with("_ms")) return "ms";
  if (name.find("qps") != std::string::npos || ends_with("_per_s")) return "1/s";
  return "count";
}

std::string Num(double value) {
  if (!std::isfinite(value)) value = value > 0 ? 1e300 : 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string ReadFirstMatch(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) return line;
      const auto start = line.find_first_not_of(" \t", colon + 1);
      return start == std::string::npos ? "" : line.substr(start);
    }
  }
  return "";
}

std::string Fingerprint() {
  long l2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 <= 0) {
    const std::string text =
        ReadFirstMatch("/sys/devices/system/cpu/cpu0/cache/index2/size", "");
    l2 = std::atol(text.c_str()) * 1024;
  }
  return "{\"cpu_model\": " +
         Quote(ReadFirstMatch("/proc/cpuinfo", "model name")) +
         ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"l2_bytes\": " + std::to_string(l2) +
         ", \"build_type\": " + Quote(FLEETBENCH_BUILD_TYPE) +
         ", \"compiler\": " + Quote(std::string("g++ ") + __VERSION__) + "}";
}

// Histogram over power-of-two buckets, as {"lo-hi": count} JSON.
std::string Histogram(const std::vector<int>& values) {
  std::map<int, int> buckets;  // bucket lower bound -> count
  for (const int v : values) {
    int lo = 0;
    if (v > 0) {
      lo = 1;
      while (lo * 2 <= v) lo *= 2;
    }
    ++buckets[lo];
  }
  std::string out = "{";
  for (const auto& [lo, count] : buckets) {
    if (out.size() > 1) out += ", ";
    const std::string key =
        lo <= 1 ? std::to_string(lo)
                : std::to_string(lo) + "-" + std::to_string(lo * 2 - 1);
    out += Quote(key) + ": " + std::to_string(count);
  }
  return out + "}";
}

std::string Traffic(const Fleet& fleet, const Result& result) {
  std::vector<int> callees;
  for (const auto& fn : fleet.corpus.functions) {
    callees.push_back(fn.feature.callee_count);
  }
  std::vector<int> sizes;
  for (const auto& query : fleet.queries) {
    sizes.push_back(static_cast<int>(query.tree.size()));
  }
  const double entries = static_cast<double>(fleet.corpus.functions.size());
  const int dim = fleet.model->config().siamese.encoder.hidden_dim;
  std::string out = "{\"fleet_entries\": " + Num(entries) +
                    ", \"fleet_images\": " +
                    std::to_string(fleet.corpus.images.size()) +
                    ", \"encode_matrix_bytes\": " +
                    Num(entries * dim * sizeof(double)) +
                    ", \"threshold\": " + Num(fleet.threshold) +
                    ", \"validation_auc\": " + Num(fleet.validation_auc) +
                    ", \"callee_count_hist\": " + Histogram(callees) +
                    ", \"query_ast_size_hist\": " + Histogram(sizes);
  for (const auto& [name, value] : result.traffic) {
    out += ", " + Quote(name) + ": " + Num(value);
  }
  return out + "}";
}

std::string MetricsJson(const std::vector<MetricSpec>& specs,
                        const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const MetricSpec& spec : specs) {
    if (out.size() > 1) out += ", ";
    const auto it = values.find(spec.name);
    out += Quote(spec.name) + ": {\"value\": " +
           Num(it == values.end() ? 0.0 : it->second) +
           ", \"unit\": " + Quote(spec.unit) + "}";
  }
  return out + "}";
}

void PrintWaterfall(const Waterfall& w, const Samples& s) {
  const double total = s.Mean(w.total);
  std::printf("waterfall %s: %s = %.3f (n=%zu)\n", w.title.c_str(),
              w.total.c_str(), total, s.Get(w.total).size());
  std::vector<std::string> rows = w.stages;
  rows.push_back(w.remainder);
  for (const std::string& stage : rows) {
    const double mean = s.Mean(stage);
    std::printf("  %-36s %10.3f  %5.1f%%%s\n", stage.c_str(), mean,
                total > 0 ? 100.0 * mean / total : 0.0,
                stage == w.remainder ? "  (unattributed remainder)" : "");
  }
}

int Run(int argc, char** argv) {
  using namespace asteria;
  util::Flags flags;
  flags.DefineString("workload", "", "serve-topk | ingest-under-query | cve-sweep");
  flags.DefineInt("seed", 1, "workload seed");
  flags.DefineDouble("seconds", 10, "measured window length");
  flags.DefineBool("trace", false, "per-layer (traced) run");
  flags.DefineBool("tiny", false, "self-test scale: a tiny fleet");
  flags.DefineString("serve_bin", "", "asteria-serve binary");
  flags.DefineString("work_dir", "", "scratch directory");
  if (!flags.Parse(argc, argv)) return 2;
  util::SetLogLevel(util::LogLevel::kError);

  Options options;
  options.workload = flags.GetString("workload");
  options.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  options.seconds = flags.GetDouble("seconds");
  options.trace = flags.GetBool("trace");
  options.serve_bin = flags.GetString("serve_bin");
  options.work_dir = flags.GetString("work_dir");
  if (flags.GetBool("tiny")) {
    options.scale.fleet_images = 6;
    options.scale.filler_packages = 6;
    options.scale.holdout_images = 2;
    options.scale.arrival_packages = 3;
    options.scale.train_packages = 4;
    options.scale.train_pairs = 80;
  }
  bool (*run_workload)(const Options&, Fleet*, Result*, std::string*) = nullptr;
  if (options.workload == "serve-topk") run_workload = RunServeTopK;
  if (options.workload == "ingest-under-query") run_workload = RunIngestUnderQuery;
  if (options.workload == "cve-sweep") run_workload = RunCveSweep;
  if (run_workload == nullptr || options.serve_bin.empty() ||
      options.work_dir.empty() || options.seconds <= 0) {
    std::fprintf(stderr, "fleetbench: bad arguments\n%s",
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  std::string error;
  if (!MakeDirs(options.work_dir, &error) ||
      ::chdir(options.work_dir.c_str()) != 0) {
    std::fprintf(stderr, "fleetbench: cannot enter %s\n", options.work_dir.c_str());
    return 1;
  }

  // Set up several times; setup_s is the median, the last fleet is used.
  Samples setup;
  Fleet fleet;
  bool ok = true;
  for (int r = 0; ok && r < options.scale.setups; ++r) {
    const std::string dir = "setup-" + std::to_string(r);
    std::vector<std::string> daemon_args;
    if (options.trace) daemon_args.push_back("--request_log_out=" + dir + "/requests.log");
    Fleet next;
    RemoveTree(dir);
    ok = SetUp(options, dir, daemon_args, &next, &setup, &error);
    if (ok && r + 1 < options.scale.setups) {
      ok = next.daemon->Stop(&error);
      RemoveTree(dir);
    }
    if (r + 1 == options.scale.setups) fleet = std::move(next);
  }

  // Flush the set-ups' files now, so background writeback of the fleet does
  // not land inside the measured window.
  ::sync();

  Result result;
  bool correct = ok;
  if (ok) correct = run_workload(options, &fleet, &result, &error);
  if (fleet.daemon != nullptr && fleet.daemon->running()) {
    std::string stop_error;
    if (!fleet.daemon->Stop(&stop_error) && correct) {
      correct = false;
      error = stop_error;
    }
  }
  if (!correct) std::printf("FAILED: %s\n", error.c_str());

  // End-to-end metrics. Workloads without live arrivals report the set-up's
  // fleet ingest as their ingest cost (README.md).
  std::map<std::string, double>& e2e = result.e2e;
  e2e["setup_s"] = Median(setup.Get("setup_s"));
  if (!e2e.count("ingest_cost_ms")) {
    e2e["ingest_cost_ms"] = Median(setup.Get("setup.ingest_cost_ms"));
  }
  result.extras["setup_ingest_image_p50_ms"] = Median(setup.Get("setup.ingest_image_ms"));
  result.extras["setup_ingest_cpu_p50_ms"] = Median(setup.Get("setup.ingest_cpu_ms"));
  e2e["daemon_rss_mb"] = static_cast<double>(result.daemon_rss_kb) / 1024.0;
  const int attempted = std::max(1, result.attempted);
  e2e["success_ratio"] =
      static_cast<double>(attempted - result.failed) / attempted;

  // Per-layer metrics.
  Samples& layers = result.layers;
  for (const char* name : {"setup.fleet_build_s", "compiler.compile_program_ms",
                           "nn.train_pair_ms", "setup.ingest_s",
                           "setup.daemon_ready_s"}) {
    layers.Append(name, setup.Get(name));
  }
  for (const Overhead& o : result.overhead) {
    const double pct = o.untraced > 0 ? 100.0 * (o.traced - o.untraced) / o.untraced : 0.0;
    std::printf("tracing overhead on %s: untraced half %.3f, traced half %.3f (%+.1f%%)\n",
                o.metric.c_str(), o.untraced, o.traced, pct);
    if (o.metric == "query_p50_ms") layers.Add("trace.query_p50_overhead_pct", pct);
    if (o.metric == "arrival_to_queryable_p50_ms") {
      layers.Add("trace.arrival_p50_overhead_pct", pct);
    }
  }
  std::map<std::string, double> layer_values;
  for (const MetricSpec& spec : kPerLayer) layer_values[spec.name] = layers.Mean(spec.name);

  // Report.
  std::printf("workload %s seed %llu seconds %g trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  for (const auto& [name, value] : result.extras) {
    std::printf("%s = %.6g %s\n", name.c_str(), value, ExtraUnit(name));
  }
  for (const Waterfall& w : result.waterfalls) PrintWaterfall(w, layers);
  const std::vector<MetricSpec>& specs = options.trace ? kPerLayer : kEndToEnd;
  const std::map<std::string, double>& values = options.trace ? layer_values : e2e;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    std::printf("  %-36s %14.6f %s\n", spec.name,
                it == values.end() ? 0.0 : it->second, spec.unit);
  }
  std::string extras = "{";
  for (const auto& [name, value] : result.extras) {
    if (extras.size() > 1) extras += ", ";
    extras += Quote(name) + ": " + Num(value);
  }
  extras += "}";
  const std::string metrics = MetricsJson(specs, values);
  if (fleet.model != nullptr) {
    std::printf("fleetbench-record {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
                "\"trace\": %d, \"fingerprint\": %s, \"traffic\": %s, \"extras\": %s, "
                "\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
                Quote(options.workload).c_str(),
                static_cast<unsigned long long>(options.seed), Num(options.seconds).c_str(),
                options.trace ? 1 : 0, Fingerprint().c_str(),
                Traffic(fleet, result).c_str(), extras.c_str(),
                correct ? "true" : "false", attempted, result.failed, metrics.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, result.failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) { return fleetbench::Run(argc, argv); }
