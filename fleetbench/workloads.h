// The benchmark's workloads and the result they fill.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace fleetbench {

// A stage breakdown of one end-to-end path: `total`'s mean split into the
// means of `stages`, with `remainder` the part no stage accounts for.
struct Waterfall {
  std::string title;
  std::string total;
  std::vector<std::string> stages;
  std::string remainder;
};

// An end-to-end metric measured in both halves of a traced run.
struct Overhead {
  std::string metric;
  double untraced = 0.0;
  double traced = 0.0;
};

struct Result {
  int attempted = 0;
  int failed = 0;
  std::map<std::string, double> e2e;     // end-to-end metrics
  Samples layers;                        // per-layer samples (traced runs)
  std::map<std::string, double> extras;  // reported, not gated
  std::map<std::string, double> traffic; // traffic properties
  std::vector<std::string> notes;        // report lines
  std::vector<Waterfall> waterfalls;
  std::vector<Overhead> overhead;
  std::uint64_t daemon_rss_kb = 0;
};

// serve-topk's open-loop rate ladder. Rungs run in ascending order and
// share the window by weight; the reference rung carries the reported
// latencies, and the limit decides max_qps_at_slo.
struct ServeLadder {
  struct Rung {
    double qps;
    double weight;
  };
  std::vector<Rung> rungs = {{200, 6}, {400, 1}, {600, 1}, {800, 1}, {1000, 1}};
  double reference_qps = 200;
  double slo_p99_ms = 20;
};

// ingest-under-query's arrival stream and the TopK rate beside it.
struct IngestPlan {
  double cadence_ms = 100;    // one arrival per cadence, open loop
  int redrop_every = 5;       // one byte-identical re-drop per this many
  double side_qps = 100;
};

bool RunServeTopK(const Options& options, Fleet* fleet, Result* result,
                  std::string* error);
bool RunIngestUnderQuery(const Options& options, Fleet* fleet, Result* result,
                         std::string* error);
bool RunCveSweep(const Options& options, Fleet* fleet, Result* result,
                 std::string* error);

}  // namespace fleetbench
