// Trace spans: per-stage wall-time distributions for the pipeline
// (decompile -> preprocess -> encode -> search), recorded into ordinary
// util::Histogram metrics (docs/OBSERVABILITY.md).
//
//   void SearchIndex::TopK(...) {
//     ASTERIA_SPAN("search");
//     ...
//   }
//
// ASTERIA_SPAN("stage") observes the scope's elapsed TraceNowNanos() into
// the histogram "span.<stage>_nanos" when it goes out of scope. The
// histogram is a function-local static, so it is built (and registered)
// the first time its call site runs, never at static init. Call sites that
// share a stage name each own a histogram; SnapshotMetrics() merges
// histograms by name, so "span.encode_nanos" counts every encode span in
// the process. Span counts are deterministic for deterministic work; the
// nanosecond values are machine- and run-dependent by nature.
//
// Spans nest freely: each span charges its full elapsed time to its own
// stage ("encode" inside "corpus_build" counts toward both). Stage names
// are string literals in [a-z_] (the macro pastes them into the histogram
// name at compile time).
#pragma once

#include <cstdint>

#include "util/metrics.h"

namespace asteria::util {

// Monotonic clock reading in nanoseconds. On x86-64 with an invariant TSC
// this is a calibrated rdtsc read (~3x cheaper than a steady_clock call;
// the scale self-calibrates against steady_clock over the process's first
// ~10ms of trace activity, so no call ever blocks). Other hosts — and the
// pre-calibration window — read steady_clock. Differences of two readings
// are durations; don't mix with raw steady_clock arithmetic.
std::int64_t TraceNowNanos();

// Observes the TraceNowNanos() time between construction and destruction
// into `histogram` — the one scoped timer behind ASTERIA_SPAN and every
// "*_nanos" histogram that times a whole scope.
class TraceSpan {
 public:
  explicit TraceSpan(Histogram& histogram)
      : histogram_(histogram), start_nanos_(TraceNowNanos()) {}
  ~TraceSpan() {
    histogram_.Observe(
        static_cast<std::uint64_t>(TraceNowNanos() - start_nanos_));
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Histogram& histogram_;
  std::int64_t start_nanos_;
};

}  // namespace asteria::util

// ASTERIA_SPAN("stage") — scoped span with collision-free local names.
#define ASTERIA_SPAN_CONCAT2(a, b) a##b
#define ASTERIA_SPAN_CONCAT(a, b) ASTERIA_SPAN_CONCAT2(a, b)
#define ASTERIA_SPAN(stage)                                             \
  static ::asteria::util::Histogram ASTERIA_SPAN_CONCAT(               \
      asteria_span_histogram_, __LINE__)("span." stage "_nanos");      \
  ::asteria::util::TraceSpan ASTERIA_SPAN_CONCAT(asteria_span_, __LINE__)( \
      ASTERIA_SPAN_CONCAT(asteria_span_histogram_, __LINE__))
