// Wall-clock stopwatch for the tools, benches and examples (the Fig. 10
// overhead experiments). Library code times scopes with util::TraceSpan
// (util/trace.h) instead, so src/ has one clock and one timing primitive.
#pragma once

#include <chrono>
#include <cstdint>

namespace asteria::util {

// High-resolution stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  // Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  // Elapsed seconds since construction or last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  // Elapsed nanoseconds since construction or last Reset().
  std::int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace asteria::util
