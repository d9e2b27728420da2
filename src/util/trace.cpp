#include "util/trace.h"

#include <atomic>
#include <chrono>
#include <mutex>

#if defined(__x86_64__)
#include <cpuid.h>
#include <x86intrin.h>
#endif

namespace asteria::util {

namespace {

std::int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

#if defined(__x86_64__)

// Fast trace timestamps via the invariant TSC. A traced request reads the
// clock ~10 times (admission, queue wait, per-stage splits, reply timing,
// record stamp); at steady_clock's ~29ns per vDSO call that is a visible
// slice of the tracing budget, while a calibrated rdtsc read costs ~10ns.
//
// Calibration is free: the first call only anchors (tsc, steady) and every
// call keeps answering from steady_clock until the process's own elapsed
// time spans kCalibrationWindowNanos, at which point the observed
// (Δsteady / Δtsc) ratio becomes the scale — no call ever spins or sleeps,
// so cold one-shot tools pay nothing. The affine map is re-anchored at the
// steady reading taken at publish time, so the switchover never steps
// backward. Hosts without an invariant TSC (cpuid 0x80000007 EDX bit 8)
// stay on steady_clock forever.
struct TscScale {
  double ns_per_cycle = 0.0;
  std::int64_t anchor_nanos = 0;
  std::uint64_t anchor_tsc = 0;
};

constexpr std::int64_t kCalibrationWindowNanos = 10'000'000;  // 10ms

std::atomic<const TscScale*> g_tsc_scale{nullptr};
std::atomic<bool> g_tsc_unusable{false};
std::mutex g_tsc_calibration_mu;

bool HasInvariantTsc() {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) == 0 ||
      eax < 0x80000007u) {
    return false;
  }
  if (__get_cpuid(0x80000007u, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (edx & (1u << 8)) != 0;
}

std::int64_t TscTraceNanos() {
  const TscScale* scale = g_tsc_scale.load(std::memory_order_acquire);
  if (scale != nullptr) {
    return scale->anchor_nanos +
           static_cast<std::int64_t>(
               static_cast<double>(__rdtsc() - scale->anchor_tsc) *
               scale->ns_per_cycle);
  }
  const std::int64_t nanos = SteadyNanos();
  if (g_tsc_unusable.load(std::memory_order_relaxed)) return nanos;
  std::lock_guard<std::mutex> lock(g_tsc_calibration_mu);
  if (g_tsc_scale.load(std::memory_order_relaxed) != nullptr) return nanos;
  static std::uint64_t anchor_tsc = 0;
  static std::int64_t anchor_nanos = 0;
  const std::uint64_t tsc = __rdtsc();
  if (anchor_tsc == 0) {
    if (!HasInvariantTsc()) {
      g_tsc_unusable.store(true, std::memory_order_relaxed);
      return nanos;
    }
    anchor_tsc = tsc;
    anchor_nanos = nanos;
    return nanos;
  }
  if (nanos - anchor_nanos < kCalibrationWindowNanos) return nanos;
  const double cycles = static_cast<double>(tsc - anchor_tsc);
  const double elapsed = static_cast<double>(nanos - anchor_nanos);
  const double ns_per_cycle = cycles > 0.0 ? elapsed / cycles : 0.0;
  // Sanity: 10MHz..20GHz. Anything else means the TSC is not advancing the
  // way an invariant TSC must (e.g. a migrated VM) — stay on steady_clock.
  if (!(ns_per_cycle > 0.05 && ns_per_cycle < 100.0)) {
    g_tsc_unusable.store(true, std::memory_order_relaxed);
    return nanos;
  }
  static TscScale published;  // immutable once the pointer is released
  published.ns_per_cycle = ns_per_cycle;
  published.anchor_nanos = nanos;
  published.anchor_tsc = tsc;
  g_tsc_scale.store(&published, std::memory_order_release);
  return nanos;
}

#endif  // defined(__x86_64__)

}  // namespace

std::int64_t TraceNowNanos() {
#if defined(__x86_64__)
  return TscTraceNanos();
#else
  return SteadyNanos();
#endif
}

}  // namespace asteria::util
