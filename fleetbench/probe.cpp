// The host-speed probe (bench.h). This file comes first in the link and is
// compiled with its functions and loops aligned to 64 bytes
// (CMakeLists.txt), so the probe's code sits the same way in every build:
// its reading moved by 10-30% with where the linker happened to put it.
#include <algorithm>
#include <cmath>

#include "bench.h"

namespace fleetbench {

namespace {
volatile double g_probe_sink;  // keeps the probe loop from being optimized out
}  // namespace

double ProbeCpuMs(int slices) {
  constexpr int kDim = 32;
  constexpr int kRounds = 600;
  static double weights[kDim * kDim];
  static const bool ready = [] {
    for (int i = 0; i < kDim * kDim; ++i) weights[i] = std::sin(0.37 * i) / kDim;
    return true;
  }();
  (void)ready;
  double x[kDim];
  double y[kDim];
  for (int i = 0; i < kDim; ++i) x[i] = std::cos(0.11 * i);
  const auto rounds = [&](int count) {
    for (int r = 0; r < count; ++r) {
      for (int i = 0; i < kDim; ++i) {
        double sum = 0.0;
        for (int k = 0; k < kDim; ++k) sum += weights[i * kDim + k] * x[k];
        y[i] = sum;
      }
      for (int i = 0; i < kDim; ++i) x[i] = std::tanh(y[i] + 0.1);
    }
  };
  rounds(kRounds / 8);  // untimed: brings the weights back into cache
  double fastest = INFINITY;
  for (int slice = 0; slice < slices; ++slice) {
    const double start = ThreadCpuMs();
    rounds(kRounds / slices);
    fastest = std::min(fastest, ThreadCpuMs() - start);
  }
  g_probe_sink = x[0];
  return fastest * slices;
}

}  // namespace fleetbench
