// Sample statistics.
#include <algorithm>
#include <cmath>
#include <numeric>

#include "bench.h"

namespace fleetbench {

const std::vector<double>& Samples::Get(const std::string& name) const {
  static const std::vector<double> kEmpty;
  const auto it = values_.find(name);
  return it == values_.end() ? kEmpty : it->second;
}

double Samples::Mean(const std::string& name) const {
  const std::vector<double>& values = Get(name);
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double fraction = rank - static_cast<double>(lo);
  if (fraction == 0.0) return values[lo];  // also keeps an infinite tail exact
  return values[lo] + (values[hi] - values[lo]) * fraction;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

}  // namespace fleetbench
