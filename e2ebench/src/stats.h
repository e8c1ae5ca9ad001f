// Order statistics over latency samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace e2ebench {

/// The q-quantile (0..1) by the nearest-rank method; +inf entries (failed
/// or shed requests) sort last, so they count against every percentile
/// they reach. 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// All samples of a phase's windows, pooled.
inline std::vector<double> Pooled(const std::vector<std::vector<double>>& windows) {
  std::vector<double> pooled;
  for (const std::vector<double>& window : windows) {
    pooled.insert(pooled.end(), window.begin(), window.end());
  }
  return pooled;
}

inline constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace e2ebench
