// Order statistics for the benchmark's repeated measurements.
#pragma once

#include <algorithm>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count; 0 for an
/// empty sample).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return (*std::max_element(v.begin(), mid) + *mid) / 2.0;
}

}  // namespace perfbench
