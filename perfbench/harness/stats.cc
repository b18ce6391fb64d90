#include "harness/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

Percentile PercentileOf(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  // Nearest rank: the smallest value with at least q of the samples
  // at or below it.
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1),
                   values.end());
  p.value = values[rank - 1];
  p.beyond = values.size() - rank;
  p.tail_ok = p.beyond >= kMinTailSamples;
  return p;
}

Percentile SegmentedPercentile(const std::vector<double>& values, double q,
                               size_t segments) {
  if (segments <= 1 || values.size() < segments) {
    return PercentileOf(values, q);
  }
  Percentile result;
  result.samples = values.size();
  result.beyond = values.size();
  std::vector<double> per_segment;
  for (size_t s = 0; s < segments; ++s) {
    const size_t from = values.size() * s / segments;
    const size_t to = values.size() * (s + 1) / segments;
    const Percentile p = PercentileOf(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(from),
                            values.begin() + static_cast<std::ptrdiff_t>(to)),
        q);
    per_segment.push_back(p.value);
    result.beyond = std::min(result.beyond, p.beyond);
  }
  result.value = Median(per_segment);
  result.tail_ok = result.beyond >= kMinTailSamples;
  return result;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

}  // namespace perfbench
