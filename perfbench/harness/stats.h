#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// A percentile together with the evidence behind it.
struct Percentile {
  double value = 0.0;
  /// Samples the percentile was taken over.
  size_t samples = 0;
  /// Samples strictly above the reported rank.
  size_t beyond = 0;
  /// False when fewer than kMinTailSamples samples lie beyond it: the
  /// value then rests on too thin a tail to be read as that
  /// percentile.
  bool tail_ok = false;
};

inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile, q in (0, 1]. Empty input gives a zero
/// value with zero samples.
Percentile PercentileOf(std::vector<double> values, double q);

/// Median over `segments` consecutive, equal parts of `values` (in
/// recording order) of each part's percentile q: one burst of host
/// noise then moves one part's tail, not the reported value. `samples`
/// is the total; `beyond` and `tail_ok` are those of the thinnest
/// part.
Percentile SegmentedPercentile(const std::vector<double>& values, double q,
                               size_t segments);

/// Median (mean of the two middle values for even counts).
double Median(std::vector<double> values);

double Sum(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
