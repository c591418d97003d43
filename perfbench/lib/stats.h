// Summary statistics of repeated measurements: median, the robust total of
// repeated passes, and the tail rule that reports the highest percentile
// still backed by enough samples. (Run-to-run quartiles are computed by
// steady.py with Python's statistics.quantiles.)
#ifndef PERFBENCH_LIB_STATS_H_
#define PERFBENCH_LIB_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
double Median(std::vector<double> values);

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least q of the samples at or below it. 0 when empty.
double PercentileSorted(const std::vector<double>& sorted, double q);

/// The tail rule for latency reports: among p50, p90, p99, p99.9 and
/// p99.99, the highest percentile with at least `min_beyond` samples
/// strictly beyond its rank, reported with its value and the sample
/// count. With fewer than `min_beyond` samples beyond even p50, the rule
/// falls back to p50.
struct TailReport {
  std::string label;   ///< "p50", "p90", "p99", "p99.9" or "p99.99".
  double quantile = 0.5;
  double value = 0.0;
  std::size_t samples = 0;
};
TailReport HighestSupportedPercentile(const std::vector<double>& sorted,
                                      std::size_t min_beyond = 10);

/// Robust total of repeated passes over the same work, cut into the same
/// slices: the sum over slices of the median slice time across passes.
/// `passes[p][s]` is pass p's time in slice s; all passes need the same
/// slice count.
double SumOfSliceMedians(const std::vector<std::vector<double>>& passes);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_STATS_H_
