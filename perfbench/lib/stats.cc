#include "lib/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

TailReport HighestSupportedPercentile(const std::vector<double>& sorted,
                                      std::size_t min_beyond) {
  static const struct {
    const char* label;
    double q;
  } kLadder[] = {{"p50", 0.5},    {"p90", 0.9},      {"p99", 0.99},
                 {"p99.9", 0.999}, {"p99.99", 0.9999}};
  const std::size_t n = sorted.size();
  TailReport report;
  report.samples = n;
  report.label = kLadder[0].label;
  report.quantile = kLadder[0].q;
  for (const auto& rung : kLadder) {
    // Samples strictly beyond the nearest-rank position of this quantile.
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(rung.q * static_cast<double>(n)));
    if (n < rank || n - rank < min_beyond) break;
    report.label = rung.label;
    report.quantile = rung.q;
  }
  report.value = PercentileSorted(sorted, report.quantile);
  return report;
}

double SumOfSliceMedians(const std::vector<std::vector<double>>& passes) {
  if (passes.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t slice = 0; slice < passes.front().size(); ++slice) {
    std::vector<double> times;
    for (const std::vector<double>& pass : passes) times.push_back(pass[slice]);
    total += Median(times);
  }
  return total;
}

}  // namespace perfbench
