// Tests of the benchmark's own code: the summary statistics, the latency
// tail rule, span self times, and that a perturbed reference fingerprint
// makes a run report failure instead of numbers. (The run-to-run spread
// rule of steady.py is tested by test_steady.py.)
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lib/stats.h"
#include "lib/trace.h"

namespace perfbench {
namespace {

TEST(StatsTest, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(StatsTest, NearestRankPercentile) {
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 0.90), 90.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 0.999), 100.0);
  EXPECT_DOUBLE_EQ(PercentileSorted({}, 0.5), 0.0);
}

TEST(StatsTest, TailRuleNeedsTenSamplesBeyondThePercentile) {
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  TailReport tail = HighestSupportedPercentile(sorted);
  EXPECT_EQ(tail.label, "p90");  // 10 beyond p90, 1 beyond p99
  EXPECT_DOUBLE_EQ(tail.value, 90.0);
  EXPECT_EQ(tail.samples, 100u);

  sorted.clear();
  for (int i = 1; i <= 1000; ++i) sorted.push_back(i);
  tail = HighestSupportedPercentile(sorted);
  EXPECT_EQ(tail.label, "p99");
  EXPECT_DOUBLE_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.samples, 1000u);

  sorted.assign(99, 1.0);  // only 9 beyond p90
  EXPECT_EQ(HighestSupportedPercentile(sorted).label, "p50");
  sorted.assign(5, 1.0);  // too few for any rung: falls back to p50
  tail = HighestSupportedPercentile(sorted);
  EXPECT_EQ(tail.label, "p50");
  EXPECT_EQ(tail.samples, 5u);
}

TEST(StatsTest, SumOfSliceMediansDropsOneStalledPassPerSlice) {
  // Three passes over three slices; pass 1 stalled in slice 0, pass 2 in
  // slice 2. Each slice's median ignores its stalled pass.
  const std::vector<std::vector<double>> passes = {
      {9.0, 2.0, 3.0}, {1.0, 2.5, 3.0}, {1.2, 2.0, 8.0}};
  EXPECT_DOUBLE_EQ(SumOfSliceMedians(passes), 1.2 + 2.0 + 3.0);
  EXPECT_DOUBLE_EQ(SumOfSliceMedians({}), 0.0);
}

TEST(TraceTest, SelfTimeSubtractsChildIntervals) {
  std::vector<SpanRecord> spans(3);
  spans[0] = {"service.Drain", 0, 10000, -1, 0};
  spans[1] = {"history.Flush", 1000, 4000, 0, 0};
  spans[2] = {"history.Append", 3000, 6000, 0, 0};  // overlaps the first
  const std::vector<double> self = SelfTimesUs(spans);
  EXPECT_DOUBLE_EQ(self[0], 5.0);  // 10 us minus the covered 1..6 us
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
}

/// Runs the benchmark binary on a small fleet; returns its exit code and
/// the last line of its standard output.
int RunBench(const std::string& extra, std::string* last_line) {
  // Relative to the working directory: run.py runs from the repository
  // root, so the scratch files stay in its .bench_build.
  const std::string work = ".bench_build/work/perfbench_test";
  const std::string command = std::string(PERFBENCH_BINARY) +
                              " --workload replay-year --seed 7 --seconds 1 "
                              "--trace 0 --vehicles 8 --days 60 --work-dir " +
                              work + " " + extra + " 2>/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[8192];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr)
    *last_line = buffer;
  const int status = pclose(pipe);
  std::filesystem::remove_all(work);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(BenchmarkRunTest, CleanRunIsCorrectAndReportsMetrics) {
  std::string line;
  EXPECT_EQ(RunBench("", &line), 0);
  EXPECT_NE(line.find("\"correct\": true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"failed\": 0,"), std::string::npos) << line;
  EXPECT_NE(line.find("\"throughput_fps\""), std::string::npos) << line;
}

TEST(BenchmarkRunTest, PerturbedFingerprintIsAFailedRunNotANumber) {
  std::string line;
  EXPECT_EQ(RunBench("--perturb-reference 1", &line), 1);
  EXPECT_NE(line.find("\"correct\": false"), std::string::npos) << line;
  EXPECT_EQ(line.find("\"failed\": 0,"), std::string::npos) << line;
  EXPECT_NE(line.find("\"metrics\": {}"), std::string::npos) << line;
}

}  // namespace
}  // namespace perfbench
