// The benchmark's workloads and the run that measures one of them.
//
// Every workload runs the same phases on its own serving path and fleet:
//   1. repeated set-ups (build, open history, register, listen/connect);
//   2. an untimed warm-up pass that leaves a year-end (or month-end)
//      quiescent stack with a history log;
//   3. rounds of timed closed-loop passes at pool threads 1 and 2, each on
//      a fresh stack; after the warm-up and after each round, checkpoints,
//      restores, triage queries and STATS scrapes of the warm-up stack are
//      repeated and timed.
// The traced run (--trace 1) adds standalone probes of the monitor's
// stages and a pass without the workload's own layer; on wire-openloop
// also an open-loop pass at a fixed offered rate that times every frame
// from its due time to its ordered release.
// Every pass is checked against the serial batch core::RunFleet over the
// same feed; every operation is counted as attempted, and as failed when
// it returns an error, a frame is not admitted, or a check does not hold.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "targets.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  Path path;
  int vehicles;
  int days;
  int shards;
  /// History attached to the closed-loop passes. It is always attached to
  /// the warm-up stack, whose log the triage queries read, and never to
  /// the open-loop pass.
  bool history_in_passes;
};

/// The workloads, by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& Workloads();

struct RunOptions {
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: flips one bit of the reference fingerprint, so every pass
  /// check fails and the run must report failure.
  bool perturb_reference = false;
  int days = 0;      ///< >0 overrides the workload's horizon (tests).
  int vehicles = 0;  ///< >0 overrides the workload's fleet size (tests).
  std::string work_dir = ".bench_build/work";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< First few failure messages.
  std::map<std::string, Metric> metrics;
  /// Ungated figures printed beside the metrics of every run, so a run
  /// skewed by the host can be recognised: the host's steal share and
  /// the speed of the serial RunFleet reference.
  std::map<std::string, Metric> context;
  bool correct() const { return failed == 0 && attempted > 0; }
};

/// Runs `spec` once and returns its metrics (end-to-end, or per-layer when
/// options.trace is set).
RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
