// Per-layer metrics of the traced run: what the workload run observed,
// and the standalone probes of the monitor's own stages.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "targets.h"
#include "workload.h"

namespace perfbench {

/// Raw observations of one workload run, filled by RunWorkload.
struct Observed {
  Path path = Path::kInProcess;
  double frames = 0.0;
  double vehicles = 0.0;
  double floor_us_per_frame = 0.0;   ///< Serial core::RunFleet.
  double fps_t1 = 0.0;               ///< Untraced closed loop, threads 1.
  double fps_t1_traced = 0.0;        ///< Traced closed loop, threads 1.
  /// Untraced threads=1 pass without the workload's own layer: without
  /// history (in process), in process (wire), or unsharded (shards).
  double fps_t1_without_layer = 0.0;
  double cpu_us_per_frame_t1 = 0.0;
  double cpu_us_per_frame_t2 = 0.0;
  double cpu_util_t2 = 0.0;          ///< Process CPU / wall, threads 2.
  std::vector<double> latency_us;    ///< Open loop, ascending.
  std::vector<double> gen_lag_us;    ///< Open loop, ascending.
  double open_loop_frames = 0.0;
  double checkpoint_bytes = 0.0;
  double history_log_bytes = 0.0;
  double snapshot_series = 0.0;      ///< Metrics in one scrape.
  double snapshot_bytes = 0.0;       ///< Encoded size of one scrape.
  double local_snapshot_us = 0.0;    ///< In-process snapshot, median.
  double fleet_snapshot_us = 0.0;    ///< ShardGroup::FleetSnapshot, median.
  double persist_read_ms = 0.0;      ///< kSharded: ReadSnapshot of its files.
  double restore_ms = 0.0;           ///< Median restore.
  /// Of the warm-up pass, or of the open-loop pass where there is one.
  TargetCounters counters;
  double steal_frac = 0.0;
  // Monitor stage probe (serial, timing decorators around the configured
  // transformer and detector).
  double transform_us_per_frame = 0.0;
  double detect_score_us = 0.0;
  double detect_fit_ms = 0.0;
};

/// Runs every vehicle of `feed` serially through a VehicleMonitor whose
/// transformer and detector are wrapped in timing decorators.
void ProbeMonitorStages(const Feed& feed, const core::MonitorConfig& monitor,
                        Observed* observed);

/// The per-layer metric table, from `observed` and the global tracer's
/// spans. Every name is always present; a layer the workload bypasses
/// reports 0.
std::map<std::string, Metric> PerLayerMetrics(const Observed& observed);

/// Human-readable self-time table per layer, from the recorded spans.
std::string SelfTimeTable();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
