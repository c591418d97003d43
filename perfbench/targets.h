// The three serving paths the workloads drive, behind one interface.
//
//   kInProcess  service::FleetService fed by Submit from the caller's thread;
//   kWire       net::IngestClient -> loopback TCP -> net::IngestServer ->
//               service::FleetService;
//   kSharded    shard::ShardGroup (N shards on one shared pool).
//
// Every target optionally attaches a history::HistoryService as the
// history callback and the checkpoint barrier; the service paths can time
// each frame from its due time to its ordered release. All calls into the
// layers carry trace spans named "<layer>.<function>", recorded only when
// the global tracer is enabled.
#ifndef PERFBENCH_TARGETS_H_
#define PERFBENCH_TARGETS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fleet_runner.h"
#include "obs/metrics.h"
#include "telemetry/fleet.h"
#include "telemetry/stream.h"
#include "util/status.h"

namespace perfbench {

using navarchos::util::Status;
namespace core = navarchos::core;
namespace telemetry = navarchos::telemetry;

/// A generated fleet and its interleaved live feed.
struct Feed {
  telemetry::FleetDataset fleet;
  std::vector<telemetry::SensorFrame> stream;
  std::vector<std::int32_t> ids;  ///< Fleet (registration) order.

  /// Stream index of a vehicle's `vehicle_seq`-th frame.
  std::size_t FrameIndex(std::int32_t vehicle_id,
                         std::uint64_t vehicle_seq) const;

  std::unordered_map<std::int32_t, std::size_t> slot_of;  ///< id -> slot.
  std::vector<std::size_t> base;            ///< Per slot, into by_vehicle.
  std::vector<std::uint32_t> by_vehicle;    ///< Stream indices by vehicle.
};

/// Generates `vehicles` x `days` at `seed` (on `threads` generator threads;
/// the dataset is identical at any count) and interleaves it.
Feed MakeFeed(int vehicles, int days, std::uint64_t seed, int threads);

enum class Path { kInProcess, kWire, kSharded };

struct TargetOptions {
  Path path = Path::kInProcess;
  int threads = 1;              ///< Monitor pool threads.
  int shards = 4;               ///< kSharded only.
  /// Empty: no history attached. Otherwise an empty or missing directory,
  /// where the log is opened.
  std::string history_dir;
  /// Due-time-to-release timing (kInProcess and kWire): when non-null,
  /// release_ns[i] receives the monotonic time frame i of the stream was
  /// released in order.
  std::vector<std::int64_t>* release_ns = nullptr;
};

/// Per-target numbers the traced run reports.
struct TargetCounters {
  std::uint64_t wire_bytes = 0;      ///< Client-to-server bytes (kWire).
  std::uint64_t flushes = 0;         ///< Client flushes (kWire).
  std::uint64_t reconnects = 0;      ///< Client healing reconnects (kWire).
  std::vector<std::uint64_t> shard_frames;  ///< Frames per shard.
};

/// One serving stack. Construction (MakeTarget) is the set-up: build the
/// services, open the history log, register every vehicle, and for the
/// wire also listen and connect.
class Target {
 public:
  virtual ~Target() = default;

  /// Offers frame `index` of the feed. Non-OK when it was not admitted.
  virtual Status Submit(std::size_t index) = 0;
  /// Open loop: called after the frames due on one tick were submitted.
  virtual Status Tick() { return Status(); }
  /// Ends the stream without draining: every submitted frame is admitted
  /// (the wire session is finished), and the stack can be checkpointed.
  virtual Status EndStream() = 0;

  /// Untimed preparation of the quiescent-state operations (starts the
  /// STATS listener where the path has none and picks the query anchors).
  virtual Status PrepareOps() = 0;
  /// One checkpoint into `path` (a file, or a directory for kSharded).
  virtual Status Checkpoint(const std::string& path) = 0;
  /// Bytes the last checkpoint put on disk, and a hash of its state files.
  virtual Status CheckpointFootprint(const std::string& path,
                                     std::uint64_t* bytes,
                                     std::uint64_t* state_hash) = 0;
  /// Restores `path` into a freshly built stack of the same shape and
  /// returns the fingerprint of its released alarms, and the milliseconds
  /// building and restoring took (teardown excluded).
  virtual Status RestoreFresh(const std::string& path,
                              std::uint64_t* alarms_fingerprint,
                              double* ms) = 0;
  /// One triage round: RANK and TIMELINE of the top vehicle; with
  /// `comove` also COMOVE around the log's first alarm, when it holds one
  /// (whether it does depends on the seed).
  virtual Status Query(bool comove) = 0;
  /// One STATS scrape over loopback (every shard, merged, for kSharded).
  virtual Status Scrape(navarchos::obs::StatsSnapshot* out) = 0;
  /// Times one in-process metrics snapshot: of the service (or of shard 0),
  /// or with `fleet` the merged ShardGroup::FleetSnapshot. Returns its us.
  virtual double LocalSnapshot(bool fleet) = 0;
  /// Fingerprint of the alarms released so far (quiescent only).
  virtual std::uint64_t ReleasedAlarmsFingerprint() = 0;

  /// Drains and returns the run result.
  virtual core::FleetRunResult Finish() = 0;

  virtual TargetCounters counters() const = 0;
};

/// Builds a target over `feed`. On failure returns null and sets `status`.
std::unique_ptr<Target> MakeTarget(const Feed& feed,
                                   const TargetOptions& options,
                                   const core::MonitorConfig& monitor,
                                   Status* status);

/// Total bytes of the regular files under `path` (or of the file).
std::uint64_t DiskBytes(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TARGETS_H_
