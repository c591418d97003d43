#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>

#include "layers.h"
#include "lib/fingerprint.h"
#include "lib/host.h"
#include "lib/stats.h"
#include "lib/trace.h"
#include "persist/codec.h"
#include "persist/snapshot.h"

namespace perfbench {
namespace {

// Why each workload was chosen: BENCHMARK.json and NOTES.md.
const std::vector<WorkloadSpec> kWorkloads = {
    {"replay-year", Path::kInProcess, 40, 365, 1, true},
    {"wire-openloop", Path::kWire, 40, 365, 1, true},
    {"fleet-scale", Path::kSharded, 500, 30, 4, false},
};

/// Fixed offered rate of wire-openloop's traced open-loop pass, on a pool
/// of one thread: a constant of the benchmark (about half of the seed
/// commit's capacity), never derived from the code under test.
constexpr double kOpenLoopFps = 200000.0;

/// Attempted/failed accounting of one run.
class Ledger {
 public:
  explicit Ledger(RunResult* result) : result_(result) {}

  /// Counts `n` operations that succeeded (admitted frames).
  void Count(std::uint64_t n) { result_->attempted += n; }

  /// Counts one attempted operation; returns `ok`.
  bool Check(bool ok, const std::string& what) {
    ++result_->attempted;
    if (!ok) {
      ++result_->failed;
      if (result_->failures.size() < 8) result_->failures.push_back(what);
    }
    return ok;
  }
  bool Check(const Status& status, const std::string& what) {
    return Check(status.ok(), what + ": " + status.message());
  }

 private:
  RunResult* result_;
};

/// Milliseconds `op` takes.
double TimeMs(const std::function<void()>& op) {
  const std::int64_t t0 = NowNs();
  op();
  return static_cast<double>(NowNs() - t0) / 1e6;
}

/// Repeats `op` at least `min_reps` times and then while its share of the
/// run budget lasts (at most `max_reps`). `op` returns the milliseconds of
/// its timed part; checks around it stay outside the clock.
std::vector<double> Repeat(double slice_s, int min_reps, int max_reps,
                           const std::function<double()>& op) {
  std::vector<double> ms;
  const std::int64_t start = NowNs();
  for (int rep = 0; rep < max_reps; ++rep) {
    if (rep >= min_reps &&
        static_cast<double>(NowNs() - start) / 1e9 >= slice_s)
      break;
    ms.push_back(op());
  }
  return ms;
}

/// Slices a closed-loop pass is cut into: a transient stall on the host
/// spoils one slice of one pass, and the per-slice medians leave it out.
constexpr std::size_t kWindows = 20;

/// Closed-loop passes per pool thread count in a gated run.
constexpr int kPassesPerThreadCount = 3;

/// Rounds of set-ups and quiescent-state operations in a gated run (one
/// after the warm-up, one after each pass), their shares of --seconds,
/// the fewest repetitions of each operation in a round, and the batches
/// of set-ups in a round. The host's speed for these syscall-heavy
/// operations moves by up to 50% over a few seconds, so many short
/// batches spread over the run are steadier than a few long ones.
constexpr int kOpsRounds = 2 * kPassesPerThreadCount + 1;
constexpr double kOpsShare = 0.12;
constexpr double kSetupShare = 0.04;
constexpr int kMinOpsReps = 2;
constexpr int kSetupBatches = 5;

void Append(std::vector<double>* into, const std::vector<double>& more) {
  into->insert(into->end(), more.begin(), more.end());
}

struct PassResult {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  double heap_bytes = 0.0;
  std::vector<double> slice_seconds;  ///< kWindows slices, then the drain.
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const RunOptions& options, RunResult* out)
      : spec_(spec),
        options_(options),
        ledger_(out),
        out_(out),
        dir_(options.work_dir + "/" + spec.name) {}

  void Run() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_, ec);
    if (!ledger_.Check(!ec, "create work dir " + dir_)) return;

    const int vehicles = options_.vehicles > 0 ? options_.vehicles : spec_.vehicles;
    const int days = options_.days > 0 ? options_.days : spec_.days;
    feed_ = MakeFeed(vehicles, days, options_.seed, 3);
    const double frames = static_cast<double>(feed_.stream.size());
    observed_.path = spec_.path;
    observed_.frames = frames;
    observed_.vehicles = static_cast<double>(feed_.ids.size());

    const CpuTimes host_start = ReadCpuTimes();
    // The oracle: serial batch RunFleet over the same fleet. Its time is
    // the batch floor, reported beside every run.
    {
      const std::int64_t t0 = NowNs();
      const core::FleetRunResult reference =
          core::RunFleet(feed_.fleet, monitor_);
      observed_.floor_us_per_frame =
          static_cast<double>(NowNs() - t0) / 1e3 / frames;
      reference_ = RunFingerprint(reference);
      for (const auto& samples : reference.scored_samples)
        scored_vehicles_ += samples.empty() ? 0 : 1;
    }
    if (options_.perturb_reference) reference_ ^= 1;
    if (options_.trace) ProbeMonitorStages(feed_, monitor_, &observed_);
    feed_.fleet.vehicles.clear();  // Only the stream is needed from here on.
    feed_.fleet.vehicles.shrink_to_fit();

    GlobalTracer().set_enabled(options_.trace);
    std::unique_ptr<Target> warm = WarmUp();
    if (warm) {
      // The quiescent-state operations are spread over the run, one round
      // after the warm-up and one after each closed-loop pass, so a host
      // stall of a few seconds spoils a minority of repetitions.
      OperationsRound(warm.get());
      ClosedLoopPasses(warm.get());
      FinishWarmUp(warm.get());
      warm.reset();
    }
    if (options_.trace && spec_.path == Path::kWire) OpenLoopPass();
    GlobalTracer().set_enabled(false);
    observed_.steal_frac = StealFraction(host_start, ReadCpuTimes());
    out_->context["host.steal_frac"] =
        Metric{observed_.steal_frac, "fraction"};
    out_->context["core.floor_us_per_frame"] =
        Metric{observed_.floor_us_per_frame, "us"};

    if (options_.trace) {
      out_->metrics = PerLayerMetrics(observed_);
      if (!observed_.latency_us.empty()) {
        const TailReport tail =
            HighestSupportedPercentile(observed_.latency_us);
        std::fprintf(stderr,
                     "open-loop latency at %.0f frames/s: p50 %.1f us, %s "
                     "%.1f us over %zu samples\n",
                     kOpenLoopFps, PercentileSorted(observed_.latency_us, 0.5),
                     tail.label.c_str(), tail.value, tail.samples);
      }
      std::fprintf(stderr, "%s", SelfTimeTable().c_str());
      const std::string spans =
          options_.work_dir + "/spans-" + spec_.name + ".jsonl";
      if (GlobalTracer().WriteJsonLines(spans))
        std::fprintf(stderr, "spans written to %s\n", spans.c_str());
    } else {
      EmitEndToEnd();
    }
    std::filesystem::remove_all(dir_, ec);
  }

 private:
  TargetOptions Options(int threads, bool history,
                        const std::string& history_name) const {
    TargetOptions options;
    options.path = spec_.path;
    options.threads = threads;
    options.shards = spec_.shards;
    if (history) options.history_dir = dir_ + "/" + history_name;
    return options;
  }

  /// Builds a stack on an emptied history directory. Only the stack's own
  /// set-up is timed into `seconds`: clearing the directory and checking
  /// the status stay outside the clock.
  std::unique_ptr<Target> Build(const TargetOptions& options,
                                double* seconds = nullptr) {
    if (!options.history_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(options.history_dir, ec);
      if (!ledger_.Check(!ec, "clear " + options.history_dir)) return nullptr;
    }
    Status status;
    const std::int64_t t0 = NowNs();
    std::unique_ptr<Target> target =
        MakeTarget(feed_, options, monitor_, &status);
    if (seconds != nullptr) *seconds = static_cast<double>(NowNs() - t0) / 1e9;
    ledger_.Check(status, "set-up");
    return target;
  }

  /// Submits the whole feed closed-loop; returns false on the first error.
  /// With `marks`, records the time as each of kWindows equal slices of the
  /// feed has been submitted.
  bool SubmitAll(Target* target, std::vector<std::int64_t>* marks = nullptr) {
    const std::size_t n = feed_.stream.size();
    std::size_t next_mark = n / kWindows;
    for (std::size_t i = 0; i < n; ++i) {
      const Status status = target->Submit(i);
      if (!status.ok()) {
        ledger_.Count(i);
        return ledger_.Check(status, "submit");
      }
      if (marks != nullptr && i + 1 == next_mark) {
        marks->push_back(NowNs());
        next_mark = marks->size() + 1 < kWindows
                        ? (marks->size() + 1) * n / kWindows
                        : n + 1;
      }
    }
    ledger_.Count(n);
    return ledger_.Check(target->EndStream(), "end of stream");
  }

  void CheckResult(Target* target, const char* pass, std::uint64_t reference) {
    const std::uint64_t got = RunFingerprint(target->Finish());
    ledger_.Check(got == reference,
                  std::string(pass) + ": fingerprint differs from RunFleet");
  }

  /// The untimed warm-up pass: the whole feed, closed loop, on a stack
  /// with a history log, left quiescent for the operations rounds.
  std::unique_ptr<Target> WarmUp() {
    std::unique_ptr<Target> target = Build(Options(1, true, "history"));
    if (!target || !SubmitAll(target.get())) return nullptr;
    if (!ledger_.Check(target->PrepareOps(), "prepare operations"))
      return nullptr;
    return target;
  }

  /// A short batch of set-ups. Each stack is torn down outside the clock.
  void SetUps() {
    const double slice =
        options_.seconds * kSetupShare / (kOpsRounds * kSetupBatches);
    Append(&setup_s_, Repeat(slice, 1, 20, [&] {
      double seconds = 0.0;
      std::unique_ptr<Target> stack =
          Build(Options(1, true, "setup"), &seconds);
      return seconds;
    }));
  }

  /// One round of checkpoints, restores, triage queries and STATS scrapes
  /// on the quiescent warm-up stack, each repeated within its time slice,
  /// with batches of set-ups before, between and after them.
  void OperationsRound(Target* target) {
    const double slice = options_.seconds * kOpsShare / kOpsRounds;
    const int reps = kMinOpsReps;
    SetUps();
    const std::string ckpt = dir_ + "/checkpoint";
    // Checkpoints of one quiescent state repeat byte for byte within a
    // round (the scrapes between rounds move the server's own counters).
    std::uint64_t first_hash = 0;
    bool have_hash = false;
    Append(&checkpoint_ms_, Repeat(slice, reps, 60, [&] {
      Status status;
      const double ms = TimeMs([&] { status = target->Checkpoint(ckpt); });
      if (!ledger_.Check(status, "checkpoint")) return ms;
      std::uint64_t bytes = 0, hash = 0;
      ledger_.Check(target->CheckpointFootprint(ckpt, &bytes, &hash),
                    "checkpoint footprint");
      observed_.checkpoint_bytes = static_cast<double>(bytes);
      if (!have_hash) {
        first_hash = hash;
        have_hash = true;
      }
      ledger_.Check(hash == first_hash,
                    "repeated checkpoint is not byte-identical");
      return ms;
    }));

    // The checkpoints quiesced the stack: its released alarms are final.
    released_alarms_ = target->ReleasedAlarmsFingerprint();
    SetUps();
    Append(&restore_ms_, Repeat(slice, reps, 60, [&] {
      std::uint64_t restored = 0;
      double ms = 0.0;
      if (!ledger_.Check(target->RestoreFresh(ckpt, &restored, &ms), "restore"))
        return ms;
      ledger_.Check(restored == released_alarms_,
                    "restored service reports different released alarms");
      return ms;
    }));

    SetUps();
    Append(&query_ms_, Repeat(slice, reps, 60, [&] {
      Status status;
      // COMOVE only in the traced run: a log without an alarm to anchor it
      // on (a seed-dependent case on fleet-scale) would make the round
      // bimodal across seeds.
      const double ms =
          TimeMs([&] { status = target->Query(options_.trace); });
      ledger_.Check(status, "triage query");
      return ms;
    }));

    SetUps();
    Append(&scrape_ms_, Repeat(slice, reps, 200, [&] {
      Status status;
      const double ms = TimeMs([&] { status = target->Scrape(&scraped_); });
      ledger_.Check(status, "stats scrape");
      return ms;
    }));
    SetUps();
  }

  /// Traced-run probes on the warm-up stack, then its drain and check.
  void FinishWarmUp(Target* target) {
    observed_.restore_ms = Median(restore_ms_);
    observed_.snapshot_series = static_cast<double>(
        scraped_.counters.size() + scraped_.gauges.size() +
        scraped_.histograms.size());
    navarchos::persist::Encoder encoder;
    navarchos::obs::EncodeStatsSnapshot(encoder, scraped_);
    observed_.snapshot_bytes = static_cast<double>(encoder.bytes().size());
    if (options_.trace) {
      std::vector<double> local_us, fleet_us;
      for (int rep = 0; rep < 20; ++rep) {
        local_us.push_back(target->LocalSnapshot(false));
        if (spec_.path == Path::kSharded)
          fleet_us.push_back(target->LocalSnapshot(true));
      }
      observed_.local_snapshot_us = Median(local_us);
      observed_.fleet_snapshot_us = Median(fleet_us);
      if (spec_.path == Path::kSharded) ProbeShardFileReads();
    }
    observed_.counters = target->counters();
    CheckResult(target, "warm-up pass", reference_);
    observed_.history_log_bytes =
        static_cast<double>(DiskBytes(dir_ + "/history"));
  }

  /// kSharded restores in one call; time reading its snapshot files apart.
  void ProbeShardFileReads() {
    std::vector<double> read_ms;
    for (int rep = 0; rep < 5; ++rep) {
      read_ms.push_back(TimeMs([&] {
        std::error_code ec;
        for (const auto& entry :
             std::filesystem::directory_iterator(dir_ + "/checkpoint", ec)) {
          navarchos::persist::Snapshot snapshot;
          Span span("persist.ReadSnapshot");
          ledger_.Check(
              navarchos::persist::ReadSnapshot(entry.path().string(), &snapshot),
              "read snapshot");
        }
      }));
    }
    observed_.persist_read_ms = Median(read_ms);
  }

  /// One closed-loop pass on a fresh stack. Its time is split into the
  /// kWindows slices of the feed plus the drain, so passes can be combined
  /// slice by slice.
  PassResult ClosedLoop(int threads) {
    return ClosedLoop(Options(threads, spec_.history_in_passes, "history-pass"));
  }

  PassResult ClosedLoop(const TargetOptions& options) {
    const int threads = options.threads;
    PassResult pass;
    std::unique_ptr<Target> target = Build(options);
    if (!target) return pass;
    std::vector<std::int64_t> marks;
    marks.reserve(kWindows + 1);
    const std::int64_t heap0 = LiveHeapBytes();
    const std::int64_t cpu0 = ProcessCpuNs();
    const std::int64_t t0 = NowNs();
    if (!SubmitAll(target.get(), &marks)) return pass;
    const std::uint64_t got = RunFingerprint(target->Finish());
    marks.push_back(NowNs());
    pass.seconds = static_cast<double>(marks.back() - t0) / 1e9;
    pass.cpu_seconds = static_cast<double>(ProcessCpuNs() - cpu0) / 1e9;
    pass.heap_bytes = static_cast<double>(LiveHeapBytes() - heap0);
    std::int64_t from = t0;
    for (std::int64_t mark : marks) {
      pass.slice_seconds.push_back(static_cast<double>(mark - from) / 1e9);
      from = mark;
    }
    char what[96];
    std::snprintf(what, sizeof(what),
                  "closed loop threads=%d: fingerprint differs from RunFleet",
                  threads);
    ledger_.Check(got == reference_, what);
    std::fprintf(stderr, "  closed loop threads=%d: %.0f frames/s\n", threads,
                 observed_.frames / pass.seconds);
    return pass;
  }

  void ClosedLoopPasses(Target* warm) {
    const double frames = observed_.frames;
    if (options_.trace) {
      TracedPasses(warm);
      return;
    }
    std::vector<std::vector<double>> slices_t1, slices_t2;
    for (int round = 0; round < kPassesPerThreadCount; ++round) {
      for (int threads : {1, 2}) {
        const PassResult pass = ClosedLoop(threads);
        if (pass.seconds <= 0.0) return;
        (threads == 1 ? slices_t1 : slices_t2).push_back(pass.slice_seconds);
        if (threads == 1) heap_bytes_.push_back(pass.heap_bytes);
        OperationsRound(warm);
      }
    }
    fps_t1_ = frames / SumOfSliceMedians(slices_t1);
    fps_t2_ = frames / SumOfSliceMedians(slices_t2);
  }

  /// Traced run: the workload's threads=1 pass untraced, the same stack
  /// without one layer (untraced; the layer's price per frame is the
  /// difference), then traced passes at threads 1 and 2.
  void TracedPasses(Target* warm) {
    const double frames = observed_.frames;
    GlobalTracer().set_enabled(false);
    const PassResult plain = ClosedLoop(1);
    TargetOptions without = Options(1, false, "");
    if (spec_.path != Path::kInProcess) {
      // Wire and shards: drop the front end, keep history as the pass had.
      without = Options(1, spec_.history_in_passes, "history-pass");
      without.path = Path::kInProcess;
    }
    const PassResult base = ClosedLoop(without);
    GlobalTracer().set_enabled(true);
    OperationsRound(warm);
    const PassResult t1 = ClosedLoop(1);
    const PassResult t2 = ClosedLoop(2);
    observed_.fps_t1 = frames / plain.seconds;
    observed_.fps_t1_without_layer = frames / base.seconds;
    observed_.fps_t1_traced = frames / t1.seconds;
    observed_.cpu_us_per_frame_t1 = plain.cpu_seconds * 1e6 / frames;
    observed_.cpu_us_per_frame_t2 = t2.cpu_seconds * 1e6 / frames;
    observed_.cpu_util_t2 = t2.cpu_seconds / t2.seconds;
  }

  /// Traced wire-openloop run only: the whole feed offered open loop at a
  /// fixed rate, timing each frame from its due time to its ordered release.
  void OpenLoopPass() {
    const std::size_t n = feed_.stream.size();
    std::vector<std::int64_t> release_ns(n, 0);
    // No history log on the latency path: its appends write to disk from
    // the ordered sink, and the disk's latency on a shared host swamps the
    // serving path's (p90 moved 20x between runs of one seed).
    TargetOptions options = Options(1, false, "");
    options.release_ns = &release_ns;
    std::unique_ptr<Target> target = Build(options);
    if (!target) return;

    const auto period_ns = static_cast<std::int64_t>(1e9 / kOpenLoopFps);
    const std::int64_t t0 = NowNs() + 1000000;
    std::vector<double> lag_us;
    std::size_t next = 0;
    std::size_t admitted = 0;
    bool ok = true;
    while (ok && next < n) {
      const std::int64_t now = NowNs();
      if (now >= t0) {
        const std::size_t due = std::min<std::size_t>(
            n, static_cast<std::size_t>((now - t0) / period_ns) + 1);
        if (due > next) {
          lag_us.push_back(static_cast<double>(
                               now - (t0 + static_cast<std::int64_t>(next) *
                                               period_ns)) /
                           1e3);
          for (; next < due && ok; ++next) {
            const Status status = target->Submit(next);
            if (status.ok())
              ++admitted;
            else
              ok = ledger_.Check(status, "open-loop submit");
          }
          if (ok) ok = ledger_.Check(target->Tick(), "open-loop flush");
        }
      }
    }
    ledger_.Count(admitted);
    if (!ok) return;
    if (!ledger_.Check(target->EndStream(), "open-loop end of stream")) return;
    observed_.counters = target->counters();
    CheckResult(target.get(), "open loop", reference_);

    std::vector<double> latency_us(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (release_ns[i] == 0) {
        ledger_.Check(false, "open loop: a frame was never released");
        return;
      }
      latency_us[i] = static_cast<double>(
                          release_ns[i] -
                          (t0 + static_cast<std::int64_t>(i) * period_ns)) /
                      1e3;
    }
    std::sort(latency_us.begin(), latency_us.end());
    std::sort(lag_us.begin(), lag_us.end());
    observed_.latency_us = std::move(latency_us);
    observed_.gen_lag_us = std::move(lag_us);
    observed_.open_loop_frames = static_cast<double>(n);
  }

  void Emit(const char* name, double value, const char* unit) {
    out_->metrics[name] = Metric{value, unit};
  }

  void EmitEndToEnd() {
    const double vehicles = observed_.vehicles;
    Emit("setup_s", Median(setup_s_), "s");
    Emit("throughput_fps", fps_t1_, "frames/s");
    Emit("throughput_fps_t2", fps_t2_, "frames/s");

    Emit("scrape_ms", Median(scrape_ms_), "ms");
    Emit("checkpoint_ms", Median(checkpoint_ms_), "ms");
    Emit("restore_ms", Median(restore_ms_), "ms");
    Emit("checkpoint_kb_per_vehicle",
         observed_.checkpoint_bytes / 1024.0 / vehicles, "KB");
    Emit("heap_kb_per_vehicle", Median(heap_bytes_) / 1024.0 / vehicles, "KB");

    // Every query scans the log of every vehicle that logged anything, and
    // how many reach scoring in fleet-scale's 30 days depends on the seed
    // (87-103 of 500). The divisor is counted in the RunFleet reference,
    // so it depends on the input alone, never on the code under test.
    Emit("query_us_per_vehicle",
         Median(query_ms_) * 1e3 /
             static_cast<double>(std::max(scored_vehicles_, 1)),
         "us");
    std::vector<double> setup_sorted = setup_s_;
    std::sort(setup_sorted.begin(), setup_sorted.end());
    std::fprintf(stderr,
                 "%s: %.0f frames, %.0f vehicles (%d scored); history log "
                 "%.0f bytes; query %.3g ms; set-up p10/p50/p90 "
                 "%.3g/%.3g/%.3g ms over %zu; host steal %.2f%%\n",
                 spec_.name, observed_.frames, vehicles, scored_vehicles_,
                 observed_.history_log_bytes,
                 Median(query_ms_),
                 1e3 * PercentileSorted(setup_sorted, 0.1),
                 1e3 * Median(setup_s_),
                 1e3 * PercentileSorted(setup_sorted, 0.9), setup_s_.size(),
                 100.0 * observed_.steal_frac);
  }

  const WorkloadSpec& spec_;
  const RunOptions& options_;
  Ledger ledger_;
  RunResult* out_;
  const std::string dir_;
  const core::MonitorConfig monitor_;
  Feed feed_;
  std::uint64_t reference_ = 0;
  int scored_vehicles_ = 0;  ///< Vehicles with a scored sample in RunFleet.
  Observed observed_;
  std::vector<double> setup_s_, checkpoint_ms_, restore_ms_, query_ms_,
      scrape_ms_, heap_bytes_;
  double fps_t1_ = 0.0, fps_t2_ = 0.0;
  std::uint64_t released_alarms_ = 0;
  navarchos::obs::StatsSnapshot scraped_;
};

}  // namespace

const std::vector<WorkloadSpec>& Workloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads)
    if (name == spec.name) return &spec;
  return nullptr;
}

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  RunResult result;
  Runner(spec, options, &result).Run();
  return result;
}

}  // namespace perfbench
