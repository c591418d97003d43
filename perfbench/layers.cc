#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "detect/factory.h"
#include "lib/host.h"
#include "lib/stats.h"
#include "lib/trace.h"
#include "transform/transformer.h"

namespace perfbench {
namespace {

namespace detect = navarchos::detect;
namespace transform = navarchos::transform;
namespace persist = navarchos::persist;

/// Time spent in the wrapped stage, and how often it ran.
struct StageClock {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
};

class TimedTransformer : public transform::Transformer {
 public:
  TimedTransformer(std::unique_ptr<transform::Transformer> inner,
                   StageClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}
  std::string Name() const override { return inner_->Name(); }
  std::vector<std::string> FeatureNames() const override {
    return inner_->FeatureNames();
  }
  std::optional<transform::TransformedSample> Collect(
      const telemetry::Record& record) override {
    const std::int64_t t0 = NowNs();
    auto sample = inner_->Collect(record);
    clock_->ns += NowNs() - t0;
    ++clock_->calls;
    return sample;
  }
  void Reset() override { inner_->Reset(); }
  void SaveState(persist::Encoder& encoder) const override {
    inner_->SaveState(encoder);
  }
  bool RestoreState(persist::Decoder& decoder) override {
    return inner_->RestoreState(decoder);
  }

 private:
  std::unique_ptr<transform::Transformer> inner_;
  StageClock* clock_;
};

class TimedDetector : public detect::Detector {
 public:
  TimedDetector(std::unique_ptr<detect::Detector> inner, StageClock* fit,
                StageClock* score)
      : inner_(std::move(inner)), fit_(fit), score_(score) {}
  std::string Name() const override { return inner_->Name(); }
  void Fit(const std::vector<std::vector<double>>& ref) override {
    const std::int64_t t0 = NowNs();
    inner_->Fit(ref);
    fit_->ns += NowNs() - t0;
    ++fit_->calls;
  }
  std::vector<double> Score(const std::vector<double>& sample) override {
    const std::int64_t t0 = NowNs();
    auto scores = inner_->Score(sample);
    score_->ns += NowNs() - t0;
    ++score_->calls;
    return scores;
  }
  std::size_t ScoreChannels() const override { return inner_->ScoreChannels(); }
  std::vector<std::string> ChannelNames() const override {
    return inner_->ChannelNames();
  }
  std::size_t MinReferenceSize() const override {
    return inner_->MinReferenceSize();
  }
  std::vector<std::vector<double>> SelfCalibrationScores(
      int exclusion_radius) const override {
    return inner_->SelfCalibrationScores(exclusion_radius);
  }
  bool ScoresAreProbabilities() const override {
    return inner_->ScoresAreProbabilities();
  }
  void SaveState(persist::Encoder& encoder) const override {
    inner_->SaveState(encoder);
  }
  bool RestoreState(persist::Decoder& decoder) override {
    return inner_->RestoreState(decoder);
  }

 private:
  std::unique_ptr<detect::Detector> inner_;
  StageClock* fit_;
  StageClock* score_;
};

/// Span durations of `name` (ascending; empty when never recorded).
const std::vector<double>& Durations(
    const std::map<std::string, SpanSummary>& spans, const char* name) {
  static const std::vector<double> kNone;
  const auto it = spans.find(name);
  return it == spans.end() ? kNone : it->second.durations_us;
}

}  // namespace

void ProbeMonitorStages(const Feed& feed, const core::MonitorConfig& monitor,
                        Observed* observed) {
  StageClock collect, fit, score;
  std::uint64_t frames = 0;
  for (const telemetry::VehicleHistory& vehicle : feed.fleet.vehicles) {
    auto transformer = transform::MakeTransformer(monitor.transform,
                                                  monitor.transform_options);
    detect::DetectorOptions options = monitor.detector_options;
    if (options.feature_names.empty())
      options.feature_names = transformer->FeatureNames();
    auto detector = detect::MakeDetector(monitor.detector, options);
    core::VehicleMonitor probe(
        vehicle.spec.id, monitor,
        std::make_unique<TimedTransformer>(std::move(transformer), &collect),
        std::make_unique<TimedDetector>(std::move(detector), &fit, &score));
    for (const telemetry::SensorFrame& frame :
         telemetry::MakeVehicleStream(vehicle)) {
      (void)probe.OnFrame(frame);
      ++frames;
    }
    (void)probe.Flush();
  }
  if (frames > 0)
    observed->transform_us_per_frame =
        static_cast<double>(collect.ns) / 1e3 / static_cast<double>(frames);
  if (score.calls > 0)
    observed->detect_score_us = static_cast<double>(score.ns) / 1e3 /
                                static_cast<double>(score.calls);
  if (fit.calls > 0)
    observed->detect_fit_ms = static_cast<double>(fit.ns) / 1e6 /
                              static_cast<double>(fit.calls);
}

std::map<std::string, Metric> PerLayerMetrics(const Observed& o) {
  const std::map<std::string, SpanSummary> spans = GlobalTracer().Summaries();
  std::map<std::string, Metric> m;
  const auto put = [&m](const char* name, double value, const char* unit) {
    m[name] = Metric{value, unit};
  };
  const auto pct = [&spans](const char* name, double q) {
    return PercentileSorted(Durations(spans, name), q);
  };
  const double kb = 1024.0;

  put("core.floor_us_per_frame", o.floor_us_per_frame, "us");
  put("transform.us_per_frame", o.transform_us_per_frame, "us");
  put("detect.score_us", o.detect_score_us, "us");
  put("detect.fit_ms", o.detect_fit_ms, "ms");

  // Prices per frame over the batch floor: the whole served stack, and
  // the increment of the one layer the workload adds (history in process,
  // the wire, or the shards), from a pass without it.
  const double stack_us = o.fps_t1 > 0 ? 1e6 / o.fps_t1 : 0.0;
  const double without_us =
      o.fps_t1_without_layer > 0 ? 1e6 / o.fps_t1_without_layer : 0.0;
  const double layer_us = stack_us - without_us;
  put("service.price_us_per_frame", stack_us - o.floor_us_per_frame, "us");
  put("history.price_us_per_frame",
      o.path == Path::kInProcess ? layer_us : 0.0, "us");
  put("net.price_us_per_frame", o.path == Path::kWire ? layer_us : 0.0, "us");
  put("shard.price_us_per_frame",
      o.path == Path::kSharded ? layer_us : 0.0, "us");
  put("service.submit_us_p50", pct("service.Submit", 0.50), "us");
  put("service.submit_us_p99", pct("service.Submit", 0.99), "us");
  put("service.drain_ms", pct("service.Drain", 0.50) / 1e3, "ms");

  put("runtime.cpu_us_per_frame_t1", o.cpu_us_per_frame_t1, "us");
  put("runtime.cpu_us_per_frame_t2", o.cpu_us_per_frame_t2, "us");
  put("runtime.cpu_util", o.cpu_util_t2, "cores");

  put("history.append_us_p50", pct("history.Append", 0.50), "us");
  put("history.append_us_p99", pct("history.Append", 0.99), "us");
  put("history.flush_ms", pct("history.Flush", 0.50) / 1e3, "ms");
  put("history.log_kb_per_vehicle", o.history_log_bytes / kb / o.vehicles, "KB");
  put("history.rank_ms", pct("history.Rank", 0.50) / 1e3, "ms");
  put("history.timeline_ms", pct("history.Timeline", 0.50) / 1e3, "ms");
  put("history.comove_ms", pct("history.Comove", 0.50) / 1e3, "ms");

  const bool sharded = o.path == Path::kSharded;
  const double read_ms =
      sharded ? o.persist_read_ms : pct("persist.ReadSnapshot", 0.50) / 1e3;
  put("persist.read_ms", read_ms, "ms");
  put("persist.apply_ms",
      sharded ? std::max(0.0, o.restore_ms - read_ms)
              : pct("service.RestoreFrom", 0.50) / 1e3,
      "ms");
  put("persist.bytes", o.checkpoint_bytes, "bytes");

  put("obs.snapshot_us", o.local_snapshot_us, "us");
  put("obs.series", o.snapshot_series, "count");
  put("obs.snapshot_bytes", o.snapshot_bytes, "bytes");

  const bool wire = o.path == Path::kWire;
  put("net.flush_us_p50", pct("net.Flush", 0.50), "us");
  put("net.flush_us_p99", pct("net.Flush", 0.99), "us");
  put("net.frames_per_flush",
      wire && o.counters.flushes > 0
          ? o.open_loop_frames / static_cast<double>(o.counters.flushes)
          : 0.0,
      "frames");
  put("net.bytes_per_frame",
      wire && o.open_loop_frames > 0
          ? static_cast<double>(o.counters.wire_bytes) / o.open_loop_frames
          : 0.0,
      "bytes");
  put("net.stats_rtt_us", pct("net.QueryStats", 0.50), "us");
  put("net.reconnects", static_cast<double>(o.counters.reconnects), "count");

  double skew = 0.0;
  if (!o.counters.shard_frames.empty()) {
    double sum = 0.0, peak = 0.0;
    for (std::uint64_t frames : o.counters.shard_frames) {
      sum += static_cast<double>(frames);
      peak = std::max(peak, static_cast<double>(frames));
    }
    const double mean = sum / static_cast<double>(o.counters.shard_frames.size());
    skew = mean > 0 ? peak / mean : 0.0;
  }
  put("shard.frame_skew", skew, "ratio");
  put("shard.submit_us_p50", pct("shard.Submit", 0.50), "us");
  put("shard.fleet_snapshot_us", o.fleet_snapshot_us, "us");

  put("host.steal_frac", o.steal_frac, "fraction");
  put("gen.lag_p99_us", PercentileSorted(o.gen_lag_us, 0.99), "us");
  put("latency_p50_us", PercentileSorted(o.latency_us, 0.50), "us");
  put("latency_p90_us", PercentileSorted(o.latency_us, 0.90), "us");
  put("latency_p99_us", PercentileSorted(o.latency_us, 0.99), "us");
  put("latency_p999_us", PercentileSorted(o.latency_us, 0.999), "us");
  put("trace.overhead_frac",
      o.fps_t1 > 0 ? 1.0 - o.fps_t1_traced / o.fps_t1 : 0.0, "fraction");
  return m;
}

std::string SelfTimeTable() {
  const std::map<std::string, SpanSummary> spans = GlobalTracer().Summaries();
  std::map<std::string, std::pair<double, std::size_t>> layers;
  for (const auto& [name, summary] : spans) {
    const std::string layer = name.substr(0, name.find('.'));
    layers[layer].first += summary.self_us;
    layers[layer].second += summary.count;
  }
  std::ostringstream out;
  out << "layer self time (sampled spans):\n";
  char line[160];
  for (const auto& [layer, totals] : layers) {
    std::snprintf(line, sizeof(line), "  %-10s %12.3f ms %10zu spans\n",
                  layer.c_str(), totals.first / 1e3, totals.second);
    out << line;
  }
  for (const auto& [name, summary] : spans) {
    std::snprintf(line, sizeof(line),
                  "    %-26s n=%-8zu p50 %10.2f us  self %12.3f ms\n",
                  name.c_str(), summary.count,
                  PercentileSorted(summary.durations_us, 0.5),
                  summary.self_us / 1e3);
    out << line;
  }
  return out.str();
}

}  // namespace perfbench
