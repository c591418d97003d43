#include "targets.h"

#include <filesystem>
#include <fstream>
#include <iterator>

#include "history/history_service.h"
#include "lib/fingerprint.h"
#include "lib/host.h"
#include "lib/trace.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "persist/snapshot.h"
#include "runtime/runtime_config.h"
#include "service/fleet_service.h"
#include "shard/shard_group.h"
#include "shard/shard_server.h"

namespace perfbench {

namespace history = navarchos::history;
namespace net = navarchos::net;
namespace obs = navarchos::obs;
namespace persist = navarchos::persist;
namespace service = navarchos::service;
namespace shard = navarchos::shard;

std::size_t Feed::FrameIndex(std::int32_t vehicle_id,
                             std::uint64_t vehicle_seq) const {
  return by_vehicle[base[slot_of.at(vehicle_id)] + vehicle_seq];
}

Feed MakeFeed(int vehicles, int days, std::uint64_t seed, int threads) {
  telemetry::FleetConfig config = telemetry::FleetConfig::PaperScale();
  if (vehicles != config.num_vehicles) {
    // Keep the paper's reporting share; failures stay a fixed count.
    config.num_reporting = std::max(1, vehicles * config.num_reporting /
                                           config.num_vehicles);
    config.num_recorded_failures =
        std::min(config.num_recorded_failures, config.num_reporting);
    config.num_hidden_failures = std::min(config.num_hidden_failures,
                                          vehicles - config.num_reporting);
  }
  config.num_vehicles = vehicles;
  config.days = days;
  config.seed = seed;
  Feed feed;
  feed.fleet = telemetry::GenerateFleet(
      config, navarchos::runtime::RuntimeConfig{threads});
  feed.stream = telemetry::InterleaveFleetStream(feed.fleet);
  feed.ids = service::VehicleIdsOf(feed.fleet);
  for (std::size_t i = 0; i < feed.ids.size(); ++i)
    feed.slot_of[feed.ids[i]] = i;
  std::vector<std::size_t> counts(feed.ids.size(), 0);
  for (const auto& frame : feed.stream) ++counts[feed.slot_of.at(frame.vehicle_id())];
  feed.base.assign(feed.ids.size(), 0);
  for (std::size_t i = 1; i < counts.size(); ++i)
    feed.base[i] = feed.base[i - 1] + counts[i - 1];
  feed.by_vehicle.assign(feed.stream.size(), 0);
  std::vector<std::size_t> fill = feed.base;
  for (std::size_t i = 0; i < feed.stream.size(); ++i)
    feed.by_vehicle[fill[feed.slot_of.at(feed.stream[i].vehicle_id())]++] =
        static_cast<std::uint32_t>(i);
  return feed;
}

std::uint64_t DiskBytes(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_regular_file(path, ec))
    return std::filesystem::file_size(path, ec);
  std::uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(path, ec))
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  return total;
}

namespace {

/// Traced runs record one Submit/Send span in this many frames.
constexpr std::size_t kSubmitSample = 64;

std::uint64_t HashBytes(const std::string& path, std::uint64_t hash) {
  std::ifstream in(path, std::ios::binary);
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    hash ^= static_cast<unsigned char>(*it);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// The anomaly log attached to a stack, plus the query anchors it learns
/// while records flow: the first alarmed record's sequence number.
class HistoryAttachment {
 public:
  explicit HistoryAttachment(const std::string& dir) : service_(dir) {}

  /// Opens the log in its directory, which the caller has cleared.
  Status Open() {
    Span span("history.Open");
    return service_.Open();
  }

  void Append(const history::HistoryRecord& record) {
    if (record.alarm && !has_alarm_) {
      has_alarm_ = true;
      alarm_seq_ = record.global_seq;
    }
    Span span("history.Append");
    service_.Append(record);
  }

  Status Flush() {
    Span span("history.Flush");
    return service_.Flush();
  }

  /// Picks the TIMELINE vehicle: the top of a whole-log RANK.
  Status PrepareQueries() {
    history::RankResult rank;
    Status status = service_.Rank(history::RankQuery{}, &rank);
    if (!status.ok()) return status;
    if (rank.entries.empty()) return Status::Error("history log is empty");
    top_vehicle_ = rank.entries.front().vehicle_id;
    return Status();
  }

  history::HistoryService* service() { return &service_; }
  std::int32_t top_vehicle() const { return top_vehicle_; }
  bool has_alarm() const { return has_alarm_; }
  std::uint64_t alarm_seq() const { return alarm_seq_; }

 private:
  history::HistoryService service_;
  bool has_alarm_ = false;
  std::uint64_t alarm_seq_ = 0;
  std::int32_t top_vehicle_ = 0;
};

/// One triage round over an in-process or remote query surface.
template <typename Surface>
Status TriageRound(Surface&& surface, const HistoryAttachment& history,
                   bool comove) {
  {
    history::RankResult rank;
    Span span("history.Rank");
    Status status = surface.Rank(history::RankQuery{}, &rank);
    if (!status.ok()) return status;
  }
  {
    history::TimelineQuery query;
    query.vehicle_id = history.top_vehicle();
    history::TimelineResult timeline;
    Span span("history.Timeline");
    Status status = surface.Timeline(query, &timeline);
    if (!status.ok()) return status;
  }
  if (comove && history.has_alarm()) {
    history::ComoveQuery query;
    query.alarm_seq = history.alarm_seq();
    history::ComoveResult comove;
    Span span("history.Comove");
    Status status = surface.Comove(query, &comove);
    if (!status.ok()) return status;
  }
  return Status();
}

struct LocalSurface {
  history::HistoryService* service;
  Status Rank(const history::RankQuery& q, history::RankResult* out) {
    return service->Rank(q, out);
  }
  Status Timeline(const history::TimelineQuery& q,
                  history::TimelineResult* out) {
    return service->Timeline(q, out);
  }
  Status Comove(const history::ComoveQuery& q, history::ComoveResult* out) {
    return service->Comove(q, out);
  }
};

struct RemoteSurface {
  net::IngestClient* client;
  Status Rank(const history::RankQuery& q, history::RankResult* out) {
    return client->QueryRank(q, out);
  }
  Status Timeline(const history::TimelineQuery& q,
                  history::TimelineResult* out) {
    return client->QueryTimeline(q, out);
  }
  Status Comove(const history::ComoveQuery& q, history::ComoveResult* out) {
    return client->QueryComove(q, out);
  }
};

net::ClientConfig ClientFor(std::uint16_t port, const std::string& session) {
  net::ClientConfig config;
  config.port = port;
  config.session_id = session;
  return config;
}

Status ScrapeOnce(net::IngestClient* client, obs::StatsSnapshot* out) {
  net::StatsMessage message;
  Span span("net.QueryStats");
  Status status = client->QueryStats(&message);
  if (status.ok()) *out = std::move(message.snapshot);
  return status;
}

service::ServiceConfig ServiceConfigOf(const TargetOptions& options,
                                       const core::MonitorConfig& monitor) {
  service::ServiceConfig config;
  config.monitor = monitor;
  config.runtime = navarchos::runtime::RuntimeConfig{options.threads};
  return config;
}

double MsSince(std::int64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1e6;
}

Status RestoreService(const service::ServiceConfig& config,
                      const std::string& path, std::uint64_t* fingerprint,
                      double* ms) {
  const std::int64_t t0 = NowNs();
  service::FleetService fresh(config);
  persist::Snapshot snapshot;
  {
    Span span("persist.ReadSnapshot");
    Status status = persist::ReadSnapshot(path, &snapshot);
    if (!status.ok()) return status;
  }
  {
    Span span("service.RestoreFrom");
    Status status = fresh.RestoreFrom(snapshot);
    if (!status.ok()) return status;
  }
  *ms = MsSince(t0);
  *fingerprint = AlarmsFingerprint(fresh.released_alarms());
  return Status();
}

/// kInProcess and kWire: one FleetService, fed directly or over loopback.
class ServiceTarget : public Target {
 public:
  ServiceTarget(const Feed& feed, const TargetOptions& options,
                const core::MonitorConfig& monitor)
      : feed_(feed),
        options_(options),
        config_(ServiceConfigOf(options, monitor)),
        wire_(options.path == Path::kWire) {}

  Status Init() {
    {
      Span span("service.Construct");
      service_ = std::make_unique<service::FleetService>(config_);
    }
    if (!options_.history_dir.empty()) {
      history_ = std::make_unique<HistoryAttachment>(options_.history_dir);
      Status status = history_->Open();
      if (!status.ok()) return status;
      HistoryAttachment* history = history_.get();
      service_->set_history_callback(
          [history](const history::HistoryRecord& r) { history->Append(r); });
      service_->set_checkpoint_barrier([history] { return history->Flush(); });
    }
    if (options_.release_ns != nullptr) {
      std::vector<std::int64_t>* release = options_.release_ns;
      const Feed* feed = &feed_;
      service_->set_completion_callback(
          [release, feed](const service::FrameCompletion& c) {
            (*release)[feed->FrameIndex(c.vehicle_id, c.vehicle_seq)] = NowNs();
          });
    }
    if (!wire_) {
      Span span("service.RegisterVehicle");
      for (std::int32_t id : feed_.ids) service_->RegisterVehicle(id);
      return Status();
    }
    net::ServerConfig server_config;
    if (history_) server_config.history = history_->service();
    server_ = std::make_unique<net::IngestServer>(service_.get(), server_config);
    {
      Span span("net.Start");
      Status status = server_->Start();
      if (!status.ok()) return status;
    }
    client_ = std::make_unique<net::IngestClient>(
        ClientFor(server_->port(), "perfbench"));
    Span span("net.Connect");
    return client_->Connect(feed_.ids);
  }

  ~ServiceTarget() override {
    if (client_) client_->Abort();
    if (server_) server_->Stop();
    if (stats_server_) stats_server_->Stop();
  }

  Status Submit(std::size_t index) override {
    const telemetry::SensorFrame& frame = feed_.stream[index];
    const bool sampled = index % kSubmitSample == 0;
    if (wire_) {
      Span span(sampled ? "net.Send" : nullptr);
      return client_->Send(frame);
    }
    Span span(sampled ? "service.Submit" : nullptr);
    return service_->Submit(frame) ? Status()
                                   : Status::Error("frame not admitted");
  }

  Status Tick() override {
    if (!wire_) return Status();
    ++flushes_;
    Span span("net.Flush");
    return client_->Flush();
  }

  Status EndStream() override {
    if (!wire_) return Status();
    Status status;
    {
      Span span("net.Finish");
      status = client_->Finish();
    }
    if (!status.ok()) return status;
    if (!server_->WaitForFinishedSessions(1, 60000))
      return Status::Error("wire session did not finish");
    return Status();
  }

  Status PrepareOps() override {
    if (history_) {
      Status status = history_->PrepareQueries();
      if (!status.ok()) return status;
    }
    net::IngestServer* stats_server = server_.get();
    if (stats_server == nullptr) {
      stats_server_ =
          std::make_unique<net::IngestServer>(service_.get(), net::ServerConfig{});
      Status status = stats_server_->Start();
      if (!status.ok()) return status;
      stats_server = stats_server_.get();
    }
    // A scraper holds its connection open, as a metrics poller does; the
    // HELLO registers no vehicles.
    scrape_client_ = std::make_unique<net::IngestClient>(
        ClientFor(stats_server->port(), "perfbench-scrape"));
    return scrape_client_->Connect({});
  }

  Status Checkpoint(const std::string& path) override {
    Span span("service.Checkpoint");
    return service_->Checkpoint(path);
  }

  Status CheckpointFootprint(const std::string& path, std::uint64_t* bytes,
                             std::uint64_t* state_hash) override {
    *bytes = DiskBytes(path);
    *state_hash = HashBytes(path, 0xcbf29ce484222325ull);
    return Status();
  }

  Status RestoreFresh(const std::string& path, std::uint64_t* fingerprint,
                      double* ms) override {
    return RestoreService(config_, path, fingerprint, ms);
  }

  double LocalSnapshot(bool) override {
    const std::int64_t t0 = NowNs();
    Span span("obs.SnapshotStats");
    (void)service_->SnapshotStats();
    return MsSince(t0) * 1e3;
  }

  Status Query(bool comove) override {
    if (!history_) return Status::Error("no history attached");
    if (wire_)
      return TriageRound(RemoteSurface{client_.get()}, *history_, comove);
    return TriageRound(LocalSurface{history_->service()}, *history_, comove);
  }

  Status Scrape(obs::StatsSnapshot* out) override {
    return ScrapeOnce(scrape_client_.get(), out);
  }

  std::uint64_t ReleasedAlarmsFingerprint() override {
    return AlarmsFingerprint(service_->released_alarms());
  }

  core::FleetRunResult Finish() override {
    if (server_) {
      Span span("net.Stop");
      server_->Stop();
    }
    {
      Span span("service.Drain");
      service_->Drain();
    }
    if (history_) (void)history_->Flush();
    return service_->TakeResult();
  }

  TargetCounters counters() const override {
    TargetCounters counters;
    counters.flushes = flushes_;
    if (client_) {
      counters.reconnects = client_->stats().reconnects;
      counters.wire_bytes =
          service_->metrics()->counter("server.session_bytes_in")->value();
    }
    counters.shard_frames = {service_->stats().frames_accepted};
    return counters;
  }

 private:
  const Feed& feed_;
  const TargetOptions options_;
  const service::ServiceConfig config_;
  const bool wire_;
  std::unique_ptr<HistoryAttachment> history_;
  std::unique_ptr<service::FleetService> service_;
  std::unique_ptr<net::IngestServer> server_;
  std::unique_ptr<net::IngestClient> client_;
  std::unique_ptr<net::IngestServer> stats_server_;
  std::unique_ptr<net::IngestClient> scrape_client_;
  std::uint64_t flushes_ = 0;
};

/// kSharded: a ShardGroup of `shards` services on one shared pool.
class ShardedTarget : public Target {
 public:
  ShardedTarget(const Feed& feed, const TargetOptions& options,
                const core::MonitorConfig& monitor)
      : feed_(feed), options_(options) {
    config_.service = ServiceConfigOf(options, monitor);
    config_.shard_count = static_cast<std::uint32_t>(options.shards);
  }

  Status Init() {
    {
      Span span("shard.Construct");
      group_ = std::make_unique<shard::ShardGroup>(config_);
    }
    if (!options_.history_dir.empty()) {
      history_ = std::make_unique<HistoryAttachment>(options_.history_dir);
      Status status = history_->Open();
      if (!status.ok()) return status;
      HistoryAttachment* history = history_.get();
      group_->set_history_callback(
          [history](const history::HistoryRecord& r) { history->Append(r); });
      group_->set_checkpoint_barrier([history] { return history->Flush(); });
    }
    Span span("shard.RegisterVehicle");
    for (std::int32_t id : feed_.ids) group_->RegisterVehicle(id);
    return Status();
  }

  ~ShardedTarget() override {
    if (server_) server_->Stop();
  }

  Status Submit(std::size_t index) override {
    Span span(index % kSubmitSample == 0 ? "shard.Submit" : nullptr);
    return group_->Submit(feed_.stream[index])
               ? Status()
               : Status::Error("frame not admitted");
  }

  Status EndStream() override { return Status(); }

  Status PrepareOps() override {
    if (history_) {
      Status status = history_->PrepareQueries();
      if (!status.ok()) return status;
    }
    server_ = std::make_unique<shard::ShardServer>(group_.get(),
                                                   net::ServerConfig{});
    Status status = server_->Start();
    if (!status.ok()) return status;
    for (std::uint32_t s = 0; s < config_.shard_count; ++s) {
      scrape_clients_.push_back(std::make_unique<net::IngestClient>(
          ClientFor(server_->port(static_cast<int>(s)), "perfbench-scrape")));
      status = scrape_clients_.back()->Connect({});
      if (!status.ok()) return status;
    }
    return Status();
  }

  Status Checkpoint(const std::string& dir) override {
    Span span("shard.Checkpoint");
    return group_->Checkpoint(dir);
  }

  Status CheckpointFootprint(const std::string& dir, std::uint64_t* bytes,
                             std::uint64_t* state_hash) override {
    // The manifest names the epoch, which advances on every checkpoint;
    // the per-shard state files are the part that must repeat exactly.
    *bytes = DiskBytes(dir);
    std::vector<std::string> shard_files;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec))
      if (entry.path().filename().string().rfind("shard-", 0) == 0)
        shard_files.push_back(entry.path().string());
    std::sort(shard_files.begin(), shard_files.end());
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const std::string& file : shard_files) hash = HashBytes(file, hash);
    *state_hash = hash;
    if (shard_files.size() != config_.shard_count)
      return Status::Error("unexpected shard file count in " + dir);
    return Status();
  }

  Status RestoreFresh(const std::string& dir, std::uint64_t* fingerprint,
                      double* ms) override {
    const std::int64_t t0 = NowNs();
    shard::ShardGroup fresh(config_);
    {
      Span span("shard.RestoreFromDir");
      Status status = fresh.RestoreFromDir(dir);
      if (!status.ok()) return status;
    }
    *ms = MsSince(t0);
    *fingerprint = AlarmsFingerprint(fresh.released_alarms());
    return Status();
  }

  double LocalSnapshot(bool fleet) override {
    const std::int64_t t0 = NowNs();
    if (fleet) {
      Span span("shard.FleetSnapshot");
      (void)group_->FleetSnapshot();
    } else {
      Span span("obs.SnapshotStats");
      (void)group_->shard_service(0)->SnapshotStats();
    }
    return MsSince(t0) * 1e3;
  }

  Status Query(bool comove) override {
    if (!history_) return Status::Error("no history attached");
    return TriageRound(LocalSurface{history_->service()}, *history_, comove);
  }

  Status Scrape(obs::StatsSnapshot* out) override {
    obs::StatsSnapshot merged;
    for (auto& client : scrape_clients_) {
      obs::StatsSnapshot one;
      Status status = ScrapeOnce(client.get(), &one);
      if (!status.ok()) return status;
      Span span("obs.MergeSnapshot");
      obs::MergeSnapshot(&merged, one);
    }
    *out = std::move(merged);
    return Status();
  }

  std::uint64_t ReleasedAlarmsFingerprint() override {
    return AlarmsFingerprint(group_->released_alarms());
  }

  core::FleetRunResult Finish() override {
    if (server_) server_->Stop();
    {
      Span span("shard.Drain");
      group_->Drain();
    }
    if (history_) (void)history_->Flush();
    return group_->TakeResult();
  }

  TargetCounters counters() const override {
    TargetCounters counters;
    for (std::uint32_t s = 0; s < config_.shard_count; ++s)
      counters.shard_frames.push_back(
          group_->shard_service(static_cast<int>(s))->stats().frames_accepted);
    return counters;
  }

 private:
  const Feed& feed_;
  const TargetOptions options_;
  shard::ShardGroupConfig config_;
  std::unique_ptr<HistoryAttachment> history_;
  std::unique_ptr<shard::ShardGroup> group_;
  std::unique_ptr<shard::ShardServer> server_;
  std::vector<std::unique_ptr<net::IngestClient>> scrape_clients_;
};

}  // namespace

std::unique_ptr<Target> MakeTarget(const Feed& feed,
                                   const TargetOptions& options,
                                   const core::MonitorConfig& monitor,
                                   Status* status) {
  if (options.path == Path::kSharded) {
    auto target = std::make_unique<ShardedTarget>(feed, options, monitor);
    *status = target->Init();
    if (!status->ok()) return nullptr;
    return target;
  }
  auto target = std::make_unique<ServiceTarget>(feed, options, monitor);
  *status = target->Init();
  if (!status->ok()) return nullptr;
  return target;
}

}  // namespace perfbench
