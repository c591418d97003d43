#include "lib/fingerprint.h"

#include <algorithm>

namespace perfbench {
namespace {

class Fnv {
 public:
  void Bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(double value) { Bytes(&value, sizeof(value)); }
  void Add(std::uint64_t value) { Bytes(&value, sizeof(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void AddAlarms(const std::vector<core::Alarm>& alarms, Fnv* fp) {
  fp->Add(static_cast<std::uint64_t>(alarms.size()));
  for (const core::Alarm& alarm : alarms) {
    fp->Add(static_cast<std::uint64_t>(alarm.vehicle_id));
    fp->Add(static_cast<std::uint64_t>(alarm.timestamp));
    fp->Add(static_cast<std::uint64_t>(alarm.channel));
    fp->Add(alarm.score);
    fp->Add(alarm.threshold);
  }
}

}  // namespace

std::uint64_t RunFingerprint(const core::FleetRunResult& run) {
  // The batch runner lists alarms vehicle by vehicle, a served run in
  // release order; each vehicle's own sequence must agree exactly.
  std::vector<core::Alarm> alarms = run.alarms;
  std::stable_sort(alarms.begin(), alarms.end(),
                   [](const core::Alarm& a, const core::Alarm& b) {
                     return a.vehicle_id < b.vehicle_id;
                   });
  Fnv fp;
  AddAlarms(alarms, &fp);
  fp.Add(static_cast<std::uint64_t>(run.scored_samples.size()));
  for (const auto& samples : run.scored_samples) {
    fp.Add(static_cast<std::uint64_t>(samples.size()));
    for (const auto& sample : samples) {
      fp.Add(static_cast<std::uint64_t>(sample.timestamp));
      for (double score : sample.scores) fp.Add(score);
    }
  }
  for (const auto& quality : run.quality) {
    fp.Add(static_cast<std::uint64_t>(quality.records_seen));
    fp.Add(static_cast<std::uint64_t>(quality.RecordsDropped()));
  }
  return fp.value();
}

std::uint64_t AlarmsFingerprint(const std::vector<core::Alarm>& alarms) {
  Fnv fp;
  AddAlarms(alarms, &fp);
  return fp.value();
}

}  // namespace perfbench
