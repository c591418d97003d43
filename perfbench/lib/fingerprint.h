// Order-sensitive fingerprints of a fleet run's output, the benchmark's
// correctness oracle: every served pass must fingerprint-equal the serial
// batch core::RunFleet over the same feed.
#ifndef PERFBENCH_LIB_FINGERPRINT_H_
#define PERFBENCH_LIB_FINGERPRINT_H_

#include <cstdint>
#include <vector>

#include "core/fleet_runner.h"

namespace perfbench {

namespace core = navarchos::core;

/// FNV-1a over each vehicle's alarms in order (vehicle, timestamp,
/// channel, score, threshold), every vehicle's scored samples and its
/// data-quality counters. Alarms of different vehicles are not ordered
/// against each other, so batch and served runs compare equal.
std::uint64_t RunFingerprint(const core::FleetRunResult& run);

/// FNV-1a over an alarm sequence (the released_alarms() of a service).
std::uint64_t AlarmsFingerprint(const std::vector<core::Alarm>& alarms);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_FINGERPRINT_H_
