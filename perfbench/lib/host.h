// Host-side clocks and gauges: wall time, process CPU time, live heap
// bytes, and the steal share of the machine's CPU time from /proc/stat
// (time the hypervisor gave to other guests), recorded beside every run so
// noisy runs can be told apart.
#ifndef PERFBENCH_LIB_HOST_H_
#define PERFBENCH_LIB_HOST_H_

#include <cstdint>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
std::int64_t NowNs();

/// CPU time consumed by this process (all threads), in nanoseconds.
std::int64_t ProcessCpuNs();

/// Bytes the C allocator holds for live blocks, summed over every arena
/// (mallinfo2: in-use chunk bytes plus mmapped blocks). Nothing is
/// interposed on the program's own allocations.
std::int64_t LiveHeapBytes();

/// Aggregate jiffies of the "cpu" line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  bool valid = false;
};
CpuTimes ReadCpuTimes();

/// Steal share of all CPU time between two samples (0 when unavailable).
double StealFraction(const CpuTimes& from, const CpuTimes& to);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_HOST_H_
