#include "lib/host.h"

#include <malloc.h>
#include <time.h>

#include <cstdio>

namespace perfbench {
namespace {

std::int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

std::int64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }

std::int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

std::int64_t LiveHeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<std::int64_t>(info.uordblks + info.hblkhd);
}

CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return times;
  // cpu user nice system idle iowait irq softirq steal [guest guest_nice]
  unsigned long long v[8] = {};
  const int fields =
      std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(file);
  if (fields < 8) return times;
  for (unsigned long long value : v) times.total += value;
  times.steal = v[7];
  times.valid = true;
  return times;
}

double StealFraction(const CpuTimes& from, const CpuTimes& to) {
  if (!from.valid || !to.valid || to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

}  // namespace perfbench
