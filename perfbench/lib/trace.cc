#include "lib/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "lib/host.h"

namespace perfbench {
namespace {

std::uint32_t ThreadId() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

/// Innermost open span of the calling thread (-1 when none).
thread_local std::int64_t t_open = -1;

}  // namespace

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::Begin(const char* name) {
  if (!enabled_ || name == nullptr) return -1;
  SpanRecord record;
  record.name = name;
  record.parent = t_open;
  record.thread = ThreadId();
  record.start_ns = NowNs();
  std::int64_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(record);
  }
  t_open = index;
  return index;
}

void Tracer::End(std::int64_t index) {
  if (index < 0) return;
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& record = spans_[static_cast<std::size_t>(index)];
  record.end_ns = now;
  t_open = record.parent;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SelfTimesUs(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& span : spans)
    if (span.parent >= 0)
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t start = spans[i].start_ns;
    const std::int64_t end = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = start;
    for (const auto& [kid_start, kid_end] : kids) {
      const std::int64_t from = std::max(kid_start, cursor);
      const std::int64_t to = std::min(kid_end, end);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = static_cast<double>(end - start - covered) / 1e3;
  }
  return self;
}

std::map<std::string, SpanSummary> Tracer::Summaries() const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<double> self = SelfTimesUs(all);
  std::map<std::string, SpanSummary> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    SpanSummary& summary = out[all[i].name];
    const double duration =
        static_cast<double>(all[i].end_ns - all[i].start_ns) / 1e3;
    ++summary.count;
    summary.total_us += duration;
    summary.self_us += self[i];
    summary.durations_us.push_back(duration);
  }
  for (auto& [name, summary] : out)
    std::sort(summary.durations_us.begin(), summary.durations_us.end());
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"thread\":%u}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent), s.thread);
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
