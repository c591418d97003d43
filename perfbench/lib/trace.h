// In-memory span recorder of the traced run.
//
// The benchmark wraps each call it makes into a public layer function in a
// Span: name ("layer.function"), start, end and the span that was open on
// the same thread when it began (its parent). Spans stay in memory until
// the run ends; then WriteJsonLines dumps them and SelfTimes derives each
// span's self time - its duration minus the part covered by its children.
// A disabled recorder makes Span a no-op, so the untimed code path of the
// gated runs is the same code with tracing off.
#ifndef PERFBENCH_LIB_TRACE_H_
#define PERFBENCH_LIB_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";     ///< Static string "layer.function".
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< Index of the parent span, -1 for roots.
  std::uint32_t thread = 0;  ///< Small per-thread id.
};

/// Per-name aggregate of recorded spans.
struct SpanSummary {
  std::size_t count = 0;
  double total_us = 0.0;  ///< Sum of durations.
  double self_us = 0.0;   ///< Sum of self times.
  std::vector<double> durations_us;  ///< Ascending.
};

class Tracer {
 public:
  /// Starts or stops recording; spans opened while disabled are dropped.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its index (-1 when
  /// disabled or `name` is null, which callers use to skip a sample).
  std::int64_t Begin(const char* name);
  /// Closes the span `index` opened by Begin on the same thread.
  void End(std::int64_t index);

  /// Copy of every recorded span.
  std::vector<SpanRecord> spans() const;

  /// Aggregates by span name, with self times derived from the children.
  std::map<std::string, SpanSummary> Summaries() const;

  /// Writes one JSON object per span to `path`. Returns false on I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// The process-wide recorder.
Tracer& GlobalTracer();

/// RAII span on the global tracer.
class Span {
 public:
  explicit Span(const char* name) : index_(GlobalTracer().Begin(name)) {}
  ~Span() { GlobalTracer().End(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_;
};

/// Self time of each span: its duration minus the union of its children's
/// intervals clipped to it. Index-aligned with `spans`.
std::vector<double> SelfTimesUs(const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_TRACE_H_
