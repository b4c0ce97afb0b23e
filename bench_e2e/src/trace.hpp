// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent, request id), recorded by the
// benchmark around each public call it makes into a layer. Spans stay in
// per-thread buffers until the run ends, so recording takes no lock on
// the hot path; `collect()` gathers them for the layer table and the
// JSONL dump. With tracing disabled a `ScopedSpan` costs one relaxed load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Unique within the process: (thread slot << 40) | the thread's span
  /// count when the span opened.
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1: a root span
  std::uint64_t request = 0;
};

void set_tracing(bool on);
[[nodiscard]] bool tracing();

/// Monotonic nanoseconds (steady_clock), the time base of every span.
[[nodiscard]] std::int64_t now_ns();

/// Records a span covering its own lifetime, nested under the innermost
/// open span of the same thread. `request` 0 inherits the parent's id.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int64_t index_ = -1;  // into the thread's buffer; -1 when disabled
};

/// Every span recorded so far, from all threads (closed spans only).
[[nodiscard]] std::vector<Span> collect();

/// Drops every recorded span (between arms of one traced run).
void clear_spans();

struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_us = 0.0;
  /// Span time minus the time its direct children cover.
  double self_us = 0.0;
};

/// Per-name totals, sorted by self time (largest first).
[[nodiscard]] std::vector<LayerRow> layer_table(const std::vector<Span>& spans);

/// One JSON object per line: name, start_ns, end_ns, id, parent, request.
[[nodiscard]] bool write_jsonl(const std::string& path,
                               const std::vector<Span>& spans);

}  // namespace e2e
