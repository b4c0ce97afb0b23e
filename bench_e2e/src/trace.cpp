#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace e2e {

namespace {

std::atomic<bool> g_enabled{false};

struct ThreadBuffer {
  std::int64_t slot = 0;
  /// Spans cleared from this buffer so far: ids stay unique across
  /// `clear_spans()` calls.
  std::int64_t base = 0;
  std::vector<Span> spans;
  std::vector<std::int64_t> open;  // indices of the open spans, innermost last
};

// Buffers outlive their threads so spans of joined workers survive until
// `collect()`. Each buffer is written only by its owning thread; collect
// and clear run while no arm is executing.
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_registry.back().get();
    buffer->slot = static_cast<std::int64_t>(g_registry.size() - 1);
  }
  return *buffer;
}

}  // namespace

void set_tracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool tracing() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request) {
  if (!tracing()) return;
  ThreadBuffer& buf = local_buffer();
  Span span;
  span.name = name;
  span.id = (buf.slot << 40) |
            (buf.base + static_cast<std::int64_t>(buf.spans.size()));
  if (!buf.open.empty()) {
    const Span& parent = buf.spans[static_cast<std::size_t>(buf.open.back())];
    span.parent = parent.id;
    if (request == 0) request = parent.request;
  }
  span.request = request;
  index_ = static_cast<std::int64_t>(buf.spans.size());
  buf.open.push_back(index_);
  buf.spans.push_back(span);
  buf.spans.back().start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  const std::int64_t end = now_ns();
  ThreadBuffer& buf = local_buffer();
  buf.spans[static_cast<std::size_t>(index_)].end_ns = end;
  buf.open.pop_back();
}

std::vector<Span> collect() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<Span> out;
  for (const std::unique_ptr<ThreadBuffer>& buf : g_registry) {
    for (const Span& s : buf->spans) {
      if (s.end_ns != 0) out.push_back(s);
    }
  }
  return out;
}

void clear_spans() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const std::unique_ptr<ThreadBuffer>& buf : g_registry) {
    buf->base += static_cast<std::int64_t>(buf->spans.size());
    buf->spans.clear();
    buf->open.clear();
  }
}

std::vector<LayerRow> layer_table(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<double> self_ns(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_ns[i] += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  // Children nest strictly inside their parent on one thread, so the
  // covered part of the parent is the sum of its children's durations.
  for (const Span& s : spans) {
    const auto parent = by_id.find(s.parent);
    if (parent == by_id.end()) continue;
    self_ns[parent->second] -= static_cast<double>(s.end_ns - s.start_ns);
  }
  std::unordered_map<std::string, LayerRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerRow& row = rows[spans[i].name];
    row.name = spans[i].name;
    ++row.count;
    row.total_us +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
    row.self_us += self_ns[i] / 1e3;
  }
  std::vector<LayerRow> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_us != b.self_us ? a.self_us > b.self_us : a.name < b.name;
  });
  return out;
}

bool write_jsonl(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) return false;
  for (const Span& s : spans) {
    os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(os.flush());
}

}  // namespace e2e
