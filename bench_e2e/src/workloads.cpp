#include "workloads.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "bnp/solver.hpp"
#include "inputs.hpp"
#include "io/instance_io.hpp"
#include "release/config_lp.hpp"
#include "release/integralize.hpp"
#include "service/canonical.hpp"
#include "service/net/client.hpp"
#include "service/net/server.hpp"
#include "service/solver_service.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;
using stripack::Instance;
using stripack::Placement;
using stripack::Rng;
namespace bnp = stripack::bnp;
namespace release = stripack::release;
namespace service = stripack::service;
namespace net = stripack::service::net;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] double mean_span_us(const std::vector<Span>& spans,
                                  std::string_view name) {
  double total = 0.0;
  std::size_t count = 0;
  for (const Span& s : spans) {
    if (name != s.name) continue;
    total += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    ++count;
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

[[nodiscard]] double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

// The warm-up requests are the same for every seed, so set-up time
// measures the system, not the seed.
constexpr std::uint64_t kWarmSeed = 7;

/// Window length for the windowed throughput and latencies (see
/// ArmResult::throughput).
constexpr double kWindowSeconds = 0.5;
/// The quantile of window throughputs reported; latencies use 1 - this.
constexpr double kFastSide = 0.9;

// --- served_mix ------------------------------------------------------------

constexpr std::size_t kConnections = 2;
/// Share of requests that repeat (a reordered copy of) one of the
/// connection's recent fresh requests: cache reads. The rest carry fresh
/// demand: warm re-solves that fill the cache. Below one half so that the
/// median falls inside the fresh-demand latencies, not on the boundary
/// between the two populations.
constexpr double kRepeatShare = 0.4;
/// Repeats draw from this many recent fresh requests of the connection:
/// well inside the per-class cache capacity even with both connections
/// filling it, so a repeat of a certified answer is a hit.
constexpr std::size_t kRepeatWindow = 16;
/// Requests per connection and second of the run: about the rate one
/// connection reaches on a 4-core machine whose CPUs neighbours slow, so a
/// run lasts about --seconds or less while every run does the same work.
constexpr double kServedPerConnectionSecond = 4500;
/// Warm-up requests per class at set-up: the first is the class's cold
/// master solve, the rest warm its column pool.
constexpr std::size_t kServedWarmPerClass = 16;
/// Requests of the traced arm re-executed through `serve_stream` and
/// through the decomposed per-layer calls.
constexpr std::size_t kReplayRequests = 2000;
constexpr std::size_t kDecomposedRequests = 1000;

[[nodiscard]] ClassShape served_shape() {
  return ClassShape{.count = 8,
                    .min_widths = 2,
                    .max_widths = 3,
                    .min_width = 15,
                    .max_width = 60,
                    .phase_cycle = 2};
}

[[nodiscard]] Instance served_request(const RequestClass& cls, Rng& rng) {
  return class_request(cls, rng, 4, 7, 4);
}

/// One connection's request documents: fresh demand, or a reordered
/// repeat of a recent fresh request.
[[nodiscard]] std::vector<std::string> request_stream(
    const std::vector<RequestClass>& classes, std::uint64_t seed,
    std::size_t count) {
  Rng rng(seed);
  std::deque<Instance> recent;
  std::vector<std::string> bodies;
  bodies.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Instance instance;
    if (!recent.empty() && rng.bernoulli(kRepeatShare)) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(recent.size()) - 1));
      instance = shuffled(recent[pick], rng);
    } else {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(classes.size()) - 1));
      instance = served_request(classes[k], rng);
      recent.push_back(instance);
      if (recent.size() > kRepeatWindow) recent.pop_front();
    }
    bodies.push_back(instance_text(instance));
  }
  return bodies;
}

[[nodiscard]] std::vector<std::string> warm_bodies(
    const std::vector<RequestClass>& classes) {
  Rng rng(kWarmSeed);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < kServedWarmPerClass; ++i) {
    for (const RequestClass& cls : classes) {
      out.push_back(instance_text(served_request(cls, rng)));
    }
  }
  return out;
}

/// A default StripackServer on a loopback ephemeral port with its epoll
/// loop on a thread of its own; drained and joined on destruction.
class ServedSystem {
 public:
  ServedSystem() : server_(net::ServerOptions{}) {
    port_ = server_.start();
    loop_ = std::thread([this] { (void)server_.run(); });
  }
  ~ServedSystem() {
    server_.request_drain();
    loop_.join();
  }
  ServedSystem(const ServedSystem&) = delete;
  ServedSystem& operator=(const ServedSystem&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] net::ServerStats stats() const { return server_.stats(); }

 private:
  net::StripackServer server_;
  std::uint16_t port_ = 0;
  std::thread loop_;
};

struct ConnLog {
  std::vector<double> rt_ms;
  std::vector<std::int64_t> sent_ns;
  std::vector<net::ClientResult> results;
};

struct ServedState {
  std::unique_ptr<ServedSystem> system;
  std::vector<net::FrameClient> clients;
  /// Next expected `request <seq>` per connection (warm-ups consume some).
  std::vector<std::uint64_t> next_seq;
};

[[nodiscard]] ServedState served_setup(const std::vector<std::string>& warm) {
  ServedState st;
  st.system = std::make_unique<ServedSystem>();
  net::ClientOptions copts;
  copts.port = st.system->port();
  for (std::size_t c = 0; c < kConnections; ++c) {
    st.clients.emplace_back(copts);
    st.next_seq.push_back(0);
  }
  // Cold master solves first, then warm re-solves, over both connections.
  for (std::size_t i = 0; i < warm.size(); ++i) {
    const std::size_t c = i % kConnections;
    const net::ClientResult r = st.clients[c].request(warm[i]);
    if (!r.ok) {
      throw std::runtime_error("served_mix warm-up failed: " + r.error);
    }
    ++st.next_seq[c];
  }
  return st;
}

void served_layer_probes(const std::vector<std::string>& warm,
                         const std::vector<std::vector<std::string>>& streams,
                         const std::vector<ConnLog>& logs, ArmResult& out) {
  // Every request in the order it was sent, across both connections.
  struct Sent {
    std::int64_t at = 0;
    std::size_t conn = 0;
    std::size_t index = 0;
  };
  std::vector<Sent> order;
  for (std::size_t c = 0; c < logs.size(); ++c) {
    for (std::size_t k = 0; k < logs[c].sent_ns.size(); ++k) {
      order.push_back({logs[c].sent_ns[k], c, k});
    }
  }
  std::sort(order.begin(), order.end(),
            [](const Sent& a, const Sent& b) { return a.at < b.at; });

  // The same stream through a direct SolverService, one document per
  // serve_stream call: what the server does minus the network.
  service::SolverService replay;
  for (const std::string& body : warm) {
    std::istringstream is(body);
    std::ostringstream os;
    (void)replay.serve_stream(is, os);
  }
  std::vector<double> rt_us;
  std::vector<double> stream_us;
  for (std::size_t i = 0; i < std::min(order.size(), kReplayRequests); ++i) {
    const Sent& s = order[i];
    rt_us.push_back(logs[s.conn].rt_ms[s.index] * 1e3);
    std::istringstream is(streams[s.conn][s.index]);
    std::ostringstream os;
    const std::int64_t t = now_ns();
    {
      const ScopedSpan span("service.serve_stream");
      (void)replay.serve_stream(is, os);
    }
    stream_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
  }
  if (!rt_us.empty()) {
    out.layer["net.tax_us"] =
        quantile(rt_us, 0.5) - quantile(stream_us, 0.5);
  }

  // The request path's single calls, re-executed one by one.
  std::size_t sink = 0;
  for (std::size_t i = 0; i < std::min(order.size(), kDecomposedRequests);
       ++i) {
    const Sent& s = order[i];
    const net::ClientResult& r = logs[s.conn].results[s.index];
    ParsedResponse parsed;
    std::string error;
    if (!r.ok || !parse_response(r.body, parsed, error) ||
        parsed.status == "error") {
      continue;
    }
    const ScopedSpan root("probe.request", i + 1);
    Instance instance;
    {
      const ScopedSpan span("io.parse");
      std::istringstream is(streams[s.conn][s.index]);
      instance = stripack::io::read_instance(is);
    }
    service::CanonicalRequest canonical;
    {
      const ScopedSpan span("canonical");
      canonical = service::canonicalize(instance);
    }
    if (parsed.placement.size() != canonical.order.size()) continue;
    Placement canonical_placement(canonical.order.size());
    for (std::size_t c = 0; c < canonical.order.size(); ++c) {
      const stripack::Position p = parsed.placement[canonical.order[c]];
      canonical_placement[c] = {p.x / canonical.scale, p.y};
    }
    {
      const ScopedSpan span("canonical.map");
      sink += service::map_placement(canonical, canonical_placement).size();
    }
    service::ServiceResponse response;
    response.id = parsed.request;
    response.ok = true;
    response.height = parsed.height;
    response.dual_bound = parsed.dual_bound;
    response.cache_hit = parsed.cache_hit;
    response.degraded = parsed.degraded;
    response.placement = std::move(parsed.placement);
    {
      const ScopedSpan span("io.write");
      std::ostringstream os;
      service::SolverService::write_response(os, response);
      sink += os.str().size();
    }
  }
  if (sink == 0 && !order.empty()) {
    throw std::runtime_error("served_mix probes re-executed nothing");
  }
}

ArmResult served_mix(const ArmConfig& cfg) {
  ArmResult out;
  const std::vector<RequestClass> classes = request_classes(served_shape());
  const std::vector<std::string> warm = warm_bodies(classes);

  const auto per_connection =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   cfg.seconds * kServedPerConnectionSecond));
  std::vector<std::vector<std::string>> streams;
  for (std::size_t c = 0; c < kConnections; ++c) {
    streams.push_back(
        request_stream(classes, mix_seed(cfg.seed, 10 + c), per_connection));
  }

  std::optional<ServedState> state;
  for (int s = 0; s < cfg.setups; ++s) {
    state.reset();  // drains the previous server before timing the next
    const auto t = Clock::now();
    state.emplace(served_setup(warm));
    out.setup_s.push_back(seconds_since(t));
  }

  // Closed loop: each connection sends its next request only after the
  // previous reply arrived (FrameClient callers block on each exchange).
  std::vector<ConnLog> logs(kConnections);
  const auto start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        net::FrameClient& client = state->clients[c];
        const std::vector<std::string>& stream = streams[c];
        ConnLog& log = logs[c];
        log.rt_ms.reserve(per_connection);
        log.sent_ns.reserve(per_connection);
        log.results.reserve(per_connection);
        for (std::size_t k = 0; k < per_connection; ++k) {
          const ScopedSpan request("request", (c << 40) + k + 1);
          const auto t = Clock::now();
          net::ClientResult r;
          {
            const ScopedSpan span("net.round_trip");
            r = client.request(stream[k]);
          }
          log.rt_ms.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - t)
                  .count());
          log.sent_ns.push_back(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  t.time_since_epoch())
                  .count());
          log.results.push_back(std::move(r));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  out.busy_s = seconds_since(start);
  const net::ServerStats server_stats = state->system->stats();
  {
    const std::int64_t start_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            start.time_since_epoch())
            .count();
    const auto end_s = [&](const ConnLog& log, std::size_t k) {
      return static_cast<double>(log.sent_ns[k] - start_ns) / 1e9 +
             log.rt_ms[k] / 1e3;
    };
    // Only windows in which both connections were still sending.
    double both_busy_s = out.busy_s;
    for (const ConnLog& log : logs) {
      both_busy_s = std::min(both_busy_s, end_s(log, log.sent_ns.size() - 1));
    }
    const auto windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(both_busy_s / kWindowSeconds));
    std::vector<std::vector<double>> latencies(windows);
    for (const ConnLog& log : logs) {
      for (std::size_t k = 0; k < log.sent_ns.size(); ++k) {
        const auto w = static_cast<std::size_t>(end_s(log, k) / kWindowSeconds);
        if (w < windows) latencies[w].push_back(log.rt_ms[k]);
      }
    }
    for (const std::vector<double>& window : latencies) {
      out.window_rps.push_back(static_cast<double>(window.size()) /
                               kWindowSeconds);
      if (!window.empty()) {
        out.window_p50_ms.push_back(percentile(window, 50.0));
        out.window_tail.push_back(tail_percentile(window));
      }
    }
  }

  std::size_t retries = 0;
  std::size_t hits = 0;
  double rt_sum_us = 0.0;
  for (std::size_t c = 0; c < kConnections; ++c) {
    std::uint64_t seq = state->next_seq[c];
    for (std::size_t k = 0; k < logs[c].results.size(); ++k) {
      const net::ClientResult& r = logs[c].results[k];
      out.latency_ms.push_back(logs[c].rt_ms[k]);
      rt_sum_us += logs[c].rt_ms[k] * 1e3;
      ++out.completed;
      retries += static_cast<std::size_t>(std::max(0, r.attempts - 1));
      if (!r.ok) {
        out.tally.fail("transport failure: " + r.error);
        seq = 0;  // the client reconnects, and numbering restarts
        continue;
      }
      if (r.attempts > 1) seq = 0;
      ParsedResponse parsed;
      std::string error;
      if (!parse_response(r.body, parsed, error)) {
        out.tally.fail("unparseable response: " + error);
        ++seq;
        continue;
      }
      if (parsed.request != seq++) {
        out.tally.fail("response numbered " + std::to_string(parsed.request) +
                       ", expected " + std::to_string(seq - 1));
        continue;
      }
      if (parsed.status == "error") {
        out.tally.fail("status error: " + parsed.error);
        continue;
      }
      std::istringstream is(streams[c][k]);
      const Instance instance = stripack::io::read_instance(is);
      if (parsed.placement.size() != instance.size()) {
        out.tally.fail("response has " +
                       std::to_string(parsed.placement.size()) +
                       " items for a request of " +
                       std::to_string(instance.size()));
        continue;
      }
      if (parsed.cache_hit) ++hits;
      out.tally.add(check_answer(instance, parsed.placement, parsed.height,
                                 parsed.dual_bound));
    }
  }

  if (cfg.probes) {
    out.layer["net.round_trip_us"] =
        share(rt_sum_us, static_cast<double>(out.completed));
    out.layer["net.protocol_errors"] =
        static_cast<double>(server_stats.protocol_errors);
    out.layer["net.overload_sheds"] =
        static_cast<double>(server_stats.overload_sheds);
    out.layer["net.degraded"] = static_cast<double>(server_stats.degraded);
    out.layer["net.connection_drops"] =
        static_cast<double>(server_stats.connection_drops);
    out.layer["net.client_retries"] = static_cast<double>(retries);
    out.layer["service.cache_hit_share"] =
        share(static_cast<double>(hits),
              static_cast<double>(out.tally.answers));
    served_layer_probes(warm, streams, logs, out);
    const std::vector<Span> spans = collect();
    out.layer["io.parse_us"] = mean_span_us(spans, "io.parse");
    out.layer["io.write_us"] = mean_span_us(spans, "io.write");
    out.layer["canonical.us"] = mean_span_us(spans, "canonical");
    out.layer["canonical.map_us"] = mean_span_us(spans, "canonical.map");
  }
  return out;
}

// --- service_classes -------------------------------------------------------

constexpr int kServiceWorkers = 4;
constexpr std::size_t kPerClass = 16;
constexpr std::size_t kSpeedupBatches = 4;
/// Warm-up requests per class at set-up: a cold master solve and warm
/// re-solves, all below the admission backlog threshold.
constexpr std::size_t kServiceWarmPerClass = 8;
/// Batches per second of the run: about the rate of a 4-core machine whose
/// CPUs neighbours slow, so a run lasts about --seconds or less.
constexpr double kServiceBatchesPerSecond = 16;

[[nodiscard]] ClassShape service_shape() {
  return ClassShape{.count = 16,
                    .min_widths = 3,
                    .max_widths = 4,
                    .min_width = 21,
                    .max_width = 55,
                    .phase_cycle = 3};
}

[[nodiscard]] Instance service_request(const RequestClass& cls, Rng& rng) {
  return class_request(cls, rng, 8, 12, 3);
}

/// kPerClass fresh-demand requests per class, in a seeded order.
[[nodiscard]] std::vector<Instance> service_batch(
    const std::vector<RequestClass>& classes, std::uint64_t seed,
    std::uint64_t label) {
  Rng rng(mix_seed(seed, label));
  std::vector<Instance> out;
  for (const RequestClass& cls : classes) {
    for (std::size_t j = 0; j < kPerClass; ++j) {
      out.push_back(service_request(cls, rng));
    }
  }
  rng.shuffle(out);
  return out;
}

[[nodiscard]] service::SolverService service_setup(
    const std::vector<RequestClass>& classes, int workers) {
  service::SolverService svc(service::ServiceOptions{.workers = workers});
  Rng rng(kWarmSeed);
  // Below the admission backlog threshold, so no warm-up is degraded.
  for (std::size_t i = 0; i < kServiceWarmPerClass; ++i) {
    for (const RequestClass& cls : classes) {
      (void)svc.enqueue(service_request(cls, rng));
    }
  }
  for (const service::ServiceResponse& r : svc.run()) {
    if (!r.ok) throw std::runtime_error("service warm-up failed: " + r.error);
  }
  return svc;
}

/// Wall time of the same batch stream on a fresh service of `workers`.
[[nodiscard]] double batch_stream_seconds(
    const std::vector<RequestClass>& classes, std::uint64_t seed,
    int workers) {
  service::SolverService svc = service_setup(classes, workers);
  double total = 0.0;
  for (std::size_t b = 0; b < kSpeedupBatches; ++b) {
    const std::vector<Instance> batch =
        service_batch(classes, seed, 900'000 + b);
    const auto t = Clock::now();
    for (const Instance& instance : batch) (void)svc.enqueue(instance);
    (void)svc.run();
    total += seconds_since(t);
  }
  return total;
}

ArmResult service_classes(const ArmConfig& cfg) {
  ArmResult out;
  const std::vector<RequestClass> classes = request_classes(service_shape());
  std::optional<service::SolverService> svc;
  for (int s = 0; s < cfg.setups; ++s) {
    svc.reset();
    const auto t = Clock::now();
    svc.emplace(service_setup(classes, kServiceWorkers));
    out.setup_s.push_back(seconds_since(t));
  }
  const service::ServiceStats before = svc->stats();

  const auto batches = std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg.seconds * kServiceBatchesPerSecond));
  double window_busy = 0.0;
  double window_requests = 0.0;
  std::vector<double> window_latency_ms;
  std::vector<std::vector<double>> windows_latency_ms;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::vector<Instance> batch =
        service_batch(classes, cfg.seed, 2000 + b);
    const ScopedSpan root("batch", b + 1);
    std::vector<std::size_t> ids;
    ids.reserve(batch.size());
    std::vector<service::ServiceResponse> responses;
    const auto t = Clock::now();
    {
      const ScopedSpan span("service.enqueue");
      for (const Instance& instance : batch) {
        ids.push_back(svc->enqueue(instance));
      }
    }
    {
      const ScopedSpan span("service.run");
      responses = svc->run();
    }
    const double dt = seconds_since(t);
    out.busy_s += dt;
    out.latency_ms.push_back(dt * 1e3);
    out.completed += batch.size();
    // Windows of busy time: the harness's own work between batches
    // (generation, checking) stays out of the throughput.
    window_busy += dt;
    window_requests += static_cast<double>(batch.size());
    window_latency_ms.push_back(dt * 1e3);
    if (window_busy >= kWindowSeconds) {
      out.window_rps.push_back(window_requests / window_busy);
      out.window_p50_ms.push_back(percentile(window_latency_ms, 50.0));
      windows_latency_ms.push_back(std::move(window_latency_ms));
      window_busy = 0.0;
      window_requests = 0.0;
      window_latency_ms.clear();
    }

    const ScopedSpan check("check");
    if (responses.size() != batch.size()) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        out.tally.fail("batch returned " + std::to_string(responses.size()) +
                       " responses for " + std::to_string(batch.size()));
      }
      continue;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const service::ServiceResponse& r = responses[i];
      if (r.id != ids[i]) {
        out.tally.fail("response id mismatch");
      } else if (!r.ok) {
        out.tally.fail("service error: " + r.error);
      } else {
        out.tally.add(
            check_answer(batch[i], r.placement, r.height, r.dual_bound));
      }
    }
  }

  // A window holds about eight batches, too few for a tail of its own, so
  // the tail is taken over the batches of the faster half of windows.
  if (!out.window_rps.empty()) {
    const double median_rps = quantile(out.window_rps, 0.5);
    for (std::size_t w = 0; w < out.window_rps.size(); ++w) {
      if (out.window_rps[w] < median_rps) continue;
      out.tail_samples_ms.insert(out.tail_samples_ms.end(),
                                 windows_latency_ms[w].begin(),
                                 windows_latency_ms[w].end());
    }
  }

  if (cfg.probes) {
    const service::ServiceStats after = svc->stats();
    const auto requests = static_cast<double>(after.requests - before.requests);
    out.layer["service.batch_requests"] =
        share(requests, static_cast<double>(batches));
    out.layer["service.warm_root_share"] =
        share(static_cast<double>(after.warm_roots - before.warm_roots),
              requests);
    out.layer["service.degraded_share"] = share(
        static_cast<double>(after.degraded - before.degraded), requests);
    out.layer["service.height_mismatch_share"] =
        share(static_cast<double>(out.tally.height_mismatches),
              static_cast<double>(out.tally.answers));
    const std::vector<Span> spans = collect();
    out.layer["service.run_us"] = mean_span_us(spans, "service.run");
    out.layer["service.worker_speedup"] =
        batch_stream_seconds(classes, cfg.seed, 1) /
        batch_stream_seconds(classes, cfg.seed, kServiceWorkers);
  }
  return out;
}

// --- solve_deep / solve_parallel ---------------------------------------------

struct Solved {
  const CorpusEntry* entry = nullptr;
  bnp::BnpResult result;
  double seconds = 0.0;
};

void deep_layer_probes(const std::vector<Solved>& solved, ArmResult& out) {
  double n = 0.0;
  double solve_us = 0.0;
  double nodes = 0.0;
  double created = 0.0;
  double cutoff = 0.0;
  double probes = 0.0;
  double iterations = 0.0;
  double dual_iterations = 0.0;
  double phase1 = 0.0;
  double recovery = 0.0;
  double dfs = 0.0;
  double cache_probes = 0.0;
  double cache_hits = 0.0;
  double memo = 0.0;
  double learned = 0.0;
  double pruned = 0.0;
  double root_iterations = 0.0;
  double colgen_rounds = 0.0;
  double occurrences = 0.0;
  double excess = 0.0;
  for (const Solved& s : solved) {
    const bnp::BnpResult& r = s.result;
    n += 1.0;
    solve_us += s.seconds * 1e6;
    nodes += static_cast<double>(r.nodes);
    created += static_cast<double>(r.nodes_created);
    cutoff += static_cast<double>(r.cutoff_pruned_nodes);
    probes += static_cast<double>(r.strong_branch_probes);
    iterations += static_cast<double>(r.lp_iterations);
    dual_iterations += static_cast<double>(r.dual_iterations);
    phase1 += static_cast<double>(r.warm_phase1_iterations);
    recovery += r.lp_refactor_retries + r.lp_residual_repairs +
                r.lp_cold_restarts + r.master_failovers;
    dfs += static_cast<double>(r.pricing_dfs_expansions);
    cache_probes += static_cast<double>(r.pricing_cache_probes);
    cache_hits += static_cast<double>(r.pricing_cache_hits);
    memo += static_cast<double>(r.pricing_memo_hits);
    learned += static_cast<double>(r.nogoods_learned);
    pruned += static_cast<double>(r.nogood_prunes + r.propagation_prunes);

    // The root LP, the problem build and the Lemma 3.4 step, re-executed
    // on their own: bnp::solve runs them inside one call.
    const Instance& instance = s.entry->instance;
    const ScopedSpan root("probe.instance");
    release::ConfigLpProblem problem;
    {
      const ScopedSpan span("config_lp.make_problem");
      problem = release::make_problem(instance);
    }
    {
      const ScopedSpan span("config_lp.root_solve");
      release::ConfigLpOptions lp = bnp::BnpOptions{}.lp;
      lp.use_pricing_cache = bnp::BnpOptions{}.pricing_cache;
      release::ConfigLpSolver solver(problem, lp);
      const release::FractionalSolution sol = solver.solve();
      root_iterations += static_cast<double>(sol.iterations);
      colgen_rounds += sol.colgen_rounds;
    }
    release::FractionalSolution incumbent;
    incumbent.feasible = true;
    incumbent.status = stripack::lp::SolveStatus::Optimal;
    incumbent.height = r.height;
    incumbent.slices = r.slices;
    {
      const ScopedSpan span("integralize");
      occurrences += static_cast<double>(
          release::integralize(instance, problem, incumbent).occurrences);
    }
    excess += r.packing.height() - r.height;
  }
  const std::vector<Span> spans = collect();
  out.layer["bnp.solve_us"] = share(solve_us, n);
  out.layer["bnp.nodes"] = share(nodes, n);
  out.layer["bnp.nodes_created"] = share(created, n);
  out.layer["bnp.us_per_node"] = share(solve_us, nodes);
  out.layer["bnp.cutoff_pruned_share"] = share(cutoff, nodes);
  out.layer["bnp.strong_branch_probes"] = share(probes, n);
  out.layer["lp.iterations"] = share(iterations, n);
  out.layer["lp.dual_iterations"] = share(dual_iterations, n);
  out.layer["lp.warm_phase1_iterations"] = share(phase1, n);
  out.layer["lp.recovery_events"] = share(recovery, n);
  out.layer["pricing.dfs_expansions"] = share(dfs, n);
  out.layer["pricing.cache_hit_share"] = share(cache_hits, cache_probes);
  out.layer["pricing.memo_hits"] = share(memo, n);
  out.layer["conflicts.nogoods_learned"] = share(learned, n);
  out.layer["conflicts.prune_share"] = share(pruned, created + pruned);
  out.layer["config_lp.make_problem_us"] =
      mean_span_us(spans, "config_lp.make_problem");
  out.layer["config_lp.root_solve_us"] =
      mean_span_us(spans, "config_lp.root_solve");
  out.layer["config_lp.root_iterations"] = share(root_iterations, n);
  out.layer["config_lp.colgen_rounds"] = share(colgen_rounds, n);
  out.layer["integralize.us"] = mean_span_us(spans, "integralize");
  out.layer["integralize.occurrences"] = share(occurrences, n);
  out.layer["integralize.excess"] = share(excess, n);
  out.layer["validate.us"] = mean_span_us(spans, "validate");
}

void parallel_layer_probes(const std::vector<Solved>& solved, ArmResult& out) {
  double inflation = 0.0;
  double t1 = 0.0;
  double t4 = 0.0;
  double batches = 0.0;
  double retries = 0.0;
  for (const Solved& s : solved) {
    // The same instance at the serial default, for the node inflation
    // and speedup of batch-parallel search.
    const auto t = Clock::now();
    bnp::BnpResult serial;
    {
      const ScopedSpan span("probe.bnp.solve.threads1");
      serial = bnp::solve(s.entry->instance, bnp::BnpOptions{});
    }
    t1 += seconds_since(t);
    t4 += s.seconds;
    inflation += share(static_cast<double>(s.result.nodes),
                       static_cast<double>(
                           std::max<std::size_t>(1, serial.nodes)));
    batches += static_cast<double>(s.result.batches);
    retries += s.result.node_retries;
  }
  const auto n = static_cast<double>(solved.size());
  out.layer["worker_pool.batches"] = share(batches, n);
  out.layer["worker_pool.node_inflation"] = share(inflation, n);
  out.layer["worker_pool.speedup"] = share(t1, t4);
  out.layer["worker_pool.node_retries"] = share(retries, n);
}

/// The CPUs this process may run on.
[[nodiscard]] std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return {0};
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out.empty() ? std::vector<int>{0} : out;
}

/// Pins the calling thread to one CPU; best effort.
void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

constexpr int kParallelThreads = 4;
/// Wall seconds of one pass over the corpus on a 4-core machine: a plain
/// run makes round(--seconds / this) passes, and at least two.
constexpr double kDeepPassSeconds = 5.6;
constexpr double kParallelPassSeconds = 3.6;

ArmResult solve_arm(const ArmConfig& cfg, bool parallel) {
  ArmResult out;
  bnp::BnpOptions options;
  options.threads = parallel ? kParallelThreads : 1;
  std::vector<CorpusEntry> corpus;
  for (int s = 0; s < cfg.setups; ++s) {
    // Input generation plus one serial warm-up solve of a fixed instance
    // (serial in both arms: a threaded warm-up only adds scheduling noise).
    const auto t = Clock::now();
    corpus = solve_corpus(cfg.seed, parallel);
    (void)bnp::solve(scale_instance(40, 49), bnp::BnpOptions{});
    out.setup_s.push_back(seconds_since(t));
  }
  const double pass_seconds =
      parallel ? kParallelPassSeconds : kDeepPassSeconds;
  const int passes =
      cfg.passes > 0 ? cfg.passes
                     : std::max(2, static_cast<int>(std::lround(
                                       cfg.seconds / pass_seconds)));

  // The shared machine slows single CPUs by up to 1.8x for seconds to
  // minutes at a time, and rarely all of them at once. So a plain
  // solve_deep run makes `trials` copies of its passes at once, each on a
  // CPU of its own, and every pass solves the whole corpus: an instance's
  // solves lie on different CPUs and a pass apart, and its fastest solve is
  // its sample.
  const std::vector<int> cpus = allowed_cpus();
  const std::size_t trials =
      parallel ? 1
               : std::clamp<std::size_t>(static_cast<std::size_t>(cfg.trials),
                                         1, cpus.size());
  std::vector<std::vector<double>> trial_best(
      trials, std::vector<double>(corpus.size(), 0.0));
  std::vector<Tally> trial_tally(trials);
  std::vector<Solved> solved;
  const auto run_trial = [&](std::size_t trial) {
    // Copies start at different instances, so they rarely solve the same
    // one at the same moment.
    const std::size_t offset = trial * corpus.size() / trials;
    for (int pass = 0; pass < passes; ++pass) {
      for (std::size_t k = 0; k < corpus.size(); ++k) {
        const std::size_t i = (k + offset) % corpus.size();
        const CorpusEntry& entry = corpus[i];
        const ScopedSpan root("instance", i + 1);
        Solved s;
        s.entry = &entry;
        const auto t = Clock::now();
        {
          const ScopedSpan span("bnp.solve");
          s.result = bnp::solve(entry.instance, options);
        }
        s.seconds = seconds_since(t);
        double& best = trial_best[trial][i];
        if (pass == 0 || s.seconds < best) best = s.seconds;
        {
          const ScopedSpan check("check");
          trial_tally[trial].add(check_answer(
              entry.instance, s.result.packing.placement, s.result.height,
              s.result.dual_bound, entry.ip_height));
        }
        if (cfg.probes && trial == 0 && pass == 0) {
          solved.push_back(std::move(s));
        }
      }
    }
  };
  if (trials == 1) {
    run_trial(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      threads.emplace_back([&, trial] {
        pin_to_cpu(cpus[trial]);
        run_trial(trial);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    double best = trial_best[0][i];
    for (const std::vector<double>& b : trial_best) best = std::min(best, b[i]);
    out.busy_s += best;
    out.latency_ms.push_back(best * 1e3);
  }
  for (const Tally& t : trial_tally) out.tally.merge(t);
  out.completed = corpus.size();

  if (cfg.probes) {
    if (parallel) {
      parallel_layer_probes(solved, out);
    } else {
      deep_layer_probes(solved, out);
    }
  }
  return out;
}

}  // namespace

// Neighbours on a shared machine slow single CPUs by up to 1.8x for
// seconds to minutes, so most runs mix fast and slow windows. The decile
// on the fast side tracks the system's own speed, and is still a rate it
// held for a tenth of the run; the quartile still read slow in runs that
// were only partly slowed.
double ArmResult::throughput() const {
  if (!window_rps.empty()) return quantile(window_rps, kFastSide);
  return busy_s > 0.0 ? static_cast<double>(completed) / busy_s : 0.0;
}

double ArmResult::latency_p50_ms() const {
  if (!window_p50_ms.empty()) {
    return quantile(window_p50_ms, 1.0 - kFastSide);
  }
  return percentile(latency_ms, 50.0);
}

// A whole-run p99.9 of round trips rests on the slowest 0.1% of them,
// which on a shared machine are mostly bursts of interference: it spread
// by more than its own value between runs of the same code.
double ArmResult::latency_tail_ms() const {
  if (!window_tail.empty()) {
    std::vector<double> values;
    for (const TailPercentile& t : window_tail) values.push_back(t.value);
    return quantile(values, 1.0 - kFastSide);
  }
  return tail_percentile(tail_samples()).value;
}

const std::vector<double>& ArmResult::tail_samples() const {
  return tail_samples_ms.empty() ? latency_ms : tail_samples_ms;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "served_mix", "service_classes", "solve_deep", "solve_parallel"};
  return names;
}

ArmResult run_arm(const std::string& workload, const ArmConfig& config) {
  if (workload == "served_mix") return served_mix(config);
  if (workload == "service_classes") return service_classes(config);
  if (workload == "solve_deep") return solve_arm(config, false);
  if (workload == "solve_parallel") return solve_arm(config, true);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace e2e
