// Resilient epoll TCP front end for the solver service.
//
// `StripackServer` listens on a TCP port and speaks the length-prefixed
// frame protocol of util/net.hpp: each request frame carries one
// `stripack-instance v1` document, each response frame one
// `stripack-response v1` document (the exact bytes
// `SolverService::write_response` emits, with `request <n>` numbering
// frames per connection — so a connection's response stream is bitwise
// identical to replaying its request stream through a direct
// `SolverService`).
//
// Every connection moves through an explicit state machine
//
//   READ_HEADER -> READ_BODY -> SOLVING -> WRITE_RESPONSE
//        ^                                      |
//        +----------- (keep-alive) -------------+--> DRAIN/CLOSE
//
// driven by a single-threaded epoll loop with non-blocking, EINTR-safe,
// SIGPIPE-immune I/O. Robustness is enforced, not aspirational:
//
//  - Deadlines: per-connection read / solve / write deadlines on a
//    monotonic timer wheel. A slowloris that trickles a frame past the
//    read deadline, and a reader that stops draining its response, both
//    get a structured `status error` (best effort) and a close — never a
//    tied-up connection slot.
//  - Bounded buffers: a frame must declare its length up front;
//    declarations beyond `max_request_bytes` are rejected with a
//    structured error *before* any body byte is buffered.
//  - Backpressure with deterministic shedding: admission is measured in
//    queued-plus-in-flight solver requests (counts, not wall clock).
//    Past `degrade_backlog` requests are admitted degraded — flowing
//    into the SolverService ladder, whose shrunken node budget yields
//    certified anytime brackets. Past `shed_backlog` (and past
//    `max_connections` at accept), requests are shed with a structured
//    `status error` / `error overloaded...` response instead of a
//    silent drop.
//  - Warm-master isolation: connection I/O and solving never share a
//    thread. Parsed requests are handed to a dedicated solver thread
//    that owns the warm `SolverService`; a connection that dies mid-
//    solve just orphans its result (dropped on arrival). The masters
//    never observe connection failures, so a killed connection cannot
//    poison the column pools the next request reuses.
//  - Spin before park: waking a parked thread costs tens of
//    microseconds on a small VM, a large share of a served round trip.
//    So at both handoffs (the solver thread waiting for jobs, the epoll
//    loop waiting for results and frames) the thread polls for a fixed
//    50 us, yielding between empty polls, before it blocks; the epoll
//    loop skips the poll when a deadline is already due. The budget is
//    scheduling, not a response-path budget: it decides only when a
//    thread sleeps, never what a request gets, so response bytes and
//    admission counts are unchanged. It buys latency with CPU, and an
//    idle server still parks both threads.
//  - Graceful drain: `request_drain()` (async-signal-safe; wired to
//    SIGTERM by examples/stripack_served) closes the listener, lets
//    in-flight solves finish and their responses flush for up to
//    `drain_seconds`, then force-closes whatever remains. `run()`
//    returns true iff the drain completed without force-closing.
//
// docs/ARCHITECTURE.md ("Network front end") has the full taxonomy and
// the soundness arguments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "service/solver_service.hpp"

namespace stripack::service::net {

struct ServerOptions {
  /// IPv4 listen address; loopback by default (tests, local serving).
  std::string host = "127.0.0.1";
  /// 0 binds a kernel-assigned ephemeral port; `start()` returns it.
  std::uint16_t port = 0;
  /// Configuration for the inner warm-pooled SolverService.
  ServiceOptions service{};
  /// Hard cap on a request frame's declared body length; larger
  /// declarations are rejected before any body byte is read.
  std::size_t max_request_bytes = 1 << 20;
  /// A whole request frame must arrive within this budget once its first
  /// byte shows up (slowloris protection); idle keep-alive connections
  /// are closed quietly after the same budget.
  double read_deadline_seconds = 10.0;
  /// A response frame must drain to the peer within this budget.
  double write_deadline_seconds = 10.0;
  /// Budget for the solver to answer a dispatched request; 0 waits
  /// indefinitely. Expiry sends a structured error and drops the eventual
  /// result — it does NOT interrupt the solver (use
  /// `service.request_time_limit` to bound solver CPU).
  double solve_deadline_seconds = 0.0;
  /// Drain budget for `request_drain()` before force-closing.
  double drain_seconds = 5.0;
  /// Accept-level cap: connections past this are shed with a structured
  /// overload error at accept.
  std::size_t max_connections = 256;
  /// Queued + in-flight solver requests at which admission degrades
  /// (certified NodeLimit brackets via the SolverService ladder).
  std::size_t degrade_backlog = 16;
  /// Queued + in-flight solver requests at which requests are shed with
  /// a structured overload error.
  std::size_t shed_backlog = 128;
};

/// Monotonic counters (snapshot via `stats()`).
struct ServerStats {
  std::size_t accepted = 0;        ///< connections accepted
  std::size_t requests = 0;        ///< complete request frames received
  std::size_t responses = 0;       ///< response frames fully written
  std::size_t protocol_errors = 0; ///< bad magic / oversize / parse errors
  std::size_t deadline_expiries = 0;
  std::size_t overload_sheds = 0;  ///< accept-level + request-level sheds
  std::size_t degraded = 0;        ///< requests admitted degraded by backlog
  std::size_t connection_drops = 0;///< mid-frame EOF, resets, write failures
  std::size_t dropped_results = 0; ///< solves finishing after their
                                   ///< connection died (master unharmed)
};

class StripackServer {
 public:
  explicit StripackServer(ServerOptions options = {});
  ~StripackServer();
  StripackServer(const StripackServer&) = delete;
  StripackServer& operator=(const StripackServer&) = delete;

  /// Binds + listens (throws ContractViolation on failure) and starts
  /// the solver thread. Returns the bound port.
  std::uint16_t start();

  /// Runs the epoll loop on the calling thread until a drain completes.
  /// Returns true iff the drain finished cleanly (no force-closed
  /// connections past the drain budget).
  bool run();

  /// Begins graceful shutdown; safe from any thread and from a signal
  /// handler (an atomic flag plus an eventfd write).
  void request_drain();

  /// The bound port (valid after `start()`).
  [[nodiscard]] std::uint16_t port() const;

  [[nodiscard]] ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace stripack::service::net
