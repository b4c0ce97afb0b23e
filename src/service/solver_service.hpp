// Solver-as-a-service: a warm-pooled, batched front end over bnp::solve.
//
// Lifecycle of a request (see docs/ARCHITECTURE.md "Service layer"):
//
//   ingest -> canonicalize -> classify -> admission -> cache probe
//          -> warm master solve (bnp::solve_warm) -> map back -> respond
//
// Requests are canonicalized (service/canonical.hpp) and routed to a
// *request class* — all requests sharing the master LP's shape (distinct
// canonical widths + releases). Each class owns one persistent warm
// `release::ConfigLpSolver` master: consecutive requests re-bind the
// demand row right-hand sides in place and dual re-solve from the
// previous request's basis, reusing the column pool and materialized
// branch rows across requests — the cross-request amortization the
// per-call `bnp::solve` cold start leaves on the table.
//
// Admission control: a request enqueued behind a deep in-class backlog is
// admitted *degraded* — its node budget drops so the anytime contract of
// PR 7 turns overload into certified [dual_bound, height] brackets
// instead of queue collapse. Backlog is measured in queued requests (not
// wall clock), so admission decisions replay deterministically.
//
// Result cache: per class, keyed by the canonical instance (permutation-
// and scaling-invariant). Only certified-optimal results are admitted,
// and an optimum never goes stale, so an entry is served until capacity
// evicts it — oldest fill first, counted in class-local request ticks
// (no wall clock), so hits replay exactly.
//
// Determinism: `run()` processes every class's queue FIFO in stream
// order; distinct classes are independent (separate masters, caches and
// response slots) and merely execute on different pool threads. The
// worker count therefore changes scheduling only — the response bytes
// are bitwise identical at any worker count. Enabling
// `request_time_limit` (or per-request `bnp.budget.max_seconds`) trades
// that bitwise replay for bounded latency: deadlines are wall-clock.
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bnp/solver.hpp"
#include "core/instance.hpp"
#include "core/packing.hpp"
#include "service/canonical.hpp"

namespace stripack {
class ThreadPool;
}  // namespace stripack

namespace stripack::service {

struct ServiceOptions {
  /// Concurrent class pipelines in `run()` (1 = serial; N uses the
  /// service's one persistent util/ThreadPool with one chunk per class).
  /// Any value produces bitwise-identical responses.
  int workers = 1;
  /// Base solver configuration per request; the budgets below override
  /// `bnp.budget.max_nodes`.
  bnp::BnpOptions bnp{};
  /// Node budget for normally admitted requests.
  std::size_t node_budget = 10'000;
  /// Node budget under admission degradation: still a certified anytime
  /// bracket, just a cheaper one. Overload insurance only: diving needs
  /// fewer nodes than this on every `bench_e2e` `service_classes`
  /// request: raising `backlog_threshold` to 10^6 (no request degraded)
  /// leaves its `certified_share` and `height_ratio` unchanged, digit for
  /// digit.
  std::size_t degraded_node_budget = 64;
  /// A request finding this many same-class requests already queued is
  /// admitted degraded (`serve_stream` closes its batch before that).
  std::size_t backlog_threshold = 8;
  /// Per-request wall-clock budget in seconds (0 = none). Nonzero trades
  /// bitwise replay determinism for bounded tail latency.
  double request_time_limit = 0.0;
  /// Result-cache entries kept per class (oldest evicted).
  std::size_t cache_capacity = 64;
};

struct ServiceResponse {
  std::size_t id = 0;
  bool ok = false;
  /// Set when !ok: the request never produced a solve (malformed,
  /// unservable family, or the solver threw).
  std::string error;
  bnp::BnpStatus status = bnp::BnpStatus::Optimal;
  /// Heights are never rescaled by canonicalization, so these are in the
  /// request's own units; `status == Optimal` certifies
  /// `height == dual_bound` = the slice optimum, anything else brackets
  /// it (the anytime contract).
  double height = 0.0;
  double dual_bound = 0.0;
  bool cache_hit = false;
  bool degraded = false;
  /// Served on an already-warm master (diagnostic for the bench: false
  /// for a class's first request and for cache hits).
  bool warm_root = false;
  /// Lemma 3.4 realization in the request's item order and units.
  Placement placement;
};

struct ServiceStats {
  std::size_t requests = 0;
  std::size_t classes = 0;
  std::size_t cache_hits = 0;
  std::size_t degraded = 0;
  std::size_t warm_roots = 0;
  std::size_t errors = 0;
};

class SolverService {
 public:
  explicit SolverService(ServiceOptions options = {});
  ~SolverService();
  SolverService(SolverService&&) noexcept;
  SolverService& operator=(SolverService&&) noexcept;

  /// Queues one request; returns its id (stream position, the key
  /// responses are ordered by). Never throws on a bad request — the
  /// failure is recorded and surfaces as an `ok == false` response from
  /// the next `run()`. Thread-safe, including concurrently with an
  /// in-flight `run()`: admission is a locked queue, and a request
  /// enqueued while a batch is executing is simply not part of that
  /// batch — it is served by the next `run()`. `force_degraded` admits
  /// the request degraded regardless of the in-class backlog (the network
  /// front end's connection-backpressure ladder flows in through this).
  std::size_t enqueue(const Instance& instance, bool force_degraded = false);

  /// Processes every request queued *before this call* (FIFO per class,
  /// classes in parallel per `ServiceOptions::workers`) and returns their
  /// responses sorted by id. Warm masters, caches and stats persist
  /// across calls. NOT reentrant: `run()` owns the warm masters for its
  /// whole duration, so a second concurrent `run()` is rejected with
  /// ContractViolation (documented rejection rather than a silent data
  /// race; `enqueue` remains safe concurrently).
  [[nodiscard]] std::vector<ServiceResponse> run();

  /// Reads a concatenated stream of `stripack-instance v1` documents
  /// from `is` (comments and blank lines between documents allowed),
  /// enqueues each, and writes one `stripack-response v1` document per
  /// request to `os` in request order. It serves in bounded batches:
  /// before a request would find `backlog_threshold` requests of its class
  /// already queued, the batch read so far is run and its responses are
  /// written and flushed. Reading a stream therefore never admits a
  /// request degraded by itself (its `admission` line reads `normal`),
  /// and memory stays bounded by classes x `backlog_threshold`, however
  /// long the stream. A mid-document parse error poisons the rest of the
  /// stream (no resync point): the broken request gets an error response
  /// and ingestion stops there. A sink that fails mid-response (`os` goes
  /// bad, e.g. the reader vanished) stops the writer and the reader
  /// cleanly: remaining responses are dropped, never spun on. Returns the
  /// number of responses *fully written and flushed* — compare against
  /// `stats().requests` to detect a truncated response stream.
  std::size_t serve_stream(std::istream& is, std::ostream& os);

  /// Snapshot of the cumulative counters since construction (by value —
  /// safe to call while requests are being enqueued concurrently).
  [[nodiscard]] ServiceStats stats() const;

  /// Line-oriented response writer (shared by serve_stream, the network
  /// server in service/net and the tests):
  ///   stripack-response v1
  ///   request <id>
  ///   status optimal|node-limit|time-limit|stalled|error
  ///   [error <message>]            (status error: nothing else follows)
  ///   height <h>
  ///   dual_bound <d>
  ///   cache hit|miss
  ///   admission normal|degraded
  ///   items <n>
  ///   <x> <y>                      (n lines)
  ///   end
  static void write_response(std::ostream& os, const ServiceResponse& r);

 private:
  struct ClassState;
  struct Pending;
  /// Queues a canonical request, or records an error response when
  /// `canonical` is empty; returns its id.
  std::size_t admit(std::optional<CanonicalRequest> canonical,
                    std::string error, bool force_degraded);
  /// The class of `class_signature` already has `backlog_threshold`
  /// requests queued (the next one would be admitted degraded).
  [[nodiscard]] bool backlog_full(const std::string& class_signature) const;
  void process_class(ClassState& cls, std::vector<Pending>& batch,
                     std::vector<ServiceResponse>& responses) const;

  /// Admission lock + run() reentrancy flag, behind a pointer so the
  /// service stays movable (moves are not thread-safe, like any object's).
  struct Sync {
    mutable std::mutex mutex;
    std::atomic<bool> running{false};
  };

  ServiceOptions options_;
  ServiceStats stats_;
  std::vector<std::unique_ptr<ClassState>> classes_;
  std::map<std::string, std::size_t> class_by_signature_;
  /// Requests rejected at ingest (canonicalization failed): flushed as
  /// error responses by the next run().
  std::vector<ServiceResponse> rejected_;
  std::size_t next_id_ = 0;
  std::unique_ptr<Sync> sync_;
  /// The class-pipeline workers, built by the first run() that needs more
  /// than one and kept for the service's lifetime.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace stripack::service
