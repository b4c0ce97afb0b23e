// Deterministic fault-injection harness for the LP / branch-and-price
// solve pipeline.
//
// A `FaultPlan` is a small list of injection events, each firing exactly
// once when a named site counter (pivot k, refactorization j, pricing
// round r) reaches its trigger value. The actions model the failure
// classes the recovery ladder must contain:
//
//  - PerturbEta:        corrupt one entry of the engine's factorization
//                       (eta file / inverse) so basic values drift — the
//                       residual check must detect and repair it.
//  - NearSingularPivot: report the next pivot element as numerically
//                       tiny, driving the refactorize-and-retry rung.
//  - Throw:             raise `FaultInjected` out of the solver — the
//                       failover barriers must contain it.
//  - TripStop:          behave as if `SimplexOptions::stop` fired — the
//                       anytime deadline path.
//
// A `FaultInjector` owns a plan and is installed through the null-checked
// `SimplexOptions::fault` hook: engines `poll()` each site at the matching
// boundary and apply whatever action (usually None) comes back. The hook
// costs one pointer compare per site when absent. Plans are generated
// deterministically from a seed (`FaultPlan::random`), so every recovery
// path is reproducible in tests; `poll` is thread-safe (atomic counters,
// exactly-once claims) so one injector can serve cloned node masters.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace stripack {

/// Engine boundary at which a fault event can fire. Counters are global
/// per injector (not per solve), so a plan describes "the k-th pivot the
/// workload executes", whichever solve call it lands in.
enum class FaultSite { Pivot, Refactor, PricingRound };
inline constexpr int kNumFaultSites = 3;

/// What the engine must simulate when an event fires (see file comment).
enum class FaultAction { None, PerturbEta, NearSingularPivot, Throw, TripStop };

[[nodiscard]] const char* to_string(FaultSite site);
[[nodiscard]] const char* to_string(FaultAction action);

/// Exception raised by engines on a `Throw` action. Deliberately an
/// ordinary `std::runtime_error`: the containment layers must not need to
/// know they are catching an injected fault rather than a real one.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& what)
      : std::runtime_error(what) {}
};

/// One injection event: fires the first time `site`'s counter reaches
/// `at` (counters start at 1 on the first poll of a site).
struct FaultEvent {
  FaultSite site = FaultSite::Pivot;
  std::uint64_t at = 1;
  FaultAction action = FaultAction::None;
  /// Relative size of the eta corruption for `PerturbEta` (ignored
  /// otherwise). Large enough to flunk the residual check by design.
  double magnitude = 1e-2;
};

/// A reproducible schedule of injection events.
struct FaultPlan {
  std::vector<FaultEvent> events;

  /// Deterministic plan with `num_events` events spread over the first
  /// `horizon` occurrences of each site, drawn from `seed` via the
  /// repo-standard xoshiro generator. Same seed, same plan, any platform.
  [[nodiscard]] static FaultPlan random(std::uint64_t seed, int num_events,
                                        std::uint64_t horizon);
};

/// Installs a `FaultPlan` behind `SimplexOptions::fault`. Thread-safe:
/// each event is claimed exactly once even when cloned engines poll
/// concurrently.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Advances `site`'s counter and returns the action of the (at most
  /// one) unfired event scheduled for this occurrence, claiming it. When
  /// the action is `PerturbEta` and `magnitude` is non-null, the event's
  /// magnitude is written through.
  FaultAction poll(FaultSite site, double* magnitude = nullptr);

  /// Events fired so far (for test assertions that a plan engaged).
  [[nodiscard]] std::uint64_t fired() const {
    return fired_.load(std::memory_order_relaxed);
  }

  /// Occurrences of `site` observed so far.
  [[nodiscard]] std::uint64_t observed(FaultSite site) const;

 private:
  FaultPlan plan_;
  std::vector<std::atomic<bool>> claimed_;
  std::array<std::atomic<std::uint64_t>, kNumFaultSites> counters_{};
  std::atomic<std::uint64_t> fired_{0};
};

// --- connection fault dimension (service/net) ------------------------------
//
// The same exactly-once, seeded-plan discipline extended to the network
// front end. Sites are the client-side I/O boundaries of
// `service::net::FrameClient` (the misbehaving-client harness the
// loopback tests drive): the server under test must contain every action
// with a structured error response or a clean close — never a hang, a
// crash, or a poisoned warm master.

/// Client I/O boundary at which a connection fault can fire.
enum class ConnFaultSite { Connect, Send, Recv };
inline constexpr int kNumConnFaultSites = 3;

/// What the client simulates when an event fires:
///  - ShortWrite:    dribble the frame in 1-byte writes (benign; forces
///                   the server through every partial-read resume path).
///  - Trickle:       slowloris — tiny writes with pauses, so a short
///                   server read deadline expires mid-frame.
///  - Disconnect:    orderly close mid-frame (Send) or before reading the
///                   response (Recv).
///  - Oversize:      declare a frame length beyond the server's
///                   --max-request-bytes cap.
///  - AbortiveClose: SO_LINGER(0) close — the peer sees RST/EPOLLHUP
///                   (the storm variant is a loop of these).
enum class ConnFaultAction {
  None,
  ShortWrite,
  Trickle,
  Disconnect,
  Oversize,
  AbortiveClose,
};

[[nodiscard]] const char* to_string(ConnFaultSite site);
[[nodiscard]] const char* to_string(ConnFaultAction action);

/// One connection event: fires the first time `site`'s counter reaches
/// `at` (counters start at 1, like FaultEvent).
struct ConnFaultEvent {
  ConnFaultSite site = ConnFaultSite::Send;
  std::uint64_t at = 1;
  ConnFaultAction action = ConnFaultAction::None;
};

/// A reproducible schedule of connection faults (seeded like FaultPlan;
/// kept a separate type so LP plans and connection plans never mix and
/// existing seeded LP sweeps keep their exact event streams).
struct ConnFaultPlan {
  std::vector<ConnFaultEvent> events;

  [[nodiscard]] static ConnFaultPlan random(std::uint64_t seed,
                                            int num_events,
                                            std::uint64_t horizon);
};

/// Thread-safe exactly-once dispenser for a ConnFaultPlan; one injector
/// can serve many concurrent client threads.
class ConnFaultInjector {
 public:
  explicit ConnFaultInjector(ConnFaultPlan plan);

  /// Advances `site`'s counter and claims + returns the action of the (at
  /// most one) unfired event scheduled for this occurrence.
  ConnFaultAction poll(ConnFaultSite site);

  [[nodiscard]] std::uint64_t fired() const {
    return fired_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t observed(ConnFaultSite site) const;

 private:
  ConnFaultPlan plan_;
  std::vector<std::atomic<bool>> claimed_;
  std::array<std::atomic<std::uint64_t>, kNumConnFaultSites> counters_{};
  std::atomic<std::uint64_t> fired_{0};
};

}  // namespace stripack
