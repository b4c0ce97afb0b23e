// Randomized kill sweep for the branch-and-price anytime contract
// (bnp/solver.hpp): whatever interrupts the search — a wall-clock
// deadline tripping mid-LP, a stop token injected at a random pivot, a
// caller-side cancellation, or faults racing the kill — every exit must
// carry the best incumbent, a still-valid dual bound
// (dual_bound <= optimum <= height), a feasible realized packing, and a
// documented status. Deterministic kills (TripStop plans) must also
// replay bit-identically.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "bnp/solver.hpp"
#include "core/validate.hpp"
#include "gen/hard_integral.hpp"
#include "test_support.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace stripack::bnp {
namespace {

constexpr double kTol = 1e-6;

struct Workload {
  gen::HardIntegralInstance family;
  std::string tag;
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  out.push_back({gen::hard_integral_family(2), "k2"});
  out.push_back({gen::hard_integral_family(2, 3, 4.0), "k2-released"});
  return out;
}

void expect_contract(const Workload& w, const BnpResult& result,
                     const std::string& tag) {
  const double optimum = w.family.certificate.ip_height;
  EXPECT_TRUE(result.status == BnpStatus::Optimal ||
              result.status == BnpStatus::NodeLimit ||
              result.status == BnpStatus::TimeLimit ||
              result.status == BnpStatus::Stalled)
      << tag;
  // The bracket must sandwich the known certified optimum.
  EXPECT_LE(result.dual_bound, optimum + kTol) << tag;
  EXPECT_GE(result.height, optimum - kTol) << tag;
  EXPECT_LE(result.dual_bound, result.height + kTol) << tag;
  if (result.status == BnpStatus::Optimal) {
    EXPECT_NEAR(result.height, optimum, kTol) << tag;
  }
  // The incumbent is always realized as a feasible packing.
  EXPECT_TRUE(
      testing::placement_valid(w.family.instance, result.packing.placement))
      << tag;
}

// Wall-clock deadlines from "expires before the first pivot" to "never
// bites": every rung of the sweep must exit cleanly with a valid bracket,
// and the generous end must still certify the optimum (the sweep is not
// vacuous).
TEST(BnpKillSweep, DeadlineSweepKeepsContract) {
  for (const Workload& w : workloads()) {
    for (const double deadline : {1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 30.0}) {
      BnpOptions options;
      options.budget.max_seconds = deadline;
      const BnpResult result = solve(w.family.instance, options);
      expect_contract(w, result,
                      w.tag + " deadline " + std::to_string(deadline));
      if (deadline >= 30.0) {
        EXPECT_EQ(result.status, BnpStatus::Optimal) << w.tag;
      }
    }
  }
}

// Deterministic randomized kills: a stop token tripped at a random pivot
// count (drawn from a seeded Rng) — the reproducible stand-in for "the
// deadline expired at an arbitrary instant". Each kill must keep the
// contract AND replay to the bit-identical result.
TEST(BnpKillSweep, RandomPivotKillsAreHonestAndReproducible) {
  for (const Workload& w : workloads()) {
    Rng rng(99);
    for (int trial = 0; trial < 12; ++trial) {
      FaultPlan plan;
      plan.events.push_back(
          {FaultSite::Pivot,
           static_cast<std::uint64_t>(rng.uniform_int(1, 300)),
           FaultAction::TripStop, 0.0});
      auto run = [&](bool colgen) -> BnpResult {
        FaultInjector injector(plan);
        BnpOptions options;
        options.lp.use_column_generation = colgen;
        options.lp.fault = &injector;
        return solve(w.family.instance, options);
      };
      for (const bool colgen : {false, true}) {
        const std::string tag = w.tag + " trial " + std::to_string(trial) +
                                " colgen " + std::to_string(colgen);
        const BnpResult a = run(colgen);
        expect_contract(w, a, tag);
        const BnpResult b = run(colgen);
        EXPECT_EQ(a.status, b.status) << tag;
        EXPECT_EQ(a.height, b.height) << tag;
        EXPECT_EQ(a.dual_bound, b.dual_bound) << tag;
        EXPECT_EQ(a.nodes, b.nodes) << tag;
      }
    }
  }
}

// A caller whose own stop flag is already tripped when solve() starts:
// the flag rides in the same stop token as the deadline, so it must stop
// the search with no deadline set (0) and under one that never bites
// (3600 s), and the result is still a full contract-keeping bracket (the
// trivial incumbent at the very least).
TEST(BnpKillSweep, PreTrippedCallerStopExitsCleanly) {
  for (const Workload& w : workloads()) {
    for (const double max_seconds : {0.0, 3600.0}) {
      std::atomic<bool> cancelled{true};
      BnpOptions options;
      options.budget.max_seconds = max_seconds;
      options.lp.stop = &cancelled;
      const BnpResult result = solve(w.family.instance, options);
      expect_contract(w, result,
                      w.tag + " pre-tripped stop, max_seconds " +
                          std::to_string(max_seconds));
    }
  }
}

// Kills racing injected faults in batch-parallel mode: stop tokens,
// throws and bad pivots land while worker clones evaluate nodes. Statuses
// may vary run to run (wall-clock free, but the fault counters interleave
// across threads) — the contract may not.
TEST(BnpKillSweep, ParallelKillsWithFaultsKeepContract) {
  for (const Workload& w : workloads()) {
    for (int seed = 1; seed <= 6; ++seed) {
      const FaultPlan plan = FaultPlan::random(
          static_cast<std::uint64_t>(7000 + seed), 5, 200);
      FaultInjector injector(plan);
      BnpOptions options;
      options.lp.use_column_generation = true;
      options.lp.fault = &injector;
      options.threads = 2;
      options.node_batch = 4;
      const BnpResult result = solve(w.family.instance, options);
      expect_contract(w, result,
                      w.tag + " parallel seed " + std::to_string(seed));
    }
  }
}

}  // namespace
}  // namespace stripack::bnp
