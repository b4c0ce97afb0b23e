// Solver-service contract tests: bitwise replay at any worker count (also
// across heaviest-first dispatch as class history accrues), warm-pool
// certificates equal to a cold bnp::solve's, deterministic admission
// degradation into anytime brackets, bounded serve_stream batches, and
// error responses (not dead workers) for unservable or malformed
// requests.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "core/validate.hpp"
#include "gen/hard_integral.hpp"
#include "io/instance_io.hpp"
#include "service/solver_service.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace stripack::service {
namespace {

Instance make(const std::vector<std::array<double, 3>>& rows,
              double strip) {
  std::vector<Item> items;
  items.reserve(rows.size());
  for (const std::array<double, 3>& r : rows) {
    items.push_back(Item{Rect{r[0], r[1]}, r[2]});
  }
  return Instance(std::move(items), strip);
}

// A small mixed stream: two width/release classes, a permuted and a
// width-rescaled duplicate (cache hits), and a same-class demand change
// (a warm re-solve).
std::vector<Instance> mixed_requests() {
  std::vector<Instance> out;
  out.push_back(make({{4, 2, 0}, {6, 2, 0}, {4, 3, 0}, {6, 3, 0}}, 10));
  // Permuted + rescaled copy of request 0 (same canonical key).
  out.push_back(make({{12, 3, 0}, {8, 2, 0}, {12, 2, 0}, {8, 3, 0}}, 20));
  // Same class as request 0, different demand.
  out.push_back(make({{4, 1, 0}, {6, 4, 0}, {6, 1, 0}}, 10));
  // A released class.
  out.push_back(make({{4, 2, 1}, {6, 2, 0}, {6, 1, 2}}, 10));
  // Exact duplicate of request 0.
  out.push_back(make({{4, 2, 0}, {6, 2, 0}, {4, 3, 0}, {6, 3, 0}}, 10));
  // Released class again, different demand.
  out.push_back(make({{4, 1, 1}, {6, 2, 0}, {6, 2, 2}}, 10));
  return out;
}

std::string request_stream() {
  std::ostringstream os;
  for (const Instance& instance : mixed_requests()) {
    io::write_instance(os, instance);
    os << "\n";
  }
  return os.str();
}

TEST(SolverService, ServeStreamIsBitwiseIdenticalAtAnyWorkerCount) {
  // Two passes per service: the second run() reuses the warm masters,
  // the result cache and the service's worker pool.
  const std::string requests = request_stream();
  std::string baseline;
  for (const int workers : {1, 2, 4}) {
    ServiceOptions options;
    options.workers = workers;
    SolverService service(options);
    std::string passes;
    for (int pass = 0; pass < 2; ++pass) {
      std::istringstream is(requests);
      std::ostringstream os;
      const std::size_t served = service.serve_stream(is, os);
      EXPECT_EQ(served, mixed_requests().size());
      passes += os.str();
    }
    if (baseline.empty()) {
      baseline = passes;
    } else {
      EXPECT_EQ(passes, baseline) << "workers=" << workers;
    }
  }
  EXPECT_NE(baseline.find("stripack-response v1"), std::string::npos);
  EXPECT_NE(baseline.find("cache hit"), std::string::npos);
}

// Eight classes of very different weight: one heavy class (4 widths, 3
// release phases, 9-11 items) and seven light ones (1-3 widths, one or
// two phases, 3-6 items). Per-class request counts change from round to
// round, so run()'s pivot-history estimate reorders the classes between
// consecutive batches.
std::vector<Instance> skewed_round(int round) {
  struct Shape {
    std::vector<int> widths;
    std::vector<int> releases;
    int min_items;
    int max_items;
  };
  const std::vector<Shape> shapes = {
      {{21, 29, 34, 47}, {0, 2, 4}, 9, 11},
      {{50}, {0}, 3, 4},
      {{30, 45}, {0}, 3, 5},
      {{25, 40}, {0, 2}, 3, 5},
      {{22, 33, 52}, {0}, 4, 6},
      {{35}, {0, 1}, 3, 4},
      {{27, 48}, {0}, 4, 6},
      {{24, 31, 44}, {0, 3}, 4, 6},
  };
  Rng rng(1000 + static_cast<std::uint64_t>(round));
  // The first items cover every width and release of the class.
  const auto pick = [&rng](const std::vector<int>& from, std::size_t i) {
    if (i < from.size()) return static_cast<double>(from[i]);
    const auto last = static_cast<std::int64_t>(from.size()) - 1;
    return static_cast<double>(
        from[static_cast<std::size_t>(rng.uniform_int(0, last))]);
  };
  std::vector<Instance> out;
  for (std::size_t c = 0; c < shapes.size(); ++c) {
    const Shape& shape = shapes[c];
    const std::size_t count =
        1 + (c * 3 + static_cast<std::size_t>(round) * 5) % 4;
    for (std::size_t j = 0; j < count; ++j) {
      const auto n = static_cast<std::size_t>(
          rng.uniform_int(shape.min_items, shape.max_items));
      std::vector<std::array<double, 3>> rows;
      for (std::size_t i = 0; i < n; ++i) {
        const double w = pick(shape.widths, i);
        const double r = pick(shape.releases, i);
        rows.push_back({w, static_cast<double>(rng.uniform_int(1, 3)), r});
      }
      out.push_back(make(rows, 100));
    }
  }
  rng.shuffle(out);
  return out;
}

TEST(SolverService, SkewedClassesReplayAcrossDispatchOrders) {
  std::string baseline;
  for (const int workers : {1, 2, 4}) {
    ServiceOptions options;
    options.workers = workers;
    options.node_budget = 200;
    SolverService service(options);
    std::ostringstream os;
    std::size_t served = 0;
    for (int round = 0; round < 3; ++round) {
      const std::vector<Instance> batch = skewed_round(round);
      for (const Instance& instance : batch) (void)service.enqueue(instance);
      const std::vector<ServiceResponse> responses = service.run();
      ASSERT_EQ(responses.size(), batch.size()) << "round " << round;
      for (const ServiceResponse& r : responses) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.id, served++);
        SolverService::write_response(os, r);
      }
    }
    EXPECT_EQ(service.stats().classes, 8u);
    if (baseline.empty()) {
      baseline = os.str();
    } else {
      EXPECT_EQ(os.str(), baseline) << "workers=" << workers;
    }
  }
}

TEST(SolverService, RepeatedRunsReplayIdentically) {
  const std::string requests = request_stream();
  std::string first;
  for (int round = 0; round < 2; ++round) {
    SolverService service;
    std::istringstream is(requests);
    std::ostringstream os;
    (void)service.serve_stream(is, os);
    if (round == 0) {
      first = os.str();
    } else {
      EXPECT_EQ(os.str(), first);
    }
  }
}

TEST(SolverService, WarmPoolMatchesColdCertifiedResults) {
  const std::vector<Instance> requests = mixed_requests();
  const ServiceOptions options;
  SolverService warm(options);
  for (const Instance& instance : requests) {
    (void)warm.enqueue(instance);
  }
  const std::vector<ServiceResponse> warm_responses = warm.run();
  ASSERT_EQ(warm_responses.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServiceResponse& w = warm_responses[i];
    ASSERT_TRUE(w.ok) << w.error;
    // The cold reference: a fresh bnp::solve of the request under the
    // service's budgeted options.
    bnp::BnpOptions cold_options = options.bnp;
    cold_options.budget.max_nodes =
        w.degraded ? options.degraded_node_budget : options.node_budget;
    const bnp::BnpResult cold = bnp::solve(requests[i], cold_options);
    // Both certify the same optimum; the incumbent *placement* may
    // legitimately differ (different search paths reach different
    // optimal packings), the certificate may not.
    EXPECT_EQ(w.status, bnp::BnpStatus::Optimal);
    EXPECT_EQ(w.status, cold.status) << "request " << i;
    EXPECT_DOUBLE_EQ(w.height, cold.height) << "request " << i;
    EXPECT_DOUBLE_EQ(w.dual_bound, cold.dual_bound) << "request " << i;
  }
  // The warm pool actually engaged: every non-cache-hit request after a
  // class's first solve ran on an already-warm master.
  EXPECT_GT(warm.stats().warm_roots, 0u);
}

TEST(SolverService, PlacementsAreValidInRequestUnits) {
  const std::vector<Instance> requests = mixed_requests();
  SolverService service;
  for (const Instance& instance : requests) {
    (void)service.enqueue(instance);
  }
  const std::vector<ServiceResponse> responses = service.run();
  ASSERT_EQ(responses.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses[i].ok) << responses[i].error;
    EXPECT_TRUE(
        testing::placement_valid(requests[i], responses[i].placement))
        << "request " << i;
  }
}

TEST(SolverService, AdmissionDegradesToCertifiedBrackets) {
  // Four same-class requests with a known LP/IP gap; the third and
  // fourth join a backlog of >= 2 and are admitted degraded with a
  // one-node budget. Overload must degrade to a certified anytime
  // bracket — never an error, never an uncertified answer.
  ServiceOptions options;
  options.backlog_threshold = 2;
  options.degraded_node_budget = 1;
  // Keep the root from closing the gap by luck: no rounding incumbent,
  // no strong branching.
  options.bnp.rounding_incumbent = false;
  options.bnp.strong_branching_probes = 0;
  SolverService service(options);
  for (const std::size_t k : {2u, 3u, 4u, 5u}) {
    (void)service.enqueue(gen::hard_integral_family(k).instance);
  }
  const std::vector<ServiceResponse> responses = service.run();
  ASSERT_EQ(responses.size(), 4u);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const ServiceResponse& r = responses[i];
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.degraded, i >= 2) << "request " << i;
    EXPECT_LE(r.dual_bound, r.height + 1e-9) << "request " << i;
    if (i < 2) {
      // Normal admission: certified optimum ip_height = k + 1.
      EXPECT_EQ(r.status, bnp::BnpStatus::Optimal) << "request " << i;
      EXPECT_DOUBLE_EQ(r.height, static_cast<double>(i + 2) + 1.0);
    } else {
      // Degraded: the one-node budget cannot close the gap, so the
      // response is an honest NodeLimit bracket.
      EXPECT_EQ(r.status, bnp::BnpStatus::NodeLimit) << "request " << i;
      EXPECT_LT(r.dual_bound, r.height) << "request " << i;
    }
  }
  EXPECT_EQ(service.stats().degraded, 2u);
}

TEST(SolverService, UnservableRequestsGetErrorResponses) {
  SolverService service;
  // Empty instance.
  (void)service.enqueue(Instance());
  // Precedence DAG.
  Instance prec;
  const VertexId a = prec.add_item(0.5, 1.0);
  const VertexId b = prec.add_item(0.25, 1.0);
  prec.add_precedence(a, b);
  (void)service.enqueue(prec);
  // Non-integer height (outside the bnp contract).
  (void)service.enqueue(make({{4, 2.5, 0}}, 10));
  // One servable request among the rejects.
  (void)service.enqueue(make({{4, 2, 0}}, 10));
  const std::vector<ServiceResponse> responses = service.run();
  ASSERT_EQ(responses.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(responses[i].ok) << "request " << i;
    EXPECT_FALSE(responses[i].error.empty()) << "request " << i;
  }
  EXPECT_TRUE(responses[3].ok) << responses[3].error;
  EXPECT_EQ(service.stats().errors, 3u);
  EXPECT_EQ(service.stats().requests, 4u);
}

TEST(SolverService, ServeStreamServesInBoundedBatches) {
  // Eleven same-class requests against a backlog threshold of 3: a
  // one-shot batch would degrade eight of them. serve_stream closes a
  // batch before the backlog fills, so every request is admitted normally
  // and the responses still come out in request order.
  std::ostringstream req;
  for (int k = 0; k < 11; ++k) {
    io::write_instance(
        req, make({{4, 1.0 + k % 3, 0}, {6, 2, 0}, {4, 1.0 + k % 2, 0}}, 10));
    req << "\n";
  }
  ServiceOptions options;
  options.backlog_threshold = 3;
  SolverService service(options);
  std::istringstream is(req.str());
  std::ostringstream os;
  EXPECT_EQ(service.serve_stream(is, os), 11u);
  EXPECT_EQ(service.stats().degraded, 0u);
  const std::string out = os.str();
  EXPECT_EQ(out.find("admission degraded"), std::string::npos) << out;
  std::size_t at = 0;
  for (int k = 0; k < 11; ++k) {
    at = out.find("request " + std::to_string(k) + "\n", at);
    ASSERT_NE(at, std::string::npos) << "request " << k;
  }
}

TEST(SolverService, ServeStreamReportsMalformedDocumentAndStops) {
  std::ostringstream req;
  io::write_instance(req, make({{4, 2, 0}, {6, 2, 0}}, 10));
  req << "\nstripack-instance v1\nstrip_width 0\nitems 1\n1 1 0\nedges 0\n";
  std::istringstream is(req.str());
  std::ostringstream os;
  SolverService service;
  const std::size_t served = service.serve_stream(is, os);
  EXPECT_EQ(served, 2u);
  const std::string out = os.str();
  EXPECT_NE(out.find("request 0\nstatus optimal"), std::string::npos)
      << out;
  EXPECT_NE(out.find("request 1\nstatus error"), std::string::npos) << out;
  EXPECT_NE(out.find("strip_width"), std::string::npos) << out;
}

}  // namespace
}  // namespace stripack::service
