// Self-test of the benchmark's own logic: the tail-percentile rule, the
// response parser and the output checker. Run by ctest in the benchmark's
// build tree and by run.py before every measurement.
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check.hpp"
#include "core/instance.hpp"
#include "service/solver_service.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "selftest FAILED: " << what << '\n';
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void tail_rule() {
  // 19 samples: not even the median has ten beyond it.
  e2e::TailPercentile t = e2e::tail_percentile(one_to(19));
  expect(t.percentile == 100.0 && t.value == 19.0 && t.beyond == 0,
         "n=19 reports the maximum");
  // 20 samples: median rank 10, ten beyond.
  t = e2e::tail_percentile(one_to(20));
  expect(t.percentile == 50.0 && t.value == 10.0 && t.beyond == 10,
         "n=20 reports p50");
  // 99 samples: p90 is rank 90 with only 9 beyond, so p50 (rank 50).
  t = e2e::tail_percentile(one_to(99));
  expect(t.percentile == 50.0 && t.value == 50.0 && t.beyond == 49,
         "n=99 stays at p50");
  t = e2e::tail_percentile(one_to(100));
  expect(t.percentile == 90.0 && t.value == 90.0 && t.beyond == 10,
         "n=100 reports p90");
  t = e2e::tail_percentile(one_to(1000));
  expect(t.percentile == 99.0 && t.value == 990.0 && t.beyond == 10,
         "n=1000 reports p99");
  t = e2e::tail_percentile(one_to(10'000));
  expect(t.percentile == 99.9 && t.value == 9990.0 && t.beyond == 10,
         "n=10000 reports p99.9");
  // The ladder ends at p99.9 however many samples there are.
  t = e2e::tail_percentile(one_to(200'000));
  expect(t.percentile == 99.9 && t.value == 199'800.0 && t.beyond == 200,
         "n=200000 still reports p99.9");
  expect(e2e::quantile({4.0, 1.0, 3.0, 2.0}, 0.5) == 2.5,
         "interpolated median");
  expect(e2e::percentile({4.0, 1.0, 3.0, 2.0}, 50.0) == 2.0 &&
             e2e::percentile({4.0, 1.0, 3.0, 2.0}, 100.0) == 4.0,
         "nearest-rank percentile");
}

// Two unit squares of width 0.5 side by side: height 1.
stripack::Instance two_squares() {
  stripack::Instance instance;
  instance.add_item(0.5, 1.0);
  instance.add_item(0.5, 1.0);
  return instance;
}

std::string response_text(const stripack::service::ServiceResponse& r) {
  std::ostringstream os;
  stripack::service::SolverService::write_response(os, r);
  return os.str();
}

void parser() {
  stripack::service::ServiceResponse r;
  r.id = 7;
  r.ok = true;
  r.height = 1.0;
  r.dual_bound = 1.0;
  r.cache_hit = true;
  r.placement = {{0.0, 0.0}, {0.5, 0.0}};
  e2e::ParsedResponse p;
  std::string error;
  expect(e2e::parse_response(response_text(r), p, error) && p.request == 7 &&
             p.status == "optimal" && p.cache_hit && !p.degraded &&
             p.placement.size() == 2 && p.placement[1].x == 0.5,
         "parses a written response: " + error);

  stripack::service::ServiceResponse bad;
  bad.id = 3;
  bad.error = "overloaded: shedding";
  expect(e2e::parse_response(response_text(bad), p, error) &&
             p.status == "error" && p.error == "overloaded: shedding",
         "parses a status error response");

  const std::string good = response_text(r);
  std::string truncated = good;
  truncated.replace(truncated.find("0.5 0"), 5, "");
  expect(!e2e::parse_response(truncated, p, error),
         "rejects a short placement");
  expect(!e2e::parse_response(good + "x\n", p, error),
         "rejects trailing bytes");
  std::string wrong_header = good;
  wrong_header.replace(0, 20, "stripack-response v2");
  expect(!e2e::parse_response(wrong_header, p, error), "rejects a v2 header");
  std::string nan_height = good;
  nan_height.replace(nan_height.find("height 1"), 8, "height nan");
  expect(!e2e::parse_response(nan_height, p, error), "rejects a NaN height");
}

void checker() {
  const stripack::Instance instance = two_squares();
  const stripack::Placement side_by_side = {{0.0, 0.0}, {0.5, 0.0}};
  e2e::Verdict v = e2e::check_answer(instance, side_by_side, 1.0, 1.0, 1.0);
  expect(v.ok && v.certified && !v.height_mismatch && v.height_ratio == 1.0,
         "accepts a certified optimum");

  const stripack::Placement stacked = {{0.0, 0.0}, {0.0, 1.0}};
  v = e2e::check_answer(instance, stacked, 1.0, 1.0);
  expect(v.ok && !v.certified && v.height_mismatch && v.height_ratio == 2.0,
         "measures an uncertified answer with a wrong height label");

  const stripack::Placement overlapping = {{0.0, 0.0}, {0.25, 0.0}};
  expect(!e2e::check_answer(instance, overlapping, 1.0, 1.0).ok,
         "rejects a corrupted (overlapping) placement");
  const stripack::Placement short_placement = {{0.0, 0.0}};
  expect(!e2e::check_answer(instance, short_placement, 1.0, 1.0).ok,
         "rejects a placement with a missing item");

  expect(!e2e::check_answer(instance, side_by_side, 1.0, 1.5).ok,
         "rejects an inflated dual_bound");
  expect(!e2e::check_answer(instance, stacked, 2.0, 1.5, 1.0).ok,
         "rejects a dual_bound above the known optimum");
  expect(!e2e::check_answer(instance, side_by_side, 1.0, 1.0, 2.0).ok,
         "rejects a placement below the known optimum");
  expect(!e2e::check_answer(instance, side_by_side, 1.0, 0.0).ok,
         "rejects a zero dual_bound");

  e2e::Tally tally;
  tally.add(e2e::check_answer(instance, side_by_side, 1.0, 1.0));
  tally.add(e2e::check_answer(instance, overlapping, 1.0, 1.0));
  expect(tally.attempted == 2 && tally.failed == 1 && tally.answers == 1 &&
             tally.certified == 1 && tally.failures.size() == 1,
         "tally counts a failed check");
}

void layer_table() {
  std::vector<e2e::Span> spans(3);
  spans[0] = {"service.run", 0, 100'000, 1, -1, 9};
  spans[1] = {"bnp.solve", 10'000, 40'000, 2, 1, 9};
  spans[2] = {"bnp.solve", 50'000, 60'000, 3, 1, 9};
  const std::vector<e2e::LayerRow> rows = e2e::layer_table(spans);
  expect(rows.size() == 2 && rows[0].name == "service.run" &&
             rows[0].total_us == 100.0 && rows[0].self_us == 60.0 &&
             rows[1].count == 2 && rows[1].self_us == 40.0,
         "self time is the span minus its children");
}

}  // namespace

int main() {
  layer_table();
  tail_rule();
  parser();
  checker();
  if (g_failures == 0) std::cout << "selftest: all checks passed\n";
  return g_failures == 0 ? 0 : 1;
}
