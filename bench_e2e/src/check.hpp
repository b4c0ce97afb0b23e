// Output checker: every answer the benchmark receives is judged here
// against the instance the benchmark itself generated.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "core/packing.hpp"

namespace e2e {

/// One `stripack-response v1` document (see SolverService::write_response).
struct ParsedResponse {
  std::uint64_t request = 0;
  std::string status;  // optimal | node-limit | time-limit | stalled | error
  std::string error;   // status error only
  double height = 0.0;
  double dual_bound = 0.0;
  bool cache_hit = false;
  bool degraded = false;
  stripack::Placement placement;
};

/// Strict parser: any deviation from the v1 layout, a missing field or
/// trailing bytes after `end` is an error (returned false, `error` set).
[[nodiscard]] bool parse_response(std::string_view body, ParsedResponse& out,
                                  std::string& error);

struct Verdict {
  bool ok = false;
  std::string why;  // set when !ok
  double placement_height = 0.0;
  /// The returned placement's height equals the dual bound: a certificate
  /// for the strip-packing problem itself, whatever `status` claims.
  bool certified = false;
  /// The reported `height` differs from the returned placement's height.
  bool height_mismatch = false;
  double height_ratio = 0.0;  // placement height / dual bound
};

/// Checks one answer: the placement passes core::validate against
/// `instance`, 0 < dual_bound <= placement height, and, when the instance
/// carries a known integral optimum `ip_height`,
/// dual_bound <= ip_height <= placement height.
[[nodiscard]] Verdict check_answer(const stripack::Instance& instance,
                                   const stripack::Placement& placement,
                                   double reported_height, double dual_bound,
                                   std::optional<double> ip_height = {});

/// Running totals over the answers of one arm.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t answers = 0;  // checked answers (attempted - failed)
  std::size_t certified = 0;
  std::size_t height_mismatches = 0;
  double ratio_sum = 0.0;
  std::vector<std::string> failures;  // the first few, for the report

  void fail(std::string why);
  /// Counts one attempt and its verdict.
  void add(const Verdict& verdict);
  void merge(const Tally& other);
};

}  // namespace e2e
