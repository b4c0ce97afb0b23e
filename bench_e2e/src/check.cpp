#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/validate.hpp"
#include "trace.hpp"

namespace e2e {

namespace {

constexpr double kTol = 1e-7;

// Reads the next line and splits off its first word; false at EOF.
bool next_line(std::istringstream& is, std::string& key, std::string& rest) {
  std::string line;
  if (!std::getline(is, line)) return false;
  const std::size_t space = line.find(' ');
  key = line.substr(0, space);
  rest = space == std::string::npos ? "" : line.substr(space + 1);
  return true;
}

bool parse_number(const std::string& text, double& out) {
  std::istringstream is(text);
  is >> out;
  return !is.fail() && (is >> std::ws).eof() && std::isfinite(out);
}

bool expect(std::istringstream& is, const char* want, std::string& rest,
            std::string& error) {
  std::string key;
  if (!next_line(is, key, rest) || key != want) {
    error = std::string("expected '") + want + "' line";
    return false;
  }
  return true;
}

}  // namespace

bool parse_response(std::string_view body, ParsedResponse& out,
                    std::string& error) {
  std::istringstream is{std::string(body)};
  std::string line;
  if (!std::getline(is, line) || line != "stripack-response v1") {
    error = "missing 'stripack-response v1' header";
    return false;
  }
  std::string rest;
  double value = 0.0;
  if (!expect(is, "request", rest, error)) return false;
  if (!parse_number(rest, value) || value < 0 || value != std::floor(value)) {
    error = "bad request sequence number";
    return false;
  }
  out.request = static_cast<std::uint64_t>(value);
  if (!expect(is, "status", out.status, error)) return false;
  if (out.status == "error") {
    if (!expect(is, "error", out.error, error)) return false;
  } else {
    if (out.status != "optimal" && out.status != "node-limit" &&
        out.status != "time-limit" && out.status != "stalled") {
      error = "unknown status '" + out.status + "'";
      return false;
    }
    if (!expect(is, "height", rest, error)) return false;
    if (!parse_number(rest, out.height)) {
      error = "bad height";
      return false;
    }
    if (!expect(is, "dual_bound", rest, error)) return false;
    if (!parse_number(rest, out.dual_bound)) {
      error = "bad dual_bound";
      return false;
    }
    if (!expect(is, "cache", rest, error)) return false;
    if (rest != "hit" && rest != "miss") {
      error = "bad cache field";
      return false;
    }
    out.cache_hit = rest == "hit";
    if (!expect(is, "admission", rest, error)) return false;
    if (rest != "normal" && rest != "degraded") {
      error = "bad admission field";
      return false;
    }
    out.degraded = rest == "degraded";
    if (!expect(is, "items", rest, error)) return false;
    if (!parse_number(rest, value) || value < 0 || value > 1e7 ||
        value != std::floor(value)) {
      error = "bad item count";
      return false;
    }
    out.placement.resize(static_cast<std::size_t>(value));
    for (stripack::Position& p : out.placement) {
      if (!std::getline(is, line)) {
        error = "truncated placement";
        return false;
      }
      std::istringstream xy(line);
      if (!(xy >> p.x >> p.y) || !(xy >> std::ws).eof() ||
          !std::isfinite(p.x) || !std::isfinite(p.y)) {
        error = "bad placement line '" + line + "'";
        return false;
      }
    }
  }
  if (!std::getline(is, line) || line != "end") {
    error = "missing 'end'";
    return false;
  }
  if (is.peek() != std::char_traits<char>::eof()) {
    error = "trailing bytes after 'end'";
    return false;
  }
  return true;
}

Verdict check_answer(const stripack::Instance& instance,
                     const stripack::Placement& placement,
                     double reported_height, double dual_bound,
                     std::optional<double> ip_height) {
  Verdict v;
  {
    const ScopedSpan span("validate");
    const stripack::ValidationReport report =
        stripack::validate(instance, placement);
    if (!report.ok()) {
      v.why = "invalid placement: " + report.summary();
      return v;
    }
  }
  v.placement_height = stripack::packing_height(instance, placement);
  const double tol = kTol * std::max(1.0, v.placement_height);
  if (!(dual_bound > 0.0) || !std::isfinite(dual_bound)) {
    v.why = "non-positive dual_bound";
    return v;
  }
  if (dual_bound > v.placement_height + tol) {
    std::ostringstream os;
    os << "dual_bound " << dual_bound << " exceeds placement height "
       << v.placement_height;
    v.why = os.str();
    return v;
  }
  if (ip_height && (dual_bound > *ip_height + tol ||
                    *ip_height > v.placement_height + tol)) {
    std::ostringstream os;
    os << "certificate violated: dual_bound " << dual_bound << ", ip_height "
       << *ip_height << ", placement height " << v.placement_height;
    v.why = os.str();
    return v;
  }
  v.ok = true;
  v.certified = v.placement_height <= dual_bound + tol;
  v.height_mismatch = std::fabs(reported_height - v.placement_height) > tol;
  v.height_ratio = v.placement_height / dual_bound;
  return v;
}

void Tally::fail(std::string why) {
  ++attempted;
  ++failed;
  if (failures.size() < 5) failures.push_back(std::move(why));
}

void Tally::add(const Verdict& verdict) {
  if (!verdict.ok) {
    fail(verdict.why);
    return;
  }
  ++attempted;
  ++answers;
  if (verdict.certified) ++certified;
  if (verdict.height_mismatch) ++height_mismatches;
  ratio_sum += verdict.height_ratio;
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  answers += other.answers;
  certified += other.certified;
  height_mismatches += other.height_mismatches;
  ratio_sum += other.ratio_sum;
  for (const std::string& f : other.failures) {
    if (failures.size() < 5) failures.push_back(f);
  }
}

}  // namespace e2e
