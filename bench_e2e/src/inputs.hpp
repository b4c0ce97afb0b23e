// Seeded input generation. The system under test only ever receives the
// instances built here; the same seed always yields the same inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "util/rng.hpp"

namespace e2e {

/// Derives an independent seed from a base seed and a stream label.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t label);

/// The branch-and-price scaling instance of n items: widths in the
/// two-to-three-per-column regime, integer heights 1..2, a few release
/// phases (the shape of the `BM_BnpScale*` benches).
[[nodiscard]] stripack::Instance scale_instance(std::size_t n,
                                                std::uint64_t seed);

struct CorpusEntry {
  std::string family;
  stripack::Instance instance;
  /// Known integral optimum (gen/hard_integral certificates).
  std::optional<double> ip_height;
};

/// The solve corpus: the canonical scale instances (n = 40/90/120, fixed
/// generator seed 49) and jittered hard_integral instances of fixed
/// jitter. The seed orders the corpus and the items of every instance,
/// which leaves the solver's work unchanged, so every seed measures the
/// same work. `parallel` selects the solve_parallel subset.
[[nodiscard]] std::vector<CorpusEntry> solve_corpus(std::uint64_t seed,
                                                    bool parallel);

/// A request class: the master-LP shape the service routes on (distinct
/// widths and distinct releases). Widths are integers on a strip of 100,
/// so canonicalization rescales every request.
struct RequestClass {
  std::vector<int> widths;
  std::vector<int> releases;
};

struct ClassShape {
  std::size_t count = 0;
  int min_widths = 2;
  int max_widths = 3;
  int min_width = 15;
  int max_width = 60;
  /// Class k gets releases {0, 2, ..., 2 * (k % phase_cycle)}.
  int phase_cycle = 2;
};

/// Fixed request classes: they depend only on `shape`, never on the
/// workload seed, so every seed sends the same kind of traffic.
[[nodiscard]] std::vector<RequestClass> request_classes(
    const ClassShape& shape);

/// A request of class `cls` with fresh demand: every width and release of
/// the class appears, item count in [min_items, max_items], integer heights
/// in [1, max_height], items in random order.
[[nodiscard]] stripack::Instance class_request(const RequestClass& cls,
                                               stripack::Rng& rng,
                                               int min_items, int max_items,
                                               int max_height);

/// The same instance with its items in a random order.
[[nodiscard]] stripack::Instance shuffled(const stripack::Instance& instance,
                                          stripack::Rng& rng);

/// `stripack-instance v1` text of an instance.
[[nodiscard]] std::string instance_text(const stripack::Instance& instance);

}  // namespace e2e
