// LP backend seam overhead (google-benchmark).
//
// Measures what the pluggable seam costs: the production eta-file engine
// vs the dense reference tableau on the same seeded covering LPs across
// sizes (the dense backend's O(m^2) pivots win only while models stay
// tiny), and the warm `sync_rows` + `solve_dual` re-solve path through
// the `lp::LpBackend` interface (the virtual seam must not tax the
// branch-and-price node re-solve).
#include <benchmark/benchmark.h>

#include <string>

#include "lp/backend.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "release/config_lp.hpp"
#include "util/rng.hpp"

namespace {

using namespace stripack;
using namespace stripack::lp;

// Mixed-sense covering LP like the differential suite's generator: GE
// demand rows plus LE capacity rows, always feasible at the tested sizes.
Model covering_model(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  for (int r = 0; r < rows; ++r) {
    m.add_row(r % 3 == 2 ? Sense::LE : Sense::GE,
              r % 3 == 2 ? 6.0 + rng.uniform() : 1.0 + rng.uniform());
  }
  for (int c = 0; c < cols; ++c) {
    std::vector<RowEntry> entries;
    for (int r = 0; r < rows; ++r) {
      if (rng.uniform() < 0.6) {
        entries.push_back({r, 0.25 + rng.uniform()});
      }
    }
    if (entries.empty()) entries.push_back({c % rows, 1.0});
    m.add_column(1.0 + rng.uniform(), entries);
  }
  return m;
}

void solve_on_backend(benchmark::State& state, const std::string& backend) {
  const int rows = static_cast<int>(state.range(0));
  const Model m = covering_model(rows, 3 * rows, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_lp_backend(backend, m, {})->solve());
  }
  state.SetComplexityN(state.range(0));
}

void BM_ColdSolveSimplex(benchmark::State& state) {
  solve_on_backend(state, "simplex");
}
BENCHMARK(BM_ColdSolveSimplex)->RangeMultiplier(2)->Range(4, 64);

void BM_ColdSolveDense(benchmark::State& state) {
  solve_on_backend(state, "dense");
}
BENCHMARK(BM_ColdSolveDense)->RangeMultiplier(2)->Range(4, 64);

// The PR 4/5 node re-solve shape through the seam: perturb one rhs,
// sync_rows (rhs-only fast path), dual-simplex re-solve from the kept
// basis. Any virtual-dispatch or copying tax on the seam shows up here.
void warm_resolve(benchmark::State& state, const std::string& backend) {
  const int rows = static_cast<int>(state.range(0));
  Model m = covering_model(rows, 3 * rows, 11);
  const auto engine = make_lp_backend(backend, m, {});
  benchmark::DoNotOptimize(engine->solve());
  const double base = m.row_rhs(0);
  double bump = 0.25;
  for (auto _ : state) {
    m.set_row_rhs(0, base + bump);
    bump = -bump;
    engine->sync_rows();
    benchmark::DoNotOptimize(engine->solve_dual());
  }
}

void BM_WarmResolveSimplex(benchmark::State& state) {
  warm_resolve(state, "simplex");
}
BENCHMARK(BM_WarmResolveSimplex)->RangeMultiplier(2)->Range(4, 32);

void BM_WarmResolveDense(benchmark::State& state) {
  warm_resolve(state, "dense");
}
BENCHMARK(BM_WarmResolveDense)->RangeMultiplier(2)->Range(4, 32);

// The configuration LP end to end on each backend (enumeration master):
// the seam's cost at the release/ layer rather than on a bare model.
void config_lp_backend(benchmark::State& state, const std::string& backend) {
  release::ConfigLpProblem problem;
  problem.widths = {0.6, 0.35, 0.2, 0.15};
  problem.releases = {0.0, 1.0, 2.0};
  problem.demand = {
      {1.0, 2.0, 1.5, 1.0}, {0.5, 1.0, 2.0, 1.0}, {1.0, 0.5, 1.0, 2.0}};
  problem.strip_width = 1.0;
  release::ConfigLpOptions options;
  options.backend = backend;
  for (auto _ : state) {
    benchmark::DoNotOptimize(release::solve_config_lp(problem, options));
  }
}

void BM_ConfigLpSimplex(benchmark::State& state) {
  config_lp_backend(state, "simplex");
}
BENCHMARK(BM_ConfigLpSimplex);

void BM_ConfigLpDense(benchmark::State& state) {
  config_lp_backend(state, "dense");
}
BENCHMARK(BM_ConfigLpDense);

}  // namespace
