// Experiment E12 — runtime scaling (google-benchmark).
//
// The paper claims polynomial running time in n and 1/eps (exponential in
// K for the APTAS). These microbenchmarks measure the implementations:
// packers and DC vs n, configuration enumeration vs the width budget, the
// configuration LP vs 1/eps, and the APTAS end to end. Branch and price
// and the solver service are measured end to end by bench_e2e.
#include <benchmark/benchmark.h>

#include <vector>

#include "gen/dag_gen.hpp"
#include "gen/rect_gen.hpp"
#include "gen/release_gen.hpp"
#include "packers/shelf.hpp"
#include "packers/skyline.hpp"
#include "precedence/dc.hpp"
#include "precedence/uniform_shelf.hpp"
#include "release/aptas.hpp"
#include "release/config_lp.hpp"
#include "util/rng.hpp"

namespace {

using namespace stripack;

std::vector<Rect> bench_rects(std::size_t n) {
  Rng rng(42);
  gen::RectParams params;
  return gen::random_rects(n, params, rng);
}

Instance bench_precedence_instance(std::size_t n) {
  Rng rng(43);
  gen::RectParams params;
  const auto rects = gen::random_rects(n, params, rng);
  std::vector<Item> items;
  for (const Rect& r : rects) items.push_back(Item{r, 0.0});
  Instance ins{std::move(items)};
  const Dag dag = gen::gnp_dag(n, 4.0 / static_cast<double>(n), rng);
  for (const Edge& e : dag.edges()) ins.add_precedence(e.from, e.to);
  return ins;
}

void BM_Nfdh(benchmark::State& state) {
  const auto rects = bench_rects(static_cast<std::size_t>(state.range(0)));
  const ShelfPacker packer = make_nfdh();
  for (auto _ : state) {
    benchmark::DoNotOptimize(packer.pack(rects, 1.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Nfdh)->Range(64, 16384)->Complexity(benchmark::oNLogN);

void BM_Ffdh(benchmark::State& state) {
  const auto rects = bench_rects(static_cast<std::size_t>(state.range(0)));
  const ShelfPacker packer = make_ffdh();
  for (auto _ : state) {
    benchmark::DoNotOptimize(packer.pack(rects, 1.0));
  }
}
BENCHMARK(BM_Ffdh)->Range(64, 4096);

void BM_Skyline(benchmark::State& state) {
  const auto rects = bench_rects(static_cast<std::size_t>(state.range(0)));
  const SkylinePacker packer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(packer.pack(rects, 1.0));
  }
}
BENCHMARK(BM_Skyline)->Range(64, 4096);

void BM_DcPack(benchmark::State& state) {
  const Instance ins =
      bench_precedence_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dc_pack(ins));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DcPack)->Range(64, 2048)->Complexity();

void BM_UniformShelf(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(44);
  Instance ins;
  for (std::size_t i = 0; i < n; ++i) ins.add_item(rng.uniform(0.1, 0.9), 1.0);
  const Dag dag = gen::gnp_dag(n, 4.0 / static_cast<double>(n), rng);
  for (const Edge& e : dag.edges()) ins.add_precedence(e.from, e.to);
  for (auto _ : state) {
    benchmark::DoNotOptimize(uniform_shelf_pack(ins));
  }
}
BENCHMARK(BM_UniformShelf)->Range(64, 8192);

void BM_EnumerateConfigurations(benchmark::State& state) {
  // Widths 1/K..1 quantized: the budget drives Q exponentially in K.
  const int K = static_cast<int>(state.range(0));
  std::vector<double> widths;
  for (int c = K; c >= 1; --c) {
    widths.push_back(static_cast<double>(c) / K);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        release::enumerate_configurations(widths, 1.0, 10'000'000));
  }
}
BENCHMARK(BM_EnumerateConfigurations)->DenseRange(2, 10, 2);

void BM_ConfigLp(benchmark::State& state) {
  Rng rng(45);
  gen::ReleaseWorkloadParams params;
  params.n = static_cast<std::size_t>(state.range(0));
  params.K = 4;
  const Instance ins = gen::poisson_release_workload(params, rng);
  const auto problem = release::make_problem(ins);
  for (auto _ : state) {
    benchmark::DoNotOptimize(release::solve_config_lp(problem));
  }
}
BENCHMARK(BM_ConfigLp)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Unit(benchmark::kMillisecond);

void BM_ConfigLpColgen(benchmark::State& state) {
  // Same LP solved by warm-started column generation instead of full
  // enumeration: each master re-solve resumes from the previous basis.
  Rng rng(45);
  gen::ReleaseWorkloadParams params;
  params.n = static_cast<std::size_t>(state.range(0));
  params.K = 4;
  const Instance ins = gen::poisson_release_workload(params, rng);
  const auto problem = release::make_problem(ins);
  release::ConfigLpOptions options;
  options.use_column_generation = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(release::solve_config_lp(problem, options));
  }
}
BENCHMARK(BM_ConfigLpColgen)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Unit(benchmark::kMillisecond);

void BM_FractionalLowerBoundExact(benchmark::State& state) {
  // The certified exact lower bound on a release-heavy workload: one LP
  // phase per distinct release (the hottest path in the test suite).
  Rng rng(77);
  gen::ReleaseWorkloadParams params;
  params.n = static_cast<std::size_t>(state.range(0));
  params.K = 2;
  params.arrival_rate = 10.0;
  const Instance ins = gen::poisson_release_workload(params, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(release::fractional_lower_bound(ins));
  }
}
BENCHMARK(BM_FractionalLowerBoundExact)
    ->RangeMultiplier(2)
    ->Range(64, 512)
    ->Unit(benchmark::kMillisecond);

void BM_AptasEndToEnd(benchmark::State& state) {
  Rng rng(46);
  gen::ReleaseWorkloadParams params;
  params.n = static_cast<std::size_t>(state.range(0));
  params.K = 3;
  const Instance ins = gen::poisson_release_workload(params, rng);
  release::AptasParams ap;
  ap.epsilon = 1.0;
  ap.K = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(release::aptas_pack(ins, ap));
  }
}
BENCHMARK(BM_AptasEndToEnd)->Range(32, 512)->Unit(benchmark::kMillisecond);

void BM_AptasEpsilonCost(benchmark::State& state) {
  // 1/eps drives R and W: the polynomial-in-1/eps claim.
  Rng rng(47);
  gen::ReleaseWorkloadParams params;
  params.n = 100;
  params.K = 2;
  const Instance ins = gen::poisson_release_workload(params, rng);
  release::AptasParams ap;
  ap.epsilon = 3.0 / static_cast<double>(state.range(0));  // eps' = 1/range
  ap.K = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(release::aptas_pack(ins, ap));
  }
}
BENCHMARK(BM_AptasEpsilonCost)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
