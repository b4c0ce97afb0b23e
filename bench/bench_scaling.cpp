// Experiment E12 — runtime scaling (google-benchmark).
//
// The paper claims polynomial running time in n and 1/eps (exponential in
// K for the APTAS). These microbenchmarks measure the implementations:
// packers and DC vs n, configuration enumeration vs the width budget, the
// configuration LP vs 1/eps, and the APTAS end to end.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bnp/solver.hpp"
#include "gen/dag_gen.hpp"
#include "gen/hard_integral.hpp"
#include "gen/rect_gen.hpp"
#include "gen/release_gen.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
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

void BM_SimplexPricing(benchmark::State& state) {
  // Pricing rules on the large enumeration models, pivot count reported as
  // a counter: Dantzig (the default) vs Bland, the slow anti-cycling
  // floor. The two weighted steepest-edge rules were removed after losing
  // here: at n=128 Dantzig took 9.0 ms against 21.6 and 22.4 ms, at
  // n=512 131 ms against 352 and 368 ms (4 CPUs, Release build).
  Rng rng(45);
  gen::ReleaseWorkloadParams params;
  params.n = static_cast<std::size_t>(state.range(0));
  params.K = 4;
  const Instance ins = gen::poisson_release_workload(params, rng);
  const auto problem = release::make_problem(ins);
  release::ConfigLpOptions options;
  options.pricing = static_cast<lp::PricingRule>(state.range(1));
  std::int64_t pivots = 0;
  for (auto _ : state) {
    const auto sol = release::solve_config_lp(problem, options);
    pivots = sol.iterations;
    benchmark::DoNotOptimize(sol);
  }
  state.counters["pivots"] = static_cast<double>(pivots);
}
BENCHMARK(BM_SimplexPricing)
    // rule: 0 Dantzig, 1 Bland
    ->ArgNames({"n", "rule"})
    ->ArgsProduct({{128, 512}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

namespace dual_row_add {

// Shared fixture data for the dual-vs-cold row-addition pair below: a
// random covering LP, its optimal basis, and a fixed set of violated cut
// rows (demanding ~25% more than the optimum's activity over random
// column subsets).
struct Setup {
  lp::Model base;
  lp::Solution solution;
  std::vector<lp::Sense> cut_senses;
  std::vector<double> cut_rhs;
  std::vector<std::vector<lp::ColumnEntry>> cut_entries;

  explicit Setup(int cols) {
    Rng rng(48);
    const int rows = 96;
    for (int r = 0; r < rows; ++r) {
      const bool ge = r % 3 == 0;
      const double rhs = rng.uniform(0.0, 6.0);
      base.add_row(ge ? lp::Sense::GE : lp::Sense::LE,
                   ge ? rhs : rhs + 1.0);
    }
    for (int c = 0; c < cols; ++c) {
      std::vector<lp::RowEntry> entries;
      for (int r = 0; r < rows; ++r) {
        if (rng.bernoulli(0.1)) entries.push_back({r, rng.uniform(0.1, 2.0)});
      }
      base.add_column(rng.uniform(0.5, 3.0), entries);
    }
    solution = lp::solve(base);
    STRIPACK_ASSERT(solution.optimal(), "bench base LP must be optimal");
    for (int k = 0; k < 4; ++k) {
      std::vector<lp::ColumnEntry> cut;
      double activity = 0.0;
      for (int c = 0; c < cols; ++c) {
        if (!rng.bernoulli(0.25)) continue;
        const double coef = rng.uniform(0.5, 1.5);
        cut.push_back({c, coef});
        activity += coef * solution.x[c];
      }
      cut_senses.push_back(lp::Sense::GE);
      cut_rhs.push_back(activity * 1.25 + 1.0);
      cut_entries.push_back(std::move(cut));
    }
  }

  void append_cuts(lp::Model& m) const {
    for (std::size_t k = 0; k < cut_entries.size(); ++k) {
      m.add_row_with_entries(cut_senses[k], cut_rhs[k], cut_entries[k]);
    }
  }
};

}  // namespace dual_row_add

void BM_DualRowAdd(benchmark::State& state) {
  // Incremental path: violated cut rows land on an engine holding the
  // previous optimal basis; timed work = sync_rows (refactorization) +
  // dual pivots. Compare against BM_DualRowAddCold on the same model.
  const dual_row_add::Setup setup(static_cast<int>(state.range(0)));
  std::int64_t dual_pivots = 0;
  for (auto _ : state) {
    state.PauseTiming();
    lp::Model m = setup.base;
    lp::SimplexOptions options;
    options.initial_basis = setup.solution.basis;
    lp::SimplexEngine engine(m, options);
    setup.append_cuts(m);
    state.ResumeTiming();
    engine.sync_rows();
    const lp::Solution s = engine.solve_dual();
    dual_pivots = s.dual_iterations;
    benchmark::DoNotOptimize(s);
  }
  state.counters["dual_pivots"] = static_cast<double>(dual_pivots);
}
BENCHMARK(BM_DualRowAdd)
    ->ArgNames({"cols"})
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_DualRowAddCold(benchmark::State& state) {
  // The baseline the dual re-solve must beat: a cold two-phase solve of
  // the same cut-augmented model.
  const dual_row_add::Setup setup(static_cast<int>(state.range(0)));
  lp::Model augmented = setup.base;
  setup.append_cuts(augmented);
  std::int64_t pivots = 0;
  for (auto _ : state) {
    const lp::Solution s = lp::solve(augmented);
    pivots = s.iterations;
    benchmark::DoNotOptimize(s);
  }
  state.counters["pivots"] = static_cast<double>(pivots);
}
BENCHMARK(BM_DualRowAddCold)
    ->ArgNames({"cols"})
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

namespace branch_and_price {

// Integer-height, integer-release workload with widths in [0.35, 0.65]
// (pairs fit, triples don't — the fractional-pair regime): heights 1..3,
// releases 0..3. Branch and price must prove integral optimality, and
// the rounding incumbent is disabled so the search genuinely branches
// (nodes ~3..10 over these sizes).
Instance bench_instance(std::size_t n) {
  Rng rng(49);
  std::vector<Item> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double w = static_cast<double>(rng.uniform_int(7, 13)) / 20.0;
    const double h = static_cast<double>(rng.uniform_int(1, 3));
    const double r = static_cast<double>(rng.uniform_int(0, 3));
    items.push_back(Item{Rect{w, h}, r});
  }
  return Instance(std::move(items), 1.0);
}

void run(benchmark::State& state) {
  const Instance ins =
      bench_instance(static_cast<std::size_t>(state.range(0)));
  bnp::BnpOptions options;
  options.rounding_incumbent = false;
  bnp::BnpResult last;
  for (auto _ : state) {
    last = bnp::solve(ins, options);
    benchmark::DoNotOptimize(last);
  }
  state.counters["nodes"] = static_cast<double>(last.nodes);
  state.counters["branch_rows"] = static_cast<double>(last.branch_rows);
  state.counters["columns"] = static_cast<double>(last.columns);
  state.counters["farkas_cols"] = static_cast<double>(last.farkas_columns);
  state.counters["dual_pivots"] = static_cast<double>(last.dual_iterations);
  state.counters["warm_phase1"] =
      static_cast<double>(last.warm_phase1_iterations);
}

}  // namespace branch_and_price

void BM_BranchAndPrice(benchmark::State& state) {
  // Warm path: one shared master, per-node dual re-solves (warm_phase1
  // stays 0).
  branch_and_price::run(state);
}
BENCHMARK(BM_BranchAndPrice)
    ->ArgNames({"n"})
    ->Arg(10)
    ->Arg(14)
    ->Arg(18)
    ->Unit(benchmark::kMillisecond);

namespace bnp_scale {

// PR 5 scaling workloads: widths in the two-to-three-per-column regime
// (persistent fractional pair totals), integer heights 1..2 and releases
// over a few phases — the searches genuinely branch (the n = 60 instance
// proves optimality over a ~100-node tree; n = 120 runs under a node
// budget and reports the bracket). Probed shapes, seed fixed.
Instance scale_instance(std::size_t n) {
  int w_lo = 21;
  int w_hi = 55;
  int r_max = 2;
  if (n >= 120) {
    w_lo = 27;
    w_hi = 45;
    r_max = 4;
  } else if (n >= 60) {
    w_lo = 27;
    w_hi = 39;
  }
  Rng rng(49);
  std::vector<Item> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double w =
        static_cast<double>(rng.uniform_int(w_lo, w_hi)) / 100.0;
    const double h = static_cast<double>(rng.uniform_int(1, 2));
    const double r = static_cast<double>(rng.uniform_int(0, r_max));
    items.push_back(Item{Rect{w, h}, r});
  }
  return Instance(std::move(items), 1.0);
}

// One configuration of the PR 5 solver; the serial-vs-parallel pairs
// share a batch size so their searches are bit-identical and the timing
// delta is pure evaluation overlap. `pr4_baseline` reverts the PR 5
// levers that still exist (cache, pseudo costs, strong branching) to
// measure the algorithmic win on the same instances; it now runs with
// the height-cap row as its incumbent cutoff, like every search.
void run_scale(benchmark::State& state, int threads, int node_batch,
               bool cache, bool pr4_baseline = false) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Instance ins = scale_instance(n);
  bnp::BnpOptions options;
  options.rounding_incumbent = false;
  options.threads = threads;
  options.node_batch = node_batch;
  options.pricing_cache = cache;
  if (pr4_baseline) {
    options.pseudo_cost_branching = false;
    options.strong_branching_probes = 0;
  }
  options.budget.max_nodes = n >= 120 ? 150 : 10'000;
  bnp::BnpResult last;
  for (auto _ : state) {
    last = bnp::solve(ins, options);
    benchmark::DoNotOptimize(last);
  }
  state.counters["nodes"] = static_cast<double>(last.nodes);
  state.counters["batches"] = static_cast<double>(last.batches);
  state.counters["dfs_expansions"] =
      static_cast<double>(last.pricing_dfs_expansions);
  state.counters["memo_hits"] =
      static_cast<double>(last.pricing_memo_hits);
  state.counters["height"] = last.height;
  state.counters["dual_bound"] = last.dual_bound;
}

}  // namespace bnp_scale

void BM_BnpScaleSerial(benchmark::State& state) {
  // The classic one-shared-master serial path with the full PR 5 kit
  // (pricing cache + DP bound, pseudo costs, strong branching).
  bnp_scale::run_scale(state, 1, 1, true);
}
BENCHMARK(BM_BnpScaleSerial)
    ->ArgNames({"n"})
    ->Arg(18)
    ->Arg(60)
    ->Arg(120)
    ->Unit(benchmark::kMillisecond);

void BM_BnpScaleSerialNoCache(benchmark::State& state) {
  // Memoized pricing off: the DFS re-enumerates from scratch per node —
  // the dfs_expansions counter against BM_BnpScaleSerial is the
  // committed cache win.
  bnp_scale::run_scale(state, 1, 1, false);
}
BENCHMARK(BM_BnpScaleSerialNoCache)
    ->ArgNames({"n"})
    ->Arg(18)
    ->Arg(60)
    ->Arg(120)
    ->Unit(benchmark::kMillisecond);

void BM_BnpScaleSerialPr4Baseline(benchmark::State& state) {
  // Every remaining PR 5 lever off (no cache, fractionality branching, no
  // strong branching), still under the height-cap row: the end-to-end
  // algorithmic comparison arm.
  bnp_scale::run_scale(state, 1, 1, false, /*pr4_baseline=*/true);
}
BENCHMARK(BM_BnpScaleSerialPr4Baseline)
    ->ArgNames({"n"})
    ->Arg(18)
    ->Arg(60)
    ->Arg(120)
    ->Unit(benchmark::kMillisecond);

void BM_BnpScaleBatchT1(benchmark::State& state) {
  // Batch-synchronous semantics (B = 8) on one thread: the serial arm of
  // the thread-scaling comparison, bit-identical to the T2/T4 runs.
  bnp_scale::run_scale(state, 1, 8, true);
}
BENCHMARK(BM_BnpScaleBatchT1)
    ->ArgNames({"n"})
    ->Arg(18)
    ->Arg(60)
    ->Arg(120)
    ->Unit(benchmark::kMillisecond);

void BM_BnpScaleBatchT2(benchmark::State& state) {
  bnp_scale::run_scale(state, 2, 8, true);
}
BENCHMARK(BM_BnpScaleBatchT2)
    ->ArgNames({"n"})
    ->Arg(18)
    ->Arg(60)
    ->Arg(120)
    ->Unit(benchmark::kMillisecond);

void BM_BnpScaleBatchT4(benchmark::State& state) {
  bnp_scale::run_scale(state, 4, 8, true);
}
BENCHMARK(BM_BnpScaleBatchT4)
    ->ArgNames({"n"})
    ->Arg(18)
    ->Arg(60)
    ->Arg(120)
    ->Unit(benchmark::kMillisecond);

namespace bnp_family {

// Branch and price over the gen/hard_integral release-wave families (two
// waves, spacing k + 1, node budget well above the tree). The jittered
// variant (seed > 0) draws per-item widths from (1/3, 1/2] so the same
// 1/2 integrality gap takes a genuinely deep proof tree; the uniform
// variant (seed == 0) closes at the root. Every run certifies the
// family's ip_height.
void run_family(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const auto seed = static_cast<std::uint64_t>(state.range(1));
  const double spacing = static_cast<double>(k) + 1.0;
  const gen::HardIntegralInstance family =
      seed == 0 ? gen::hard_integral_family(k, 2, spacing)
                : gen::hard_integral_jittered(k, 2, spacing, seed);
  bnp::BnpOptions options;
  options.budget.max_nodes = 30'000;
  bnp::BnpResult last;
  for (auto _ : state) {
    last = bnp::solve(family.instance, options);
    benchmark::DoNotOptimize(last);
  }
  state.counters["nodes"] = static_cast<double>(last.nodes);
  state.counters["height"] = last.height;
  state.counters["dual_bound"] = last.dual_bound;
}

}  // namespace bnp_family

void BM_BnpGapFamily(benchmark::State& state) {
  bnp_family::run_family(state);
}
BENCHMARK(BM_BnpGapFamily)
    ->ArgNames({"k", "seed"})
    ->Args({3, 0})
    ->Args({4, 4})
    ->Args({4, 5})
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
