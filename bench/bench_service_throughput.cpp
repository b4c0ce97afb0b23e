// PR 8 — solver-as-a-service throughput (google-benchmark).
//
// `BM_ServiceThroughput` drives a batch of "similar" requests — a few
// width/release classes, demand varying per request, so the per-class
// result cache cannot serve them and the measured delta isolates the
// warm-pool seam (`bnp::solve_warm`: rhs-only demand rebind + dual
// re-solve on a persistent master, column pool and pricing cache carried
// across requests) against the cold per-request arm (`warm:0`, a fresh
// master and cold solve per request). `workers` scales the deterministic
// class-parallel dispatch: responses are bitwise identical at every
// value, only wall clock may move (single-core capture machines show
// scheduling overhead instead — see the PR 5 baseline notes). Only
// `run()` is timed, in wall-clock time: building the service, enqueueing
// the batch and tearing the previous service down happen with the timer
// paused.
//
// `BM_ServiceLatency` serves the same stream one request at a time
// through a persistent service and reports per-request p50/p99 (µs) as
// counters, warm vs cold.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/instance.hpp"
#include "service/solver_service.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace stripack;

Instance make(const std::vector<std::array<double, 3>>& rows,
              double strip) {
  std::vector<Item> items;
  items.reserve(rows.size());
  for (const std::array<double, 3>& r : rows) {
    items.push_back(Item{Rect{r[0], r[1]}, r[2]});
  }
  return Instance(std::move(items), strip);
}

// Round-robin over three request classes; within a class the demand
// (item heights / multiplicities) varies with the request index, so
// every request is a genuine solve on its class's master.
std::vector<Instance> similar_stream(std::size_t requests) {
  std::vector<Instance> out;
  out.reserve(requests);
  for (std::size_t r = 0; r < requests; ++r) {
    const double a = static_cast<double>(1 + r % 3);
    const double b = static_cast<double>(2 + r % 4);
    switch (r % 3) {
      case 0:  // two widths, release-free
        out.push_back(make(
            {{4, a, 0}, {6, b, 0}, {4, b, 0}, {6, a, 0}, {4, 1, 0}}, 10));
        break;
      case 1:  // three widths, release-free
        out.push_back(
            make({{3, b, 0}, {5, a, 0}, {7, a, 0}, {3, 1, 0}, {5, b, 0}},
                 10));
        break;
      default:  // two widths, two release phases
        out.push_back(make(
            {{4, a, 0}, {6, b, 2}, {4, b, 2}, {6, a, 0}, {6, 1, 2}}, 10));
        break;
    }
  }
  return out;
}

void BM_ServiceThroughput(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const bool warm = state.range(1) != 0;
  const std::vector<Instance> stream = similar_stream(48);
  service::ServiceOptions options;
  options.workers = workers;
  options.warm_pool = warm;
  std::unique_ptr<service::SolverService> svc;
  for (auto _ : state) {
    state.PauseTiming();
    svc.reset();
    svc = std::make_unique<service::SolverService>(options);
    for (const Instance& instance : stream) (void)svc->enqueue(instance);
    state.ResumeTiming();
    benchmark::DoNotOptimize(svc->run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_ServiceThroughput)
    ->ArgNames({"workers", "warm"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ServiceLatency(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const std::vector<Instance> stream = similar_stream(64);
  std::vector<double> latencies;
  latencies.reserve(stream.size());
  for (auto _ : state) {
    service::ServiceOptions options;
    options.warm_pool = warm;
    service::SolverService svc(options);
    latencies.clear();
    for (const Instance& instance : stream) {
      const Stopwatch watch;
      (void)svc.enqueue(instance);
      benchmark::DoNotOptimize(svc.run());
      latencies.push_back(watch.seconds());
    }
    std::sort(latencies.begin(), latencies.end());
    state.counters["p50_us"] = latencies[latencies.size() / 2] * 1e6;
    state.counters["p99_us"] =
        latencies[(latencies.size() * 99) / 100] * 1e6;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_ServiceLatency)
    ->ArgNames({"warm"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
