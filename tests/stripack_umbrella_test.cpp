// Smoke test for the umbrella header: includes ONLY src/stripack.hpp and
// exercises one entry point per module under src/. If a public header is
// dropped from the umbrella (or a module's API breaks), this file stops
// compiling, so the umbrella stays an accurate export of the library.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <thread>

#include "stripack.hpp"

namespace stripack {
namespace {

Instance small_precedence_instance() {
  Instance ins;
  const VertexId a = ins.add_item(0.5, 1.0);
  const VertexId b = ins.add_item(0.25, 0.5);
  ins.add_precedence(a, b);
  return ins;
}

// core: instance accessors, bounds, validate on a trivial placement.
TEST(Umbrella, Core) {
  const Instance ins = small_precedence_instance();
  EXPECT_EQ(ins.size(), 2u);
  EXPECT_GT(area_lower_bound(ins), 0.0);
  EXPECT_GE(critical_path_lower_bound(ins), 1.5);

  Placement stacked{{0.0, 0.0}, {0.0, 1.0}};
  EXPECT_TRUE(validate(ins, stacked).ok());
  EXPECT_DOUBLE_EQ(packing_height(ins, stacked), 1.5);
}

// dag: edge construction and cycle rejection.
TEST(Umbrella, Dag) {
  Dag dag(3);
  dag.add_edge(0, 1);
  dag.add_edge(1, 2);
  EXPECT_EQ(dag.num_edges(), 2u);
  EXPECT_TRUE(dag.has_edge(0, 1));
  const std::vector<Edge> cyclic{{0, 1}, {1, 0}};
  EXPECT_FALSE(Dag::from_edges(2, cyclic).has_value());
}

// packers: every registered packer places every rectangle.
TEST(Umbrella, Packers) {
  const std::vector<Rect> rects{{0.5, 1.0}, {0.5, 0.5}, {0.25, 0.75}};
  for (const auto& packer : all_packers()) {
    const PackResult result = packer->pack(rects, 1.0);
    EXPECT_EQ(result.placement.size(), rects.size());
    EXPECT_GE(result.height, 1.0);
  }
}

// precedence: §2 dc_pack respects the DAG and the Theorem 2.3 bound.
TEST(Umbrella, PrecedenceDc) {
  const Instance ins = small_precedence_instance();
  const DcResult result = dc_pack(ins);
  EXPECT_TRUE(validate(ins, result.packing.placement).ok());
  EXPECT_LE(result.packing.height(), result.theorem23_bound);
}

// precedence: §2.2 uniform_shelf_pack on uniform heights.
TEST(Umbrella, PrecedenceUniformShelf) {
  Instance ins;
  const VertexId a = ins.add_item(0.5, 1.0);
  const VertexId b = ins.add_item(0.5, 1.0);
  ins.add_precedence(a, b);
  const UniformShelfResult result = uniform_shelf_pack(ins);
  EXPECT_TRUE(validate(ins, result.packing.placement).ok());
}

// release: §3 APTAS end to end on a tiny release-time instance.
TEST(Umbrella, ReleaseAptas) {
  Instance ins;
  ins.add_item(0.5, 1.0, /*release=*/0.0);
  ins.add_item(0.5, 0.5, /*release=*/0.5);
  ins.add_item(0.25, 0.75, /*release=*/1.0);
  release::AptasParams params;
  params.epsilon = 1.0;
  const release::AptasResult result = release::aptas_pack(ins, params);
  EXPECT_TRUE(validate(ins, result.packing.placement).ok());
  EXPECT_GT(result.height, 0.0);
  // Lemma 3.1 rounding is reachable through the umbrella too.
  EXPECT_EQ(release::count_distinct_releases(ins), 3u);
}

// bnp: branch and price certifies the hard_integral gap family, the node
// tree is reachable directly, and the registry knows the "BnP" adapter.
TEST(Umbrella, BranchAndPrice) {
  const gen::HardIntegralInstance family = gen::hard_integral_family(1);
  const bnp::BnpResult result = bnp::solve(family.instance);
  EXPECT_EQ(result.status, bnp::BnpStatus::Optimal);
  EXPECT_NEAR(result.height, family.certificate.ip_height, 1e-6);
  EXPECT_NEAR(result.dual_bound, result.height, 1e-6);
  EXPECT_TRUE(validate(family.instance, result.packing.placement).ok());

  bnp::NodeTree tree;
  tree.add_root(1.0);
  EXPECT_EQ(tree.pop_best(), 0);

  const auto packer = make_packer("BnP");
  ASSERT_NE(packer, nullptr);
  EXPECT_EQ(packer->name(), "BnP");
}

// binpack: first-fit decreasing respects capacity.
TEST(Umbrella, Binpack) {
  const std::vector<double> sizes{0.6, 0.5, 0.4, 0.3, 0.2};
  const binpack::BinAssignment assignment =
      binpack::pack_decreasing(sizes, 1.0, binpack::Fit::FirstFit);
  EXPECT_TRUE(binpack::is_valid(assignment, sizes, 1.0));
  EXPECT_GE(assignment.num_bins(), binpack::lb_size(sizes, 1.0));
}

// lp: two-phase simplex on a 1-row model.
TEST(Umbrella, Lp) {
  lp::Model model;
  const int row = model.add_row(lp::Sense::GE, 1.0);
  const lp::RowEntry entry{row, 1.0};
  model.add_column(2.0, std::span<const lp::RowEntry>(&entry, 1));
  const lp::Solution solution = lp::solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_DOUBLE_EQ(solution.objective, 2.0);
}

// kr: Kenyon–Rémila APTAS for plain strip packing.
TEST(Umbrella, Kr) {
  const Instance ins(
      {Item{Rect{0.5, 1.0}, 0.0}, Item{Rect{0.5, 0.5}, 0.0},
       Item{Rect{0.25, 0.75}, 0.0}});
  const kr::KrResult result = kr::kr_pack(ins);
  EXPECT_TRUE(validate(ins, result.packing.placement).ok());
}

// fpga: the §1 reduction from tasks on a column device to a strip instance.
TEST(Umbrella, Fpga) {
  const fpga::TaskSet set = fpga::jpeg_pipeline(/*stripes=*/1);
  const fpga::Device device{/*columns=*/16};
  const Instance ins = fpga::to_instance(set, device);
  EXPECT_EQ(ins.size(), set.size());
  EXPECT_TRUE(ins.has_precedence());
}

// gen: rectangle and DAG generators are deterministic under a seed.
TEST(Umbrella, Gen) {
  Rng rng(42);
  const auto rects = gen::random_rects(8, gen::RectParams{}, rng);
  EXPECT_EQ(rects.size(), 8u);
  const Dag chain = gen::chain_dag(5);
  EXPECT_EQ(chain.num_edges(), 4u);
  const gen::FamilyInstance family = gen::lemma24_family(2, 0.25);
  EXPECT_FALSE(family.instance.empty());
}

// io: text round-trip of an instance through a stream.
TEST(Umbrella, Io) {
  const Instance ins = small_precedence_instance();
  std::stringstream stream;
  io::write_instance(stream, ins);
  const Instance back = io::read_instance(stream);
  EXPECT_EQ(back.size(), ins.size());
  EXPECT_TRUE(back.has_precedence());
  EXPECT_FALSE(io::to_svg(ins, Placement{{0.0, 0.0}, {0.0, 1.0}}).empty());
}

// service: PR 8 — canonicalization, the warm-pooled solver service and
// its wire format are all reachable through the umbrella.
TEST(Umbrella, Service) {
  const Instance ins({Item{Rect{4.0, 2.0}, 0.0}, Item{Rect{6.0, 2.0}, 0.0}},
                     10.0);
  const service::CanonicalRequest canonical = service::canonicalize(ins);
  EXPECT_EQ(canonical.instance.size(), ins.size());
  EXPECT_DOUBLE_EQ(canonical.scale, 10.0);
  EXPECT_FALSE(canonical.key.empty());
  EXPECT_FALSE(canonical.class_signature.empty());

  service::SolverService svc;
  (void)svc.enqueue(ins);
  (void)svc.enqueue(ins);  // identical: the second must hit the cache
  const std::vector<service::ServiceResponse> responses = svc.run();
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_TRUE(responses[0].ok) << responses[0].error;
  EXPECT_EQ(responses[0].status, bnp::BnpStatus::Optimal);
  EXPECT_TRUE(responses[1].cache_hit);
  EXPECT_TRUE(validate(ins, responses[0].placement).ok());
  EXPECT_EQ(svc.stats().requests, 2u);
  std::ostringstream wire;
  service::SolverService::write_response(wire, responses[0]);
  EXPECT_NE(wire.str().find("stripack-response v1"), std::string::npos);

  // util/parse_num rides along in PR 8: the checked CLI parsers.
  int value = 0;
  EXPECT_TRUE(util::parse_int("17", value));
  EXPECT_EQ(value, 17);
  EXPECT_FALSE(util::parse_int("17q", value));
}

// service/net + util/net: PR 10 — the TCP front end, its frame codec,
// client helper, timer wheel and the connection-fault dimension are all
// reachable through the umbrella.
TEST(Umbrella, ServiceNet) {
  const std::string frame = util::encode_frame("ping");
  EXPECT_EQ(frame.size(), util::kFrameHeaderBytes + 4);
  std::array<char, util::kFrameHeaderBytes> header{};
  std::copy(frame.begin(), frame.begin() + util::kFrameHeaderBytes,
            header.begin());
  std::uint32_t len = 0;
  ASSERT_TRUE(util::decode_frame_header(header, len));
  EXPECT_EQ(len, 4u);

  service::net::TimerWheel wheel;
  wheel.arm(1, service::net::TimerWheel::Clock::now());
  EXPECT_TRUE(wheel.is_armed(1));

  const ConnFaultPlan conn_plan = ConnFaultPlan::random(11, 2, 20);
  ASSERT_EQ(conn_plan.events.size(), 2u);
  EXPECT_EQ(conn_plan.events[0].at,
            ConnFaultPlan::random(11, 2, 20).events[0].at);

  service::net::ServerOptions server_options;
  server_options.service.node_budget = 16;
  service::net::StripackServer server(server_options);
  const std::uint16_t port = server.start();
  EXPECT_GT(port, 0);
  std::thread loop([&] { EXPECT_TRUE(server.run()); });
  service::net::ClientOptions client_options;
  client_options.port = port;
  service::net::FrameClient client(client_options);
  std::ostringstream request;
  io::write_instance(
      request,
      Instance({Item{Rect{4.0, 2.0}, 0.0}, Item{Rect{6.0, 2.0}, 0.0}},
               10.0));
  const service::net::ClientResult reply = client.request(request.str());
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_NE(reply.body.find("stripack-response v1"), std::string::npos);
  server.request_drain();
  loop.join();
  EXPECT_EQ(server.stats().responses, 1u);
}

// util: rng, float comparisons, tables, ThreadPool, stopwatch.
TEST(Umbrella, Util) {
  Rng rng(7);
  const double u = rng.uniform();
  EXPECT_GE(u, 0.0);
  EXPECT_LT(u, 1.0);
  EXPECT_TRUE(approx_eq(0.1 + 0.2, 0.3));
  EXPECT_EQ(format_double(1.25, 2), "1.25");
  ThreadPool pool(2);
  std::vector<int> pooled(16, 0);
  pool.run(pooled.size(), [&](std::size_t i) { pooled[i] = 1; });
  for (const int h : pooled) EXPECT_EQ(h, 1);
  const Stopwatch watch;
  EXPECT_GE(watch.seconds(), 0.0);
  // util/fault_injection through the umbrella: a seeded plan is
  // deterministic, and an installed injector fires it exactly once.
  const FaultPlan plan = FaultPlan::random(11, 2, 20);
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].at, FaultPlan::random(11, 2, 20).events[0].at);
  FaultInjector injector({{{FaultSite::Pivot, 1, FaultAction::TripStop}}});
  EXPECT_EQ(injector.poll(FaultSite::Pivot), FaultAction::TripStop);
  EXPECT_EQ(injector.poll(FaultSite::Pivot), FaultAction::None);
  EXPECT_EQ(injector.fired(), 1u);
}

}  // namespace
}  // namespace stripack
