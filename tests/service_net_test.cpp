// Network front-end robustness tests: the TimerWheel and frame codec
// units, serial and concurrent bitwise replay of server responses
// against a direct SolverService, and the injected-connection-fault
// taxonomy — every fault must end in a documented structured error or a
// clean close, never a hang, a crash, or a poisoned warm master.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <array>
#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/instance_io.hpp"
#include "service/net/client.hpp"
#include "service/net/server.hpp"
#include "service/net/timer_wheel.hpp"
#include "service/solver_service.hpp"
#include "util/fault_injection.hpp"
#include "util/net.hpp"

namespace stripack::service::net {
namespace {

using Clock = std::chrono::steady_clock;

/// User plus system CPU time this process has used, all threads.
std::chrono::microseconds process_cpu_time() {
  rusage usage{};
  EXPECT_EQ(::getrusage(RUSAGE_SELF, &usage), 0);
  const auto to_us = [](const timeval& tv) {
    return std::chrono::seconds(tv.tv_sec) +
           std::chrono::microseconds(tv.tv_usec);
  };
  return to_us(usage.ru_utime) + to_us(usage.ru_stime);
}

Instance make(const std::vector<std::array<double, 3>>& rows,
              double strip) {
  std::vector<Item> items;
  items.reserve(rows.size());
  for (const std::array<double, 3>& r : rows) {
    items.push_back(Item{Rect{r[0], r[1]}, r[2]});
  }
  return Instance(std::move(items), strip);
}

std::string instance_text(const Instance& instance) {
  std::ostringstream os;
  io::write_instance(os, instance);
  return os.str();
}

/// A small per-thread request stream in thread `t`'s own width/release
/// class (distinct strip width ⇒ distinct canonical class), including an
/// exact duplicate so the replay covers cache hits and warm re-solves.
std::vector<Instance> thread_stream(int t) {
  const double strip = 10.0 + t;
  std::vector<Instance> out;
  out.push_back(make({{4, 2, 0}, {6, 2, 0}, {4, 3, 0}}, strip));
  out.push_back(make({{4, 1, 0}, {6, 4, 0}}, strip));
  out.push_back(make({{4, 2, 0}, {6, 2, 0}, {4, 3, 0}}, strip));  // dup
  out.push_back(make({{4, 2, 1}, {6, 1, 0}}, strip));
  return out;
}

/// What a direct SolverService answers for `stream`, one request per
/// run() (the server serves a connection sequentially, so its per-
/// connection class state evolves exactly like this), with per-stream id
/// numbering — the bytes a connection must receive.
std::string direct_replay(const std::vector<Instance>& stream,
                          const ServiceOptions& options) {
  SolverService service(options);
  std::ostringstream os;
  for (const Instance& instance : stream) {
    (void)service.enqueue(instance);
    for (const ServiceResponse& r : service.run()) {
      SolverService::write_response(os, r);
    }
  }
  return os.str();
}

/// Starts a server and runs its epoll loop on a worker thread; the
/// destructor drains and joins.
class TestServer {
 public:
  explicit TestServer(ServerOptions options) : server_(std::move(options)) {
    port_ = server_.start();
    loop_ = std::thread([this] { clean_ = server_.run(); });
  }
  ~TestServer() { stop(); }

  void stop() {
    if (loop_.joinable()) {
      server_.request_drain();
      loop_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool clean() const { return clean_; }
  [[nodiscard]] ServerStats stats() const { return server_.stats(); }
  StripackServer& server() { return server_; }

  [[nodiscard]] ClientOptions client_options() const {
    ClientOptions o;
    o.port = port_;
    o.io_timeout_seconds = 20.0;
    return o;
  }

 private:
  StripackServer server_;
  std::thread loop_;
  std::uint16_t port_ = 0;
  bool clean_ = false;
};

// --- TimerWheel ------------------------------------------------------------

TEST(TimerWheel, ExpiresInDeadlineThenIdOrder) {
  TimerWheel wheel(std::chrono::milliseconds(1), 16);
  const auto now = TimerWheel::Clock::now();
  wheel.arm(7, now + std::chrono::milliseconds(30));
  wheel.arm(3, now + std::chrono::milliseconds(10));
  wheel.arm(5, now + std::chrono::milliseconds(30));
  EXPECT_EQ(wheel.armed(), 3u);
  EXPECT_TRUE(wheel.expire(now + std::chrono::milliseconds(5)).empty());
  const std::vector<std::uint64_t> first =
      wheel.expire(now + std::chrono::milliseconds(20));
  ASSERT_EQ(first, (std::vector<std::uint64_t>{3}));
  const std::vector<std::uint64_t> rest =
      wheel.expire(now + std::chrono::milliseconds(200));
  ASSERT_EQ(rest, (std::vector<std::uint64_t>{5, 7}));
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, ReArmSupersedesEarlierDeadline) {
  TimerWheel wheel(std::chrono::milliseconds(1), 16);
  const auto now = TimerWheel::Clock::now();
  wheel.arm(1, now + std::chrono::milliseconds(5));
  wheel.arm(1, now + std::chrono::milliseconds(50));
  EXPECT_TRUE(wheel.expire(now + std::chrono::milliseconds(20)).empty());
  EXPECT_TRUE(wheel.is_armed(1));
  EXPECT_EQ(wheel.expire(now + std::chrono::milliseconds(60)),
            (std::vector<std::uint64_t>{1}));
}

TEST(TimerWheel, CancelledTimerNeverFires) {
  TimerWheel wheel(std::chrono::milliseconds(1), 16);
  const auto now = TimerWheel::Clock::now();
  wheel.arm(9, now + std::chrono::milliseconds(5));
  wheel.cancel(9);
  EXPECT_FALSE(wheel.is_armed(9));
  EXPECT_TRUE(wheel.expire(now + std::chrono::milliseconds(500)).empty());
}

TEST(TimerWheel, PastDeadlineExpiresOnNextSweep) {
  TimerWheel wheel(std::chrono::milliseconds(10), 8);
  const auto now = TimerWheel::Clock::now();
  // Advance the cursor far past the origin first.
  (void)wheel.expire(now + std::chrono::seconds(2));
  wheel.arm(4, now);  // long gone
  EXPECT_EQ(wheel.expire(now + std::chrono::seconds(2)),
            (std::vector<std::uint64_t>{4}));
}

TEST(TimerWheel, DuplicateReArmToSameDeadlineFiresOnce) {
  TimerWheel wheel(std::chrono::milliseconds(1), 16);
  const auto now = TimerWheel::Clock::now();
  const auto deadline = now + std::chrono::milliseconds(5);
  wheel.arm(2, deadline);
  wheel.arm(2, deadline);  // duplicate bucket entry, same authoritative slot
  EXPECT_EQ(wheel.expire(now + std::chrono::milliseconds(100)),
            (std::vector<std::uint64_t>{2}));
  EXPECT_TRUE(wheel.expire(now + std::chrono::milliseconds(200)).empty());
}

TEST(TimerWheel, NextDeadlineTracksEarliestArmed) {
  TimerWheel wheel;
  EXPECT_FALSE(wheel.next_deadline().has_value());
  const auto now = TimerWheel::Clock::now();
  wheel.arm(1, now + std::chrono::seconds(5));
  wheel.arm(2, now + std::chrono::seconds(1));
  ASSERT_TRUE(wheel.next_deadline().has_value());
  EXPECT_EQ(*wheel.next_deadline(), now + std::chrono::seconds(1));
  wheel.cancel(2);
  EXPECT_EQ(*wheel.next_deadline(), now + std::chrono::seconds(5));
}

// --- frame codec -----------------------------------------------------------

TEST(FrameCodec, HeaderRoundTrips) {
  std::array<char, util::kFrameHeaderBytes> header{};
  util::encode_frame_header(0x01020304u, header);
  std::uint32_t len = 0;
  ASSERT_TRUE(util::decode_frame_header(header, len));
  EXPECT_EQ(len, 0x01020304u);
}

TEST(FrameCodec, BadMagicIsRejected) {
  std::array<char, util::kFrameHeaderBytes> header{};
  util::encode_frame_header(4, header);
  header[0] = 'X';
  std::uint32_t len = 0;
  EXPECT_FALSE(util::decode_frame_header(header, len));
}

TEST(FrameCodec, EncodeFramePrefixesHeader) {
  const std::string frame = util::encode_frame("body");
  ASSERT_EQ(frame.size(), util::kFrameHeaderBytes + 4);
  EXPECT_EQ(frame.substr(0, 4), "SPK1");
  EXPECT_EQ(frame.substr(util::kFrameHeaderBytes), "body");
}

// --- connection fault plans ------------------------------------------------

TEST(ConnFaultPlan, SameSeedSameEvents) {
  const ConnFaultPlan a = ConnFaultPlan::random(42, 5, 10);
  const ConnFaultPlan b = ConnFaultPlan::random(42, 5, 10);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].site, b.events[i].site);
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].action, b.events[i].action);
  }
  const ConnFaultPlan c = ConnFaultPlan::random(43, 5, 10);
  bool differs = false;
  for (std::size_t i = 0; i < c.events.size(); ++i) {
    differs = differs || c.events[i].site != a.events[i].site ||
              c.events[i].at != a.events[i].at ||
              c.events[i].action != a.events[i].action;
  }
  EXPECT_TRUE(differs);
}

TEST(ConnFaultInjector, EachEventFiresExactlyOnceAcrossThreads) {
  ConnFaultPlan plan;
  plan.events.push_back(
      ConnFaultEvent{ConnFaultSite::Send, 3, ConnFaultAction::Disconnect});
  ConnFaultInjector injector(plan);
  std::atomic<int> fired{0};
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        if (injector.poll(ConnFaultSite::Send) != ConnFaultAction::None) {
          ++fired;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(injector.fired(), 1u);
  EXPECT_EQ(injector.observed(ConnFaultSite::Send), 40u);
}

// --- server round trips ----------------------------------------------------

TEST(StripackServer, ConnectionStreamIsBitwiseIdenticalToDirectService) {
  ServerOptions options;
  TestServer server(options);
  FrameClient client(server.client_options());
  std::string wire;
  for (const Instance& instance : thread_stream(0)) {
    const ClientResult r = client.request(instance_text(instance));
    ASSERT_TRUE(r.ok) << r.error;
    wire += r.body;
  }
  EXPECT_EQ(wire, direct_replay(thread_stream(0), options.service));
  // The duplicate request proves the warm master + cache survived the
  // whole conversation.
  EXPECT_NE(wire.find("cache hit"), std::string::npos);
  server.stop();
  EXPECT_TRUE(server.clean());
  EXPECT_EQ(server.stats().responses, thread_stream(0).size());
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST(StripackServer, MalformedBodyGetsErrorAndConnectionSurvives) {
  TestServer server(ServerOptions{});
  FrameClient client(server.client_options());
  const ClientResult bad = client.request("this is not an instance\n");
  ASSERT_TRUE(bad.ok) << bad.error;  // transport ok, structured error body
  EXPECT_NE(bad.body.find("status error"), std::string::npos) << bad.body;
  EXPECT_NE(bad.body.find("request 0"), std::string::npos) << bad.body;
  // Same connection, next frame: still usable, and the wire sequence
  // number advanced (protocol errors consume a sequence slot too).
  const ClientResult good =
      client.request(instance_text(make({{4, 2, 0}}, 10)));
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_NE(good.body.find("status optimal"), std::string::npos)
      << good.body;
  EXPECT_NE(good.body.find("request 1"), std::string::npos) << good.body;
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

TEST(StripackServer, TrailingGarbageAfterDocumentIsAProtocolError) {
  TestServer server(ServerOptions{});
  FrameClient client(server.client_options());
  const ClientResult r = client.request(
      instance_text(make({{4, 2, 0}}, 10)) + "unexpected trailing data\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.body.find("status error"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("trailing"), std::string::npos) << r.body;
}

TEST(StripackServer, BadMagicGetsStructuredErrorThenClose) {
  TestServer server(ServerOptions{});
  util::Fd fd = util::connect_tcp("127.0.0.1", server.port(), 5.0);
  std::string junk = "XXXX";
  junk.append(3, '\0');
  junk += '\x04';
  junk += "body";
  ASSERT_TRUE(util::write_all(fd.get(), junk.data(), junk.size(), 5.0));
  std::array<char, util::kFrameHeaderBytes> header{};
  ASSERT_TRUE(util::read_exact(fd.get(), header.data(), header.size(), 5.0));
  std::uint32_t len = 0;
  ASSERT_TRUE(util::decode_frame_header(header, len));
  std::string body(len, '\0');
  ASSERT_TRUE(util::read_exact(fd.get(), body.data(), len, 5.0));
  EXPECT_NE(body.find("bad frame magic"), std::string::npos) << body;
  // There is no resync point after a magic mismatch: the server closes.
  char extra = 0;
  EXPECT_FALSE(util::read_exact(fd.get(), &extra, 1, 5.0));
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

TEST(StripackServer, OversizedDeclarationIsRejectedBeforeBuffering) {
  ServerOptions options;
  options.max_request_bytes = 128;
  TestServer server(options);
  ConnFaultPlan plan;
  plan.events.push_back(
      ConnFaultEvent{ConnFaultSite::Send, 1, ConnFaultAction::Oversize});
  ConnFaultInjector injector(plan);
  ClientOptions copts = server.client_options();
  copts.faults = &injector;
  copts.max_attempts = 1;
  FrameClient client(copts);
  const ClientResult r = client.request(instance_text(make({{4, 2, 0}}, 10)));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.body.find("request too large"), std::string::npos) << r.body;
  EXPECT_EQ(server.stats().protocol_errors, 1u);
  EXPECT_EQ(injector.fired(), 1u);
}

TEST(StripackServer, SlowTrickleTripsReadDeadlineWithStructuredError) {
  ServerOptions options;
  options.read_deadline_seconds = 0.2;
  TestServer server(options);
  ConnFaultPlan plan;
  plan.events.push_back(
      ConnFaultEvent{ConnFaultSite::Send, 1, ConnFaultAction::Trickle});
  ConnFaultInjector injector(plan);
  ClientOptions copts = server.client_options();
  copts.faults = &injector;
  copts.trickle_delay_seconds = 0.05;  // frame >> deadline at this pace
  copts.max_attempts = 2;              // the retry is un-faulted
  FrameClient client(copts);
  const ClientResult r = client.request(instance_text(make({{4, 2, 0}}, 10)));
  // The trickled attempt dies on the server's read deadline; the retry
  // (exactly-once injection) completes normally.
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.attempts, 2);
  EXPECT_NE(r.body.find("status optimal"), std::string::npos) << r.body;
  EXPECT_GE(server.stats().deadline_expiries, 1u);
}

TEST(StripackServer, ShortWriteDribbleIsServedNormally) {
  TestServer server(ServerOptions{});
  ConnFaultPlan plan;
  plan.events.push_back(
      ConnFaultEvent{ConnFaultSite::Send, 1, ConnFaultAction::ShortWrite});
  ConnFaultInjector injector(plan);
  ClientOptions copts = server.client_options();
  copts.faults = &injector;
  copts.max_attempts = 1;
  FrameClient client(copts);
  // Byte-at-a-time arrival walks the server through every partial-read
  // resume; the response must be exactly the un-faulted one.
  const ClientResult r = client.request(instance_text(make({{4, 2, 0}}, 10)));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.body, direct_replay({make({{4, 2, 0}}, 10)},
                                  ServerOptions{}.service));
}

TEST(StripackServer, BacklogShedsWithStructuredOverloadError) {
  ServerOptions options;
  options.shed_backlog = 0;  // deterministic: every request sheds
  TestServer server(options);
  FrameClient client(server.client_options());
  const ClientResult r = client.request(instance_text(make({{4, 2, 0}}, 10)));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.body.find("status error"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("error overloaded"), std::string::npos) << r.body;
  // Shedding answers; it does not hang up. The connection still works.
  const ClientResult again =
      client.request(instance_text(make({{4, 2, 0}}, 10)));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(server.stats().overload_sheds, 2u);
}

TEST(StripackServer, RetryOverloadBacksOffAndReportsAttempts) {
  ServerOptions options;
  options.shed_backlog = 0;
  TestServer server(options);
  ClientOptions copts = server.client_options();
  copts.retry_overload = true;
  copts.max_attempts = 3;
  copts.backoff_base_seconds = 0.01;
  FrameClient client(copts);
  const ClientResult r = client.request(instance_text(make({{4, 2, 0}}, 10)));
  // Every attempt sheds; the helper surfaces the last response after
  // exhausting its backoff budget.
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.attempts, 3);
  EXPECT_NE(r.body.find("error overloaded"), std::string::npos) << r.body;
}

TEST(StripackServer, BacklogDegradesAdmissionDeterministically) {
  ServerOptions options;
  options.degrade_backlog = 0;  // deterministic: every request degrades
  TestServer server(options);
  FrameClient client(server.client_options());
  const ClientResult r = client.request(instance_text(make({{4, 2, 0}}, 10)));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.body.find("admission degraded"), std::string::npos) << r.body;
  EXPECT_EQ(server.stats().degraded, 1u);
}

TEST(StripackServer, ConnectionLimitShedsAtAcceptWithStructuredError) {
  ServerOptions options;
  options.max_connections = 1;
  TestServer server(options);
  util::Fd holder = util::connect_tcp("127.0.0.1", server.port(), 5.0);
  // Make sure the holder connection is registered before the second one.
  const auto start = Clock::now();
  while (server.stats().accepted < 1 &&
         Clock::now() - start < std::chrono::seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.stats().accepted, 1u);
  util::Fd extra = util::connect_tcp("127.0.0.1", server.port(), 5.0);
  std::array<char, util::kFrameHeaderBytes> header{};
  ASSERT_TRUE(util::read_exact(extra.get(), header.data(), header.size(),
                               5.0));
  std::uint32_t len = 0;
  ASSERT_TRUE(util::decode_frame_header(header, len));
  std::string body(len, '\0');
  ASSERT_TRUE(util::read_exact(extra.get(), body.data(), len, 5.0));
  EXPECT_NE(body.find("error overloaded"), std::string::npos) << body;
  char byte = 0;
  EXPECT_FALSE(util::read_exact(extra.get(), &byte, 1, 5.0));  // shed = close
  EXPECT_GE(server.stats().overload_sheds, 1u);
}

TEST(StripackServer, KilledConnectionNeverPoisonsTheWarmMaster) {
  TestServer server(ServerOptions{});
  const Instance instance = make({{4, 2, 0}, {6, 2, 0}}, 10);
  {
    // Client A deserts before reading its response: the solve still runs,
    // its result is dropped on arrival, and the warm master keeps the
    // class state A's request built.
    ConnFaultPlan plan;
    plan.events.push_back(ConnFaultEvent{ConnFaultSite::Recv, 1,
                                         ConnFaultAction::Disconnect});
    ConnFaultInjector injector(plan);
    ClientOptions copts = server.client_options();
    copts.faults = &injector;
    copts.max_attempts = 1;
    FrameClient deserter(copts);
    const ClientResult r = deserter.request(instance_text(instance));
    EXPECT_FALSE(r.ok);
  }
  // Wait until the server has observed the desertion: the hangup is a
  // connection drop, and the solve (finishing on its own schedule) an
  // orphaned result — unless the solve beat the hangup through epoll, in
  // which case the write path absorbed the death instead. Either way the
  // connection is gone and the master untouched.
  const auto start = Clock::now();
  while (server.stats().connection_drops + server.stats().dropped_results <
             1 &&
         Clock::now() - start < std::chrono::seconds(20)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(server.stats().connection_drops +
                server.stats().dropped_results,
            1u);
  // Client B repeats the request: a cache hit proves the master and its
  // class state survived A's desertion intact.
  FrameClient client(server.client_options());
  const ClientResult r = client.request(instance_text(instance));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.body.find("status optimal"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("cache hit"), std::string::npos) << r.body;
}

TEST(StripackServer, AbortiveCloseStormIsSurvived) {
  TestServer server(ServerOptions{});
  // A storm of RST closes (EPOLLHUP/EPOLLERR deliveries), some mid-frame.
  for (int i = 0; i < 10; ++i) {
    ConnFaultPlan plan;
    plan.events.push_back(ConnFaultEvent{
        ConnFaultSite::Send, 1, ConnFaultAction::AbortiveClose});
    ConnFaultInjector injector(plan);
    ClientOptions copts = server.client_options();
    copts.faults = &injector;
    copts.max_attempts = 1;
    FrameClient client(copts);
    const ClientResult r =
        client.request(instance_text(make({{4, 2, 0}}, 10)));
    EXPECT_FALSE(r.ok);
  }
  // The server shrugged: a normal request still round-trips.
  FrameClient client(server.client_options());
  const ClientResult r = client.request(instance_text(make({{4, 2, 0}}, 10)));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.body.find("status optimal"), std::string::npos) << r.body;
}

TEST(StripackServer, DrainDeliversInFlightResponseAndExitsClean) {
  TestServer server(ServerOptions{});
  ClientResult result;
  std::thread requester([&] {
    FrameClient client(server.client_options());
    result = client.request(instance_text(make({{4, 2, 0}, {6, 3, 0}}, 10)));
  });
  // Drain as soon as the request frame has been admitted; the in-flight
  // solve must finish and its response flush before run() returns.
  const auto start = Clock::now();
  while (server.stats().requests < 1 &&
         Clock::now() - start < std::chrono::seconds(20)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.server().request_drain();
  server.stop();
  requester.join();
  EXPECT_TRUE(server.clean());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_NE(result.body.find("status optimal"), std::string::npos)
      << result.body;
}

TEST(StripackServer, IdleServerParksItsThreads) {
  // Both handoffs poll briefly for work before they park. An idle server
  // must park: 300 ms of idling costs far less than 300 ms of CPU, and a
  // drain still wakes the parked loop promptly.
  TestServer server(ServerOptions{});
  FrameClient client(server.client_options());
  const ClientResult r = client.request(instance_text(make({{4, 2, 0}}, 10)));
  ASSERT_TRUE(r.ok) << r.error;
  const auto cpu_before = process_cpu_time();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto idle_cpu = process_cpu_time() - cpu_before;
  EXPECT_LT(idle_cpu, std::chrono::milliseconds(60))
      << "idle server used " << idle_cpu.count() << " us of CPU in 300 ms";
  const auto drain_start = Clock::now();
  server.stop();
  EXPECT_LT(Clock::now() - drain_start, std::chrono::seconds(1));
  EXPECT_TRUE(server.clean());
}

// --- concurrent soak -------------------------------------------------------

TEST(StripackServer, ConcurrentSoakRepliesBitwiseAndSurvivesChaos) {
  ServerOptions options;
  // Generous limits: admission must stay "normal" so the per-thread
  // direct replays match bitwise.
  options.degrade_backlog = 1000;
  options.shed_backlog = 1000;
  TestServer server(options);

  constexpr int kGoodThreads = 4;
  constexpr int kChaosThreads = 4;
  std::array<std::string, kGoodThreads> wires;
  std::array<std::string, kGoodThreads> errors;
  std::atomic<int> chaos_responses{0};
  std::atomic<int> chaos_transport_errors{0};
  std::atomic<bool> chaos_malformed_frame{false};

  std::vector<std::thread> threads;
  threads.reserve(kGoodThreads + kChaosThreads);
  for (int t = 0; t < kGoodThreads; ++t) {
    threads.emplace_back([&, t] {
      // One connection, sequential request/response, own request class:
      // this thread's wire bytes must replay a direct SolverService.
      FrameClient client(server.client_options());
      for (const Instance& instance : thread_stream(t)) {
        const ClientResult r = client.request(instance_text(instance));
        if (!r.ok) {
          errors[static_cast<std::size_t>(t)] = r.error;
          return;
        }
        wires[static_cast<std::size_t>(t)] += r.body;
      }
    });
  }
  for (int t = 0; t < kChaosThreads; ++t) {
    threads.emplace_back([&, t] {
      // Seeded chaos: every exchange must end in a complete response
      // frame or a transport error — never a hang (the io timeout is the
      // test's liveness bound) and never a malformed frame.
      ConnFaultInjector injector(
          ConnFaultPlan::random(static_cast<std::uint64_t>(1000 + t), 4, 6));
      ClientOptions copts = server.client_options();
      copts.faults = &injector;
      copts.max_attempts = 1;
      copts.trickle_delay_seconds = 0.001;
      const Instance instance =
          make({{4, 2, 0}, {6, 2, 0}}, 30.0 + t);  // own class
      for (int i = 0; i < 6; ++i) {
        FrameClient client(copts);
        const ClientResult r = client.request(instance_text(instance));
        if (r.ok) {
          ++chaos_responses;
          if (r.body.find("stripack-response v1") == std::string::npos) {
            chaos_malformed_frame = true;
          }
        } else {
          ++chaos_transport_errors;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int t = 0; t < kGoodThreads; ++t) {
    ASSERT_TRUE(errors[static_cast<std::size_t>(t)].empty())
        << "thread " << t << ": " << errors[static_cast<std::size_t>(t)];
    EXPECT_EQ(wires[static_cast<std::size_t>(t)],
              direct_replay(thread_stream(t), options.service))
        << "thread " << t;
  }
  EXPECT_FALSE(chaos_malformed_frame.load());
  EXPECT_EQ(chaos_responses.load() + chaos_transport_errors.load(),
            kChaosThreads * 6);

  server.stop();
  EXPECT_TRUE(server.clean());
}

TEST(StripackServer, SeededFaultPlanSweepAlwaysEndsStructured) {
  ServerOptions options;
  options.read_deadline_seconds = 1.0;  // bound trickle attempts
  TestServer server(options);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ConnFaultInjector injector(ConnFaultPlan::random(seed, 3, 4));
    ClientOptions copts = server.client_options();
    copts.faults = &injector;
    copts.max_attempts = 1;
    copts.trickle_delay_seconds = 0.001;
    copts.io_timeout_seconds = 20.0;
    const Instance instance = make({{4, 2, 0}}, 10);
    for (int i = 0; i < 5; ++i) {
      FrameClient client(copts);
      const ClientResult r = client.request(instance_text(instance));
      // Liveness is the assertion: the exchange terminated inside its
      // timeout, with either a complete frame or a transport error.
      if (r.ok) {
        EXPECT_NE(r.body.find("stripack-response v1"), std::string::npos)
            << "seed " << seed << " request " << i;
      } else {
        EXPECT_FALSE(r.error.empty()) << "seed " << seed;
      }
    }
  }
  // After the whole sweep the server still serves normally.
  FrameClient client(server.client_options());
  const ClientResult r = client.request(instance_text(make({{4, 2, 0}}, 10)));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.body.find("status optimal"), std::string::npos) << r.body;
  server.stop();
  EXPECT_TRUE(server.clean());
}

}  // namespace
}  // namespace stripack::service::net
