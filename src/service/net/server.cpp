#include "service/net/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/instance_io.hpp"
#include "service/net/timer_wheel.hpp"
#include "util/assert.hpp"
#include "util/net.hpp"

namespace stripack::service::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kListenerKey = 0;
constexpr std::uint64_t kEventKey = 1;
constexpr std::uint64_t kFirstConnId = 2;
constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

/// How long a handoff thread polls for work before it parks. Waking a
/// parked thread costs tens of microseconds on a small VM, a large share
/// of a served round trip, so both handoffs (the solver thread waiting for
/// jobs, the epoll loop waiting for results and frames) poll this long
/// first. Scheduling only: it decides when a thread sleeps, never what a
/// request gets. The frontier it was chosen from is in
/// docs/ARCHITECTURE.md ("Warm-master isolation").
constexpr std::chrono::microseconds kSpinBeforePark{50};

/// Polls `ready` until it returns true or `kSpinBeforePark` elapses,
/// yielding between empty polls (without the yield the tail latency
/// measured worse).
template <typename Poll>
void spin_before_park(Poll&& ready) {
  const Clock::time_point until = Clock::now() + kSpinBeforePark;
  while (!ready() && Clock::now() < until) std::this_thread::yield();
}

[[nodiscard]] Clock::duration seconds_to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// The connection state machine (see server.hpp). DRAIN/CLOSE is not a
/// stored state: close tears the connection down immediately, and drain
/// is the server-wide mode that forces `close_after_write`.
enum class ConnState { ReadHeader, ReadBody, Solving, WriteResponse };

struct Conn {
  util::Fd fd;
  std::uint64_t id = 0;
  ConnState state = ConnState::ReadHeader;

  // READ_HEADER / READ_BODY accumulation; body is sized from the header,
  // which is only accepted when <= max_request_bytes (bounded buffers).
  std::array<char, util::kFrameHeaderBytes> header{};
  std::size_t header_got = 0;
  std::string body;
  std::uint32_t body_len = 0;
  std::size_t body_got = 0;

  // WRITE_RESPONSE buffer (one framed response).
  std::string out;
  std::size_t out_pos = 0;

  /// Wire numbering: `request <seq>` per connection, every frame —
  /// including protocol errors — consumes one.
  std::uint64_t next_seq = 0;
  /// The seq the solver is working on (kNoSeq when none). A result
  /// arriving for any other seq is dropped (solve-deadline expiry moves
  /// the connection on without it).
  std::uint64_t awaiting_seq = kNoSeq;

  bool close_after_write = false;
  /// Current epoll event mask (to avoid redundant EPOLL_CTL_MOD).
  std::uint32_t events = 0;
};

[[nodiscard]] std::string error_body(std::uint64_t seq,
                                     const std::string& message) {
  ServiceResponse r;
  r.id = seq;
  r.ok = false;
  r.error = message;
  std::ostringstream os;
  SolverService::write_response(os, r);
  return os.str();
}

}  // namespace

struct SolveJob {
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  bool degraded = false;
  Instance instance;
};

struct SolveDone {
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  std::string body;  // unframed response document
};

struct StripackServer::Impl {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)), service(options.service) {}

  ServerOptions options;
  SolverService service;  // owned by the solver thread while running

  util::Fd listener;
  util::Fd epoll;
  util::Fd event;  // eventfd: solver results ready / drain requested
  std::uint16_t bound_port = 0;
  bool started = false;

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::uint64_t next_conn_id = kFirstConnId;
  TimerWheel wheel;

  // --- solver thread handoff ---------------------------------------------
  std::thread solver;
  std::mutex mutex;
  std::condition_variable wake;
  std::deque<SolveJob> jobs;
  std::vector<SolveDone> results;
  bool solver_stop = false;
  /// Queued + in-flight solver requests — the backpressure measure. A
  /// count (not wall clock) so shedding decisions replay deterministically
  /// for a given interleaving of frames.
  std::atomic<std::size_t> backlog{0};

  std::atomic<bool> drain{false};

  mutable std::mutex stats_mutex;
  ServerStats stats;

  // ---------------------------------------------------------------------
  void bump(std::size_t ServerStats::* counter) {
    const std::lock_guard<std::mutex> lock(stats_mutex);
    ++(stats.*counter);
  }

  void set_events(Conn& conn, std::uint32_t events) {
    if (conn.events == events) return;
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = conn.id;
    STRIPACK_ASSERT(::epoll_ctl(epoll.get(), EPOLL_CTL_MOD, conn.fd.get(),
                                &ev) == 0,
                    std::string("epoll_ctl mod: ") + std::strerror(errno));
    conn.events = events;
  }

  void arm_deadline(Conn& conn, double seconds) {
    if (seconds > 0.0) {
      wheel.arm(conn.id, Clock::now() + seconds_to_duration(seconds));
    } else {
      wheel.cancel(conn.id);
    }
  }

  void close_conn(std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    wheel.cancel(id);
    (void)::epoll_ctl(epoll.get(), EPOLL_CTL_DEL, it->second->fd.get(),
                      nullptr);
    conns.erase(it);  // Fd destructor closes the socket
  }

  /// Transitions to WRITE_RESPONSE with `body` framed into the output
  /// buffer and attempts an immediate flush.
  void respond(Conn& conn, const std::string& body, bool close_after) {
    conn.out = util::encode_frame(body);
    conn.out_pos = 0;
    conn.state = ConnState::WriteResponse;
    conn.close_after_write = conn.close_after_write || close_after ||
                             drain.load(std::memory_order_relaxed);
    conn.awaiting_seq = kNoSeq;
    arm_deadline(conn, options.write_deadline_seconds);
    flush_write(conn);
  }

  /// Resets a connection to READ_HEADER for the next keep-alive frame.
  void next_frame(Conn& conn) {
    conn.state = ConnState::ReadHeader;
    conn.header_got = 0;
    conn.body.clear();
    conn.body_len = 0;
    conn.body_got = 0;
    conn.out.clear();
    conn.out_pos = 0;
    arm_deadline(conn, options.read_deadline_seconds);
    set_events(conn, EPOLLIN | EPOLLRDHUP);
  }

  void flush_write(Conn& conn) {
    while (conn.out_pos < conn.out.size()) {
      const util::IoResult r = util::write_some(
          conn.fd.get(), conn.out.data() + conn.out_pos,
          conn.out.size() - conn.out_pos);
      if (r.kind == util::IoResult::Kind::Ok) {
        conn.out_pos += r.bytes;
        continue;
      }
      if (r.kind == util::IoResult::Kind::WouldBlock) {
        set_events(conn, EPOLLOUT);
        return;
      }
      // EPIPE / ECONNRESET: the reader vanished mid-response.
      bump(&ServerStats::connection_drops);
      close_conn(conn.id);
      return;
    }
    bump(&ServerStats::responses);
    if (conn.close_after_write) {
      close_conn(conn.id);
    } else {
      next_frame(conn);
    }
  }

  /// A complete request frame arrived: parse, admit, dispatch (or answer
  /// with a structured error in place).
  void handle_request(Conn& conn) {
    const std::uint64_t seq = conn.next_seq++;
    bump(&ServerStats::requests);
    wheel.cancel(conn.id);

    Instance instance;
    try {
      std::istringstream is(conn.body);
      instance = io::read_instance(is);
      // The frame must contain exactly one document; trailing bytes mean
      // the client's framing is off and the next "frame" would mis-parse.
      char extra = 0;
      while (is.get(extra)) {
        if (extra == '#') {
          std::string comment;
          std::getline(is, comment);
          continue;
        }
        if (std::isspace(static_cast<unsigned char>(extra)) == 0) {
          throw ContractViolation("trailing data after instance document");
        }
      }
    } catch (const std::exception& e) {
      bump(&ServerStats::protocol_errors);
      // The length prefix kept the stream in sync, so a malformed body
      // poisons only this request; the connection stays usable.
      respond(conn, error_body(seq, e.what()), /*close_after=*/false);
      return;
    }

    // Deterministic admission ladder: counts only. Shed past the hard
    // limit with a structured error; degrade past the soft limit so the
    // SolverService turns overload into certified anytime brackets.
    const std::size_t pending = backlog.load(std::memory_order_relaxed);
    if (pending >= options.shed_backlog) {
      bump(&ServerStats::overload_sheds);
      respond(conn,
              error_body(seq, "overloaded: " + std::to_string(pending) +
                                  " requests in flight, shedding"),
              /*close_after=*/false);
      return;
    }
    const bool degraded = pending >= options.degrade_backlog;
    if (degraded) bump(&ServerStats::degraded);

    conn.state = ConnState::Solving;
    conn.awaiting_seq = seq;
    // No EPOLLIN while solving: pipelined bytes wait in the kernel buffer
    // (TCP backpressure) instead of an unbounded user-space queue.
    set_events(conn, EPOLLRDHUP);
    arm_deadline(conn, options.solve_deadline_seconds);

    backlog.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(mutex);
      SolveJob job;
      job.conn_id = conn.id;
      job.seq = seq;
      job.degraded = degraded;
      job.instance = std::move(instance);
      jobs.push_back(std::move(job));
    }
    wake.notify_one();
  }

  void handle_readable(Conn& conn) {
    for (;;) {
      if (conn.state == ConnState::ReadHeader) {
        const util::IoResult r = util::read_some(
            conn.fd.get(), conn.header.data() + conn.header_got,
            conn.header.size() - conn.header_got);
        if (!advance_read(conn, r)) return;
        conn.header_got += r.bytes;
        if (conn.header_got < conn.header.size()) continue;
        std::uint32_t len = 0;
        if (!util::decode_frame_header(conn.header, len)) {
          bump(&ServerStats::protocol_errors);
          respond(conn, error_body(conn.next_seq++, "bad frame magic"),
                  /*close_after=*/true);
          return;
        }
        if (len > options.max_request_bytes) {
          bump(&ServerStats::protocol_errors);
          respond(conn,
                  error_body(conn.next_seq++,
                             "request too large: " + std::to_string(len) +
                                 " > " +
                                 std::to_string(options.max_request_bytes) +
                                 " bytes"),
                  /*close_after=*/true);
          return;
        }
        conn.body_len = len;
        conn.body_got = 0;
        conn.body.resize(len);
        conn.state = ConnState::ReadBody;
        if (len == 0) {
          handle_request(conn);
          return;
        }
        continue;
      }
      if (conn.state == ConnState::ReadBody) {
        const util::IoResult r =
            util::read_some(conn.fd.get(), conn.body.data() + conn.body_got,
                            conn.body_len - conn.body_got);
        if (!advance_read(conn, r)) return;
        conn.body_got += r.bytes;
        if (conn.body_got == conn.body_len) {
          handle_request(conn);
          return;
        }
        continue;
      }
      return;  // Solving / WriteResponse: nothing to read
    }
  }

  /// Shared read-result handling; true means `r.bytes` were consumed and
  /// the read loop may continue.
  bool advance_read(Conn& conn, const util::IoResult& r) {
    switch (r.kind) {
      case util::IoResult::Kind::Ok:
        return true;
      case util::IoResult::Kind::WouldBlock:
        return false;
      case util::IoResult::Kind::Eof:
      case util::IoResult::Kind::Error:
        if (conn.state == ConnState::ReadHeader && conn.header_got == 0 &&
            r.kind == util::IoResult::Kind::Eof) {
          // Orderly end of a keep-alive connection between frames.
          close_conn(conn.id);
        } else {
          // Mid-frame disconnect or reset.
          bump(&ServerStats::connection_drops);
          close_conn(conn.id);
        }
        return false;
    }
    return false;
  }

  void handle_deadline(Conn& conn) {
    bump(&ServerStats::deadline_expiries);
    switch (conn.state) {
      case ConnState::ReadHeader:
        if (conn.header_got == 0) {
          // Idle keep-alive timeout: quiet close.
          close_conn(conn.id);
          return;
        }
        [[fallthrough]];
      case ConnState::ReadBody:
        // Slowloris: a structured error (best effort) and close. The
        // write path gets its own deadline, so a trickler cannot pin the
        // connection in WRITE_RESPONSE either.
        respond(conn,
                error_body(conn.next_seq++, "read deadline exceeded"),
                /*close_after=*/true);
        return;
      case ConnState::Solving:
        // The solver is still working; answer honestly and move on. The
        // eventual result is dropped on arrival (awaiting_seq mismatch)
        // and the warm master is untouched.
        respond(conn,
                error_body(conn.awaiting_seq == kNoSeq ? conn.next_seq++
                                                       : conn.awaiting_seq,
                           "solve deadline exceeded"),
                /*close_after=*/true);
        return;
      case ConnState::WriteResponse:
        // The peer is not draining its response.
        bump(&ServerStats::connection_drops);
        close_conn(conn.id);
        return;
    }
  }

  void accept_ready() {
    for (;;) {
      const int raw = ::accept4(listener.get(), nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (raw < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or transient accept error: try again on epoll
      }
      util::Fd fd(raw);
      bump(&ServerStats::accepted);
      auto conn = std::make_unique<Conn>();
      conn->fd = std::move(fd);
      conn->id = next_conn_id++;
      epoll_event ev{};
      ev.data.u64 = conn->id;
      ev.events = EPOLLIN | EPOLLRDHUP;
      conn->events = ev.events;
      STRIPACK_ASSERT(::epoll_ctl(epoll.get(), EPOLL_CTL_ADD,
                                  conn->fd.get(), &ev) == 0,
                      std::string("epoll_ctl add: ") + std::strerror(errno));
      Conn& ref = *conn;
      conns.emplace(ref.id, std::move(conn));
      if (conns.size() > options.max_connections) {
        // Accept-level shedding: tell the client why before closing, so
        // overload is an observable, retryable condition — not a SYN
        // queue mystery.
        bump(&ServerStats::overload_sheds);
        respond(ref, error_body(ref.next_seq++, "overloaded: connection "
                                                "limit reached, shedding"),
                /*close_after=*/true);
      } else {
        arm_deadline(ref, options.read_deadline_seconds);
      }
    }
  }

  void drain_event_fd() {
    std::uint64_t counter = 0;
    (void)!::read(event.get(), &counter, sizeof(counter));
  }

  void deliver_results() {
    std::vector<SolveDone> done;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      done.swap(results);
    }
    for (SolveDone& d : done) {
      const auto it = conns.find(d.conn_id);
      if (it == conns.end() || it->second->awaiting_seq != d.seq) {
        // The connection died (or timed out) while the solve ran. The
        // result is discarded here, on the epoll thread — the solver
        // thread and its warm masters never saw the connection at all.
        bump(&ServerStats::dropped_results);
        continue;
      }
      respond(*it->second, d.body, /*close_after=*/false);
    }
  }

  // --- solver thread -------------------------------------------------------
  //
  // The only thread that touches `service`. Batches whatever jobs are
  // queued, runs them through the warm masters, and posts response
  // bodies back. Any exception escaping the batch (the bnp anytime
  // contract already contains solver faults; this is the outer barrier)
  // turns into per-request error responses — the thread itself never
  // dies, mirroring the PR 7 worker-pool containment.
  void solver_loop() {
    for (;;) {
      // `backlog` rises before a job is queued, so a nonzero read means
      // the lock below finds (or is about to be notified of) work.
      spin_before_park(
          [&] { return backlog.load(std::memory_order_relaxed) > 0; });
      std::vector<SolveJob> batch;
      {
        std::unique_lock<std::mutex> lock(mutex);
        wake.wait(lock, [&] { return solver_stop || !jobs.empty(); });
        if (jobs.empty() && solver_stop) return;
        batch.assign(std::make_move_iterator(jobs.begin()),
                     std::make_move_iterator(jobs.end()));
        jobs.clear();
      }

      std::vector<SolveDone> done;
      done.reserve(batch.size());
      try {
        std::unordered_map<std::size_t, std::size_t> job_by_service_id;
        job_by_service_id.reserve(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
          job_by_service_id[service.enqueue(batch[i].instance,
                                            batch[i].degraded)] = i;
        }
        for (ServiceResponse& r : service.run()) {
          const auto it = job_by_service_id.find(r.id);
          if (it == job_by_service_id.end()) continue;
          const SolveJob& job = batch[it->second];
          // Rewrite the service-global id to the connection-local seq so
          // each connection's stream replays a direct SolverService run.
          r.id = job.seq;
          std::ostringstream os;
          SolverService::write_response(os, r);
          done.push_back(SolveDone{job.conn_id, job.seq, os.str()});
        }
      } catch (const std::exception& e) {
        done.clear();
        for (const SolveJob& job : batch) {
          done.push_back(SolveDone{job.conn_id, job.seq,
                                   error_body(job.seq, e.what())});
        }
      }

      {
        const std::lock_guard<std::mutex> lock(mutex);
        for (SolveDone& d : done) results.push_back(std::move(d));
      }
      backlog.fetch_sub(batch.size(), std::memory_order_relaxed);
      const std::uint64_t one = 1;
      (void)!::write(event.get(), &one, sizeof(one));
    }
  }

  void stop_solver() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      solver_stop = true;
    }
    wake.notify_all();
    if (solver.joinable()) solver.join();
  }
};

StripackServer::StripackServer(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

StripackServer::~StripackServer() {
  if (impl_ != nullptr) impl_->stop_solver();
}

std::uint16_t StripackServer::start() {
  Impl& im = *impl_;
  STRIPACK_ASSERT(!im.started, "StripackServer::start() called twice");
  im.listener = util::listen_tcp(im.options.host, im.options.port);
  im.bound_port = util::local_port(im.listener.get());
  im.epoll = util::Fd(::epoll_create1(EPOLL_CLOEXEC));
  STRIPACK_ASSERT(static_cast<bool>(im.epoll),
                  std::string("epoll_create1: ") + std::strerror(errno));
  im.event = util::Fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  STRIPACK_ASSERT(static_cast<bool>(im.event),
                  std::string("eventfd: ") + std::strerror(errno));

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerKey;
  STRIPACK_ASSERT(::epoll_ctl(im.epoll.get(), EPOLL_CTL_ADD,
                              im.listener.get(), &ev) == 0,
                  std::string("epoll_ctl listener: ") + std::strerror(errno));
  ev.data.u64 = kEventKey;
  STRIPACK_ASSERT(::epoll_ctl(im.epoll.get(), EPOLL_CTL_ADD, im.event.get(),
                              &ev) == 0,
                  std::string("epoll_ctl eventfd: ") + std::strerror(errno));

  im.solver = std::thread([this] { impl_->solver_loop(); });
  im.started = true;
  return im.bound_port;
}

bool StripackServer::run() {
  Impl& im = *impl_;
  STRIPACK_ASSERT(im.started, "StripackServer::run() before start()");

  bool draining = false;
  bool clean = true;
  Clock::time_point drain_deadline{};
  std::array<epoll_event, 64> events{};

  for (;;) {
    // Enter drain mode at most once: close the listener (no new
    // connections), cut idle and mid-read connections (no admitted
    // request yet), and let SOLVING / WRITE_RESPONSE connections finish
    // inside the drain budget.
    if (!draining && im.drain.load(std::memory_order_acquire)) {
      draining = true;
      drain_deadline =
          Clock::now() + seconds_to_duration(im.options.drain_seconds);
      (void)::epoll_ctl(im.epoll.get(), EPOLL_CTL_DEL, im.listener.get(),
                        nullptr);
      im.listener.reset();
      std::vector<std::uint64_t> cut;
      for (const auto& [id, conn] : im.conns) {
        if (conn->state == ConnState::ReadHeader ||
            conn->state == ConnState::ReadBody) {
          cut.push_back(id);
        } else {
          conn->close_after_write = true;
        }
      }
      for (const std::uint64_t id : cut) im.close_conn(id);
    }
    if (draining && im.conns.empty()) break;
    if (draining && Clock::now() >= drain_deadline) {
      // Out of budget: force-close the stragglers.
      clean = im.conns.empty();
      std::vector<std::uint64_t> ids;
      ids.reserve(im.conns.size());
      for (const auto& [id, conn] : im.conns) ids.push_back(id);
      for (const std::uint64_t id : ids) im.close_conn(id);
      break;
    }

    int timeout_ms = -1;
    const auto next = im.wheel.next_deadline();
    Clock::time_point until{};
    bool have_until = false;
    if (next) {
      until = *next;
      have_until = true;
    }
    if (draining && (!have_until || drain_deadline < until)) {
      until = drain_deadline;
      have_until = true;
    }
    if (have_until) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            until - Clock::now())
                            .count();
      timeout_ms = left <= 0 ? 0 : static_cast<int>(std::min<long long>(
                                       left + 1, 1000));
    }

    // Poll before parking, except when a deadline is already due.
    int n = 0;
    if (timeout_ms != 0) {
      spin_before_park([&] {
        n = ::epoll_wait(im.epoll.get(), events.data(),
                         static_cast<int>(events.size()), 0);
        return n != 0;
      });
    }
    if (n == 0) {
      n = ::epoll_wait(im.epoll.get(), events.data(),
                       static_cast<int>(events.size()), timeout_ms);
    }
    if (n < 0) {
      STRIPACK_ASSERT(errno == EINTR,
                      std::string("epoll_wait: ") + std::strerror(errno));
      continue;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t key = events[static_cast<std::size_t>(i)].data.u64;
      const std::uint32_t flags =
          events[static_cast<std::size_t>(i)].events;
      if (key == kListenerKey) {
        if (!draining) im.accept_ready();
        continue;
      }
      if (key == kEventKey) {
        im.drain_event_fd();
        im.deliver_results();
        continue;
      }
      const auto it = im.conns.find(key);
      if (it == im.conns.end()) continue;  // closed earlier this round
      Conn& conn = *it->second;
      if ((flags & (EPOLLERR | EPOLLHUP)) != 0) {
        // Reset or full hangup (the EPOLLHUP-storm case). If a solve is
        // in flight its result will be dropped on arrival; the warm
        // master never notices.
        im.bump(&ServerStats::connection_drops);
        im.close_conn(key);
        continue;
      }
      if ((flags & EPOLLOUT) != 0 &&
          conn.state == ConnState::WriteResponse) {
        im.flush_write(conn);
        if (im.conns.find(key) == im.conns.end()) continue;
      }
      if ((flags & (EPOLLIN | EPOLLRDHUP)) != 0 &&
          (conn.state == ConnState::ReadHeader ||
           conn.state == ConnState::ReadBody)) {
        im.handle_readable(conn);
        continue;
      }
      if ((flags & EPOLLRDHUP) != 0 && conn.state == ConnState::Solving) {
        // The client hung up mid-solve. The protocol is strictly
        // sequential request/response, so a closed read side means the
        // conversation is over: drop the connection now and orphan the
        // in-flight result (dropped on arrival) — the warm master never
        // notices.
        im.bump(&ServerStats::connection_drops);
        im.close_conn(key);
        continue;
      }
    }

    for (const std::uint64_t id : im.wheel.expire(Clock::now())) {
      const auto it = im.conns.find(id);
      if (it == im.conns.end()) continue;
      im.handle_deadline(*it->second);
    }
  }

  im.stop_solver();
  return clean;
}

void StripackServer::request_drain() {
  Impl& im = *impl_;
  im.drain.store(true, std::memory_order_release);
  if (im.event) {
    const std::uint64_t one = 1;
    (void)!::write(im.event.get(), &one, sizeof(one));
  }
}

std::uint16_t StripackServer::port() const { return impl_->bound_port; }

ServerStats StripackServer::stats() const {
  const std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  return impl_->stats;
}

}  // namespace stripack::service::net
