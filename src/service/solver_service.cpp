#include "service/solver_service.hpp"

#include <algorithm>
#include <cctype>
#include <iomanip>
#include <istream>
#include <limits>
#include <numeric>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

#include "io/instance_io.hpp"
#include "release/config_lp.hpp"
#include "service/canonical.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace stripack::service {

namespace {

// Responses are line-oriented; an exception message with embedded
// newlines would desynchronize the reader.
[[nodiscard]] std::string one_line(const char* what) {
  std::string out(what);
  std::replace(out.begin(), out.end(), '\n', ' ');
  std::replace(out.begin(), out.end(), '\r', ' ');
  return out;
}

[[nodiscard]] const char* status_name(bnp::BnpStatus status) {
  switch (status) {
    case bnp::BnpStatus::Optimal:
      return "optimal";
    case bnp::BnpStatus::NodeLimit:
      return "node-limit";
    case bnp::BnpStatus::TimeLimit:
      return "time-limit";
    case bnp::BnpStatus::Stalled:
      return "stalled";
  }
  return "stalled";
}

// Advances `is` past whitespace and whole comment lines; true iff a
// non-comment token remains (i.e. another instance document starts).
[[nodiscard]] bool skip_to_content(std::istream& is) {
  for (int c = is.peek(); c != std::char_traits<char>::eof(); c = is.peek()) {
    if (c == '#') {
      std::string line;
      std::getline(is, line);
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      is.get();
      continue;
    }
    return true;
  }
  return false;
}

// Canonicalization is pure, so it runs outside the admission lock. A
// request outside the service contract yields nullopt and its reason.
[[nodiscard]] std::optional<CanonicalRequest> try_canonicalize(
    const Instance& instance, std::string& error) {
  try {
    return canonicalize(instance);
  } catch (const std::exception& e) {
    error = one_line(e.what());
    return std::nullopt;
  }
}

}  // namespace

struct SolverService::Pending {
  std::size_t id = 0;
  bool degraded = false;
  CanonicalRequest request;
};

struct SolverService::ClassState {
  struct CacheEntry {
    std::size_t tick = 0;  // class-local tick of the solve that filled it
    bnp::BnpStatus status = bnp::BnpStatus::Optimal;
    double height = 0.0;
    double dual_bound = 0.0;
    Placement placement;  // canonical space; mapped per request on a hit
  };

  std::string signature;
  /// Admission queue: appended under Sync::mutex (enqueue is safe during
  /// run()), snapshotted-and-cleared under the same lock by run().
  std::vector<Pending> pending;
  /// Requests this class has processed, ever — the fill order eviction
  /// is measured against.
  std::size_t tick = 0;
  /// Only certified-optimal results are cached: a budget-truncated
  /// bracket computed for one (possibly degraded) request must not be
  /// replayed to a later, normally admitted one.
  std::map<std::string, CacheEntry> cache;
  /// Heap-stable problem storage — the warm master holds a *reference*
  /// and re-reads `demand` at every rebind, so this must never move.
  std::unique_ptr<release::ConfigLpProblem> problem;
  std::optional<release::ConfigLpSolver> master;
  /// LP pivots per request in this class's previous batch (empty before
  /// its first batch): the deterministic cost estimate run() dispatches by.
  std::optional<double> pivots_per_request;
};

SolverService::SolverService(ServiceOptions options)
    : options_(std::move(options)), sync_(std::make_unique<Sync>()) {}
SolverService::~SolverService() = default;
SolverService::SolverService(SolverService&&) noexcept = default;
SolverService& SolverService::operator=(SolverService&&) noexcept = default;

ServiceStats SolverService::stats() const {
  const std::lock_guard<std::mutex> lock(sync_->mutex);
  return stats_;
}

std::size_t SolverService::enqueue(const Instance& instance,
                                   bool force_degraded) {
  std::string error;
  std::optional<CanonicalRequest> canonical =
      try_canonicalize(instance, error);
  return admit(std::move(canonical), std::move(error), force_degraded);
}

bool SolverService::backlog_full(const std::string& class_signature) const {
  const std::lock_guard<std::mutex> lock(sync_->mutex);
  const auto slot = class_by_signature_.find(class_signature);
  return options_.backlog_threshold > 0 &&
         slot != class_by_signature_.end() &&
         classes_[slot->second]->pending.size() >= options_.backlog_threshold;
}

std::size_t SolverService::admit(std::optional<CanonicalRequest> canonical,
                                 std::string error, bool force_degraded) {
  const std::lock_guard<std::mutex> lock(sync_->mutex);
  const std::size_t id = next_id_++;
  if (!canonical) {
    ServiceResponse rejected;
    rejected.id = id;
    rejected.error = std::move(error);
    rejected_.push_back(std::move(rejected));
    return id;
  }
  const auto [slot, inserted] = class_by_signature_.try_emplace(
      canonical->class_signature, classes_.size());
  if (inserted) {
    classes_.push_back(std::make_unique<ClassState>());
    classes_.back()->signature = canonical->class_signature;
  }
  ClassState& cls = *classes_[slot->second];
  Pending pending;
  pending.id = id;
  // Admission control: the decision depends only on the in-class backlog
  // this request joins (or an explicit caller override) — a pure function
  // of the enqueue order, so it replays identically at any worker count.
  pending.degraded =
      force_degraded || cls.pending.size() >= options_.backlog_threshold;
  pending.request = std::move(*canonical);
  cls.pending.push_back(std::move(pending));
  return id;
}

void SolverService::process_class(ClassState& cls, std::vector<Pending>& batch,
                                  std::vector<ServiceResponse>& out) const {
  std::int64_t pivots = 0;
  for (Pending& p : batch) {
    ServiceResponse r;
    r.id = p.id;
    r.degraded = p.degraded;
    ++cls.tick;

    const auto hit = cls.cache.find(p.request.key);
    if (hit != cls.cache.end()) {
      const ClassState::CacheEntry& entry = hit->second;
      r.ok = true;
      r.cache_hit = true;
      r.status = entry.status;
      r.height = entry.height;
      r.dual_bound = entry.dual_bound;
      r.placement = map_placement(p.request, entry.placement);
      out.push_back(std::move(r));
      continue;
    }

    bnp::BnpOptions opts = options_.bnp;
    opts.budget.max_nodes =
        p.degraded ? options_.degraded_node_budget : options_.node_budget;
    if (options_.request_time_limit > 0.0) {
      opts.budget.max_seconds = options_.request_time_limit;
    }
    try {
      if (cls.problem == nullptr) {
        cls.problem = std::make_unique<release::ConfigLpProblem>(
            release::make_problem(p.request.instance));
        cls.master.emplace(*cls.problem, opts.lp);
      } else {
        cls.problem->demand = release::make_problem(p.request.instance).demand;
      }
      r.warm_root = cls.master->solved();
      bnp::BnpResult result =
          bnp::solve_warm(p.request.instance, opts, *cls.master);
      pivots += result.lp_iterations;
      r.ok = true;
      r.status = result.status;
      r.height = result.height;
      r.dual_bound = result.dual_bound;
      r.placement = map_placement(p.request, result.packing.placement);
      if (result.status == bnp::BnpStatus::Optimal &&
          options_.cache_capacity > 0) {
        ClassState::CacheEntry entry;
        entry.tick = cls.tick;
        entry.status = result.status;
        entry.height = result.height;
        entry.dual_bound = result.dual_bound;
        entry.placement = std::move(result.packing.placement);
        cls.cache[p.request.key] = std::move(entry);
        while (cls.cache.size() > options_.cache_capacity) {
          auto oldest = cls.cache.begin();
          for (auto it = cls.cache.begin(); it != cls.cache.end(); ++it) {
            if (it->second.tick < oldest->second.tick) oldest = it;
          }
          cls.cache.erase(oldest);
        }
      }
    } catch (const std::exception& e) {
      // The bnp anytime contract swallows solver-side faults; whatever
      // still escapes (a contract violation in the request itself)
      // becomes an error response, never a dead worker.
      r.ok = false;
      r.error = one_line(e.what());
    }
    out.push_back(std::move(r));
  }
  if (!batch.empty()) {
    cls.pivots_per_request =
        static_cast<double>(pivots) / static_cast<double>(batch.size());
  }
}

std::vector<ServiceResponse> SolverService::run() {
  // Documented rejection (not a lock): a second run() would race the
  // first for the warm masters, and blocking it behind a mutex would
  // silently reorder batches. Misuse must be loud.
  bool expected = false;
  if (!sync_->running.compare_exchange_strong(expected, true)) {
    throw ContractViolation(
        "SolverService::run() is not reentrant: a batch is already in "
        "flight (enqueue is the only concurrency-safe entry point)");
  }
  struct RunningGuard {
    std::atomic<bool>& flag;
    ~RunningGuard() { flag.store(false); }
  } guard{sync_->running};

  // Snapshot the admission queues under the lock: everything queued
  // before this point is the batch; enqueues racing past it land in the
  // class queues untouched and wait for the next run().
  std::vector<ServiceResponse> out;
  std::vector<ClassState*> active;
  std::vector<std::vector<Pending>> batches;
  {
    const std::lock_guard<std::mutex> lock(sync_->mutex);
    out = std::move(rejected_);
    rejected_.clear();
    for (const std::unique_ptr<ClassState>& cls : classes_) {
      if (!cls->pending.empty()) {
        active.push_back(cls.get());
        batches.push_back(std::move(cls->pending));
        cls->pending.clear();
      }
    }
  }

  // Heaviest class first (longest-processing-time list scheduling): the
  // pool starts chunks in index order, so a heavy class no longer waits
  // behind light ones and stretches the batch's critical path. A class's
  // estimate is its LP pivots per request in its previous batch times its
  // pending count; classes with no history go first (a cold master is a
  // class's most expensive solve). Ties keep class-index order.
  std::vector<double> estimate(active.size());
  for (std::size_t k = 0; k < active.size(); ++k) {
    const std::optional<double>& history = active[k]->pivots_per_request;
    estimate[k] = history ? *history * static_cast<double>(batches[k].size())
                          : std::numeric_limits<double>::infinity();
  }
  std::vector<std::size_t> order(active.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return estimate[a] > estimate[b];
                   });

  // One chunk per class: classes share nothing (separate masters, caches,
  // response vectors), so neither the dispatch order nor the thread that
  // runs a class changes a response — they are bitwise identical at any
  // worker count.
  std::vector<std::vector<ServiceResponse>> per_class(active.size());
  const auto work = [&](std::size_t i) {
    const std::size_t k = order[i];
    process_class(*active[k], batches[k], per_class[k]);
  };
  if (options_.workers <= 1 || active.size() <= 1) {
    for (std::size_t k = 0; k < active.size(); ++k) work(k);
  } else {
    // The calling thread runs chunks too, so `workers` threads in total.
    if (pool_ == nullptr) {
      pool_ = std::make_unique<ThreadPool>(
          static_cast<unsigned>(options_.workers - 1));
    }
    pool_->run(active.size(), work, active.size());
  }

  for (std::vector<ServiceResponse>& chunk : per_class) {
    for (ServiceResponse& r : chunk) out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(),
            [](const ServiceResponse& a, const ServiceResponse& b) {
              return a.id < b.id;
            });

  {
    const std::lock_guard<std::mutex> lock(sync_->mutex);
    stats_.classes = classes_.size();
    for (const ServiceResponse& r : out) {
      ++stats_.requests;
      if (!r.ok) ++stats_.errors;
      if (r.cache_hit) ++stats_.cache_hits;
      if (r.degraded) ++stats_.degraded;
      if (r.warm_root) ++stats_.warm_roots;
    }
  }
  return out;
}

std::size_t SolverService::serve_stream(std::istream& is, std::ostream& os) {
  // A sink that dies mid-stream (reader closed the pipe, disk full) puts
  // `os` into a failed state; every further insertion would be a silent
  // no-op. Flush per response so failure is observed at the response
  // boundary, stop writing and reading, and report only what actually
  // went out.
  std::size_t written = 0;
  bool sink_ok = true;
  const auto answer_batch = [&] {
    for (const ServiceResponse& r : run()) {
      write_response(os, r);
      if (!os.flush()) {
        sink_ok = false;
        return;
      }
      ++written;
    }
  };
  while (sink_ok && skip_to_content(is)) {
    Instance instance;
    try {
      instance = io::read_instance(is);
    } catch (const std::exception& e) {
      // The v1 format has no resync point: report this request as broken
      // and stop ingesting rather than mis-parse the remainder.
      (void)admit(std::nullopt, one_line(e.what()), false);
      break;
    }
    std::string error;
    std::optional<CanonicalRequest> canonical =
        try_canonicalize(instance, error);
    // Close the batch before this request would find its class backlog
    // full: reading requests together must not degrade them, and the
    // queues stay bounded by classes x backlog_threshold.
    if (canonical && backlog_full(canonical->class_signature)) {
      answer_batch();
      if (!sink_ok) break;
    }
    (void)admit(std::move(canonical), std::move(error), false);
  }
  if (sink_ok) answer_batch();
  return written;
}

void SolverService::write_response(std::ostream& os,
                                   const ServiceResponse& r) {
  os << "stripack-response v1\n";
  os << "request " << r.id << "\n";
  if (!r.ok) {
    os << "status error\n";
    os << "error " << r.error << "\n";
    os << "end\n";
    return;
  }
  os << std::setprecision(17);
  os << "status " << status_name(r.status) << "\n";
  os << "height " << r.height << "\n";
  os << "dual_bound " << r.dual_bound << "\n";
  os << "cache " << (r.cache_hit ? "hit" : "miss") << "\n";
  os << "admission " << (r.degraded ? "degraded" : "normal") << "\n";
  os << "items " << r.placement.size() << "\n";
  for (const Position& p : r.placement) {
    os << p.x << ' ' << p.y << "\n";
  }
  os << "end\n";
}

}  // namespace stripack::service
