// Pluggable LP-backend seam.
//
// `LpBackend` abstracts the resumable-LP contract that PRs 3-4 pinned down
// at the `ConfigLpSolver` seam — cold/warm `solve`, `solve_dual` with a
// Farkas certificate on infeasibility, `sync_rows` with the rhs-only fast
// path, `sync_columns` for column generation, and
// explicit basis handoff (`load_basis` in, `Solution::basis` out, which is
// also how branch-and-price clones a node: re-create the backend with
// `SimplexOptions::initial_basis`). Every registered backend must honor
// the full contract; `tests/backend_conformance_test.cpp` is the
// executable statement of it and runs against the whole registry.
//
// Two backends ship:
//  - "simplex": the production eta-file `SimplexEngine` (the default).
//  - "dense": the dense-tableau reference simplex (`lp/dense_backend.hpp`),
//    promoted from test-only code so differential checks and the
//    configuration-LP failover have a first-class, independently
//    implemented peer.
//
// Backends are constructed through a name-keyed factory so callers (the
// configuration-LP solver, the CLI) select one per request without
// compile-time coupling; `register_lp_backend` accepts future
// backends (interior point, GPU) without touching this seam again.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace stripack::lp {

/// Abstract resumable LP solver over a borrowed `Model` (min c'x,
/// Ax {<=,>=,=} b, x >= 0). Semantics of every member match the
/// `SimplexEngine` documentation in lp/simplex.hpp; the model must outlive
/// the backend. Implementations need not be thread-safe — concurrent
/// callers each build their own instance.
class LpBackend {
 public:
  virtual ~LpBackend() = default;

  /// Registry name of this backend (e.g. "simplex", "dense").
  [[nodiscard]] virtual const char* name() const = 0;

  /// Re-points the cooperative cancellation token checked at pivot
  /// boundaries (`SimplexOptions::stop`); a default token clears it.
  /// Default is a no-op so existing custom backends keep compiling, but
  /// long-lived callers (the warm-pooled service masters) rely on it —
  /// both builtin backends implement it.
  virtual void set_stop(StopToken /*stop*/) {}

  /// Picks up columns appended to the model since the last sync.
  virtual void sync_columns() = 0;

  /// Picks up appended rows and rhs changes, keeping the retained basis
  /// (new rows enter on their own logicals) so `solve_dual` re-solves
  /// without phase 1. An rhs-only change must not force refactorization.
  virtual void sync_rows() = 0;

  /// Installs an explicit starting basis (one `slack_code`/column code per
  /// row). Returns false — and reverts to a cold start — if the basis is
  /// singular or not primal feasible.
  virtual bool load_basis(const std::vector<int>& basis) = 0;

  /// Cold two-phase solve on first call; warm (phase-1-free)
  /// reoptimization from the retained basis afterwards.
  [[nodiscard]] virtual Solution solve() = 0;

  /// Dual-simplex re-solve from the retained dual-feasible basis; see
  /// `SimplexEngine::solve_dual` for the fallback rules and the
  /// `shift_dual_infeasible` cost-shift narrowing.
  [[nodiscard]] virtual Solution solve_dual(
      bool shift_dual_infeasible = false) = 0;
};

/// Constructs a backend over `model`. The model must outlive the result.
using BackendFactory = std::function<std::unique_ptr<LpBackend>(
    const Model& model, const SimplexOptions& options)>;

/// Name of the default (production) backend: the eta-file SimplexEngine.
inline constexpr const char* kDefaultLpBackend = "simplex";

/// Registers (or replaces) a backend factory under `name`. The builtin
/// "simplex" and "dense" backends are pre-registered.
void register_lp_backend(const std::string& name, BackendFactory factory);

/// True if `name` is registered.
[[nodiscard]] bool has_lp_backend(const std::string& name);

/// Registered backend names, sorted (stable across runs — tests and the
/// CLI iterate this).
[[nodiscard]] std::vector<std::string> lp_backend_names();

/// Instantiates the backend registered under `name` over `model`. Throws
/// std::invalid_argument for an unknown name (listing the known ones).
[[nodiscard]] std::unique_ptr<LpBackend> make_lp_backend(
    const std::string& name, const Model& model,
    const SimplexOptions& options = {});

/// Wraps an externally owned `SimplexEngine` in the backend interface
/// (non-owning). Lets `SimplexEngine` call sites reuse backend-generic
/// code — notably the column-generation loop — without re-constructing
/// engine state. The engine must outlive the wrapper.
[[nodiscard]] std::unique_ptr<LpBackend> wrap_engine(SimplexEngine& engine);

}  // namespace stripack::lp
