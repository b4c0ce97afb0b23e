#include "lp/backend.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "lp/dense_backend.hpp"

namespace stripack::lp {
namespace {

// Production backend: thin forwarding shim over the eta-file engine. Owns
// the engine unless constructed via wrap_engine (colgen reuse path).
class EngineBackend final : public LpBackend {
 public:
  EngineBackend(const Model& model, const SimplexOptions& options)
      : owned_(std::make_unique<SimplexEngine>(model, options)),
        engine_(owned_.get()) {}
  explicit EngineBackend(SimplexEngine& engine) : engine_(&engine) {}

  [[nodiscard]] const char* name() const override { return "simplex"; }
  void set_stop(StopToken stop) override { engine_->set_stop(stop); }
  void sync_columns() override { engine_->sync_columns(); }
  void sync_rows() override { engine_->sync_rows(); }
  bool load_basis(const std::vector<int>& basis) override {
    return engine_->load_basis(basis);
  }
  [[nodiscard]] Solution solve() override { return engine_->solve(); }
  [[nodiscard]] Solution solve_dual(bool shift_dual_infeasible) override {
    return engine_->solve_dual(shift_dual_infeasible);
  }

 private:
  std::unique_ptr<SimplexEngine> owned_;  // null when wrapping
  SimplexEngine* engine_;
};

// std::map keeps lp_backend_names() sorted for free; registration happens
// once at startup plus rare test hooks, so lookup speed is irrelevant.
using Registry = std::map<std::string, BackendFactory>;

Registry& registry() {
  static Registry instance = [] {
    Registry r;
    r.emplace(kDefaultLpBackend,
              [](const Model& model, const SimplexOptions& options) {
                return std::unique_ptr<LpBackend>(
                    new EngineBackend(model, options));
              });
    r.emplace("dense",
              [](const Model& model, const SimplexOptions& options) {
                return std::unique_ptr<LpBackend>(
                    new DenseTableauBackend(model, options));
              });
    return r;
  }();
  return instance;
}

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

void register_lp_backend(const std::string& name, BackendFactory factory) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  registry()[name] = std::move(factory);
}

bool has_lp_backend(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  return registry().count(name) != 0;
}

std::vector<std::string> lp_backend_names() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, factory] : registry()) names.push_back(name);
  return names;
}

std::unique_ptr<LpBackend> make_lp_backend(const std::string& name,
                                           const Model& model,
                                           const SimplexOptions& options) {
  BackendFactory factory;
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    const auto it = registry().find(name);
    if (it != registry().end()) factory = it->second;
  }
  if (!factory) {
    std::ostringstream msg;
    msg << "unknown LP backend '" << name << "' (registered:";
    for (const std::string& known : lp_backend_names()) msg << ' ' << known;
    msg << ')';
    throw std::invalid_argument(msg.str());
  }
  return factory(model, options);
}

std::unique_ptr<LpBackend> wrap_engine(SimplexEngine& engine) {
  return std::unique_ptr<LpBackend>(new EngineBackend(engine));
}

}  // namespace stripack::lp
