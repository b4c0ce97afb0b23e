// stripack_solve — command-line solver for instance files.
//
//   $ ./stripack_solve <instance.txt> [--algo dc|uniform|aptas|kr|list|
//                                       nfdh|ffdh|bfdh|sleator|skyline|bnp]
//                      [--eps E] [--K k] [--svg out.svg] [--out placement.txt]
//                      [--time-limit SEC] [--backend NAME] [--verbose]
//
// Reads the text format of io/instance_io.hpp, picks the algorithm (or
// chooses one from the instance's constraints when --algo is omitted),
// validates the result, and reports the height against the certified lower
// bounds. A downstream user's one-stop entry point.
//
// `--time-limit` sets the bnp wall-clock deadline in seconds (anytime:
// the solver still returns its best incumbent with a valid
// [dual_bound, height] bracket; negative values are a usage error).
// `--backend` picks the master LP's registered `lp::LpBackend` (see
// lp/backend.hpp); a master that fails numerically on it still fails over
// to the dense backend. `--verbose` prints the solver's node, pricing
// and numerical-recovery diagnostics.
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "io/instance_io.hpp"
#include "io/svg.hpp"
#include "kr/kr_aptas.hpp"
#include "stripack.hpp"
#include "util/parse_num.hpp"

namespace {

using namespace stripack;

int usage() {
  std::cerr
      << "usage: stripack_solve <instance.txt> [--algo NAME] [--eps E]\n"
         "                      [--K k] [--svg out.svg] [--out place.txt]\n"
         "                      [--time-limit SEC] [--backend NAME]\n"
         "                      [--verbose]\n"
         "algorithms: dc uniform aptas kr list nfdh ffdh bfdh sleator "
         "skyline bnp\n"
         "bnp flags: --time-limit SEC (>= 0) sets the anytime wall-clock\n"
         "deadline; --backend selects the master LP backend (";
  bool first = true;
  for (const std::string& name : lp::lp_backend_names()) {
    std::cerr << (first ? "" : " | ") << name;
    first = false;
  }
  std::cerr << ");\n--verbose prints node / pricing / recovery "
               "diagnostics\n";
  return 2;
}

Placement run_packer(const Instance& instance, const std::string& name) {
  const auto packer = make_packer(name);
  STRIPACK_ASSERT(packer != nullptr, "unknown packer: " + name);
  std::vector<Rect> rects;
  for (const Item& it : instance.items()) rects.push_back(it.rect);
  return packer->pack(rects, instance.strip_width()).placement;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string algo;
  std::string svg_path;
  std::string out_path;
  double eps = 0.5;
  int K = 4;
  double time_limit = 0.0;  // 0 = unlimited
  std::string backend = lp::kDefaultLpBackend;
  bool verbose = false;
  const std::string input = argv[1];
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string flag = argv[i];
      auto next = [&]() -> std::string {
        STRIPACK_ASSERT(i + 1 < argc, "missing value after " + flag);
        return argv[++i];
      };
      // Checked parses: malformed or out-of-range numeric flags must end
      // in a usage error and a non-zero exit, never an uncaught
      // std::invalid_argument from a bare std::stoi/std::stod.
      auto next_int = [&](int& out) {
        const std::string text = next();
        if (util::parse_int(text, out)) return true;
        std::cerr << "bad integer for " << flag << ": '" << text << "'\n";
        return false;
      };
      auto next_double = [&](double& out) {
        const std::string text = next();
        if (util::parse_double(text, out)) return true;
        std::cerr << "bad number for " << flag << ": '" << text << "'\n";
        return false;
      };
      if (flag == "--algo") {
        algo = next();
      } else if (flag == "--eps") {
        if (!next_double(eps)) return usage();
      } else if (flag == "--K") {
        if (!next_int(K)) return usage();
      } else if (flag == "--svg") {
        svg_path = next();
      } else if (flag == "--out") {
        out_path = next();
      } else if (flag == "--time-limit") {
        if (!next_double(time_limit)) return usage();
        if (time_limit < 0.0) {
          std::cerr << "negative value for " << flag << "\n";
          return usage();
        }
      } else if (flag == "--backend") {
        backend = next();
        if (!lp::has_lp_backend(backend)) {
          std::cerr << "unknown LP backend: " << backend << "\n";
          return usage();
        }
      } else if (flag == "--verbose") {
        verbose = true;
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    // A flag with a missing value trips the STRIPACK_ASSERT in next().
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  }

  try {
    const Instance instance = io::load_instance(input);
    std::cout << "instance: n=" << instance.size()
              << " precedence=" << (instance.has_precedence() ? "yes" : "no")
              << " releases=" << (instance.has_release_times() ? "yes" : "no")
              << "\n";

    if (algo.empty()) {
      // Choose the paper's algorithm for the instance's constraint family.
      if (instance.has_precedence()) algo = "dc";
      else if (instance.has_release_times()) algo = "aptas";
      else algo = "kr";
      std::cout << "auto-selected algorithm: " << algo << "\n";
    }

    Placement placement;
    if (algo == "dc") {
      placement = dc_pack(instance).packing.placement;
    } else if (algo == "uniform") {
      placement = uniform_shelf_pack(instance).packing.placement;
    } else if (algo == "aptas") {
      release::AptasParams params;
      params.epsilon = eps;
      params.K = K;
      placement = release::aptas_pack(instance, params).packing.placement;
    } else if (algo == "kr") {
      kr::KrParams params;
      params.epsilon = eps;
      placement = kr::kr_pack(instance, params).packing.placement;
    } else if (algo == "list") {
      placement = list_schedule(instance).placement;
    } else if (algo == "bnp") {
      // Exact branch and price. Integer heights and releases go to the
      // solver directly (it honours release times); anything else runs
      // through the quantizing packer adapter, which — like every other
      // packer — only models release-free instances.
      bool integral = true;
      for (const Item& it : instance.items()) {
        integral = integral &&
                   std::fabs(it.height() - std::round(it.height())) < 1e-6 &&
                   std::fabs(it.release - std::round(it.release)) < 1e-6;
      }
      if (integral) {
        bnp::BnpOptions options;
        options.budget.max_seconds = time_limit;
        options.lp.backend = backend;
        if (backend != lp::kDefaultLpBackend) {
          std::cout << "bnp: master LP backend " << backend << "\n";
        }
        const bnp::BnpResult result = bnp::solve(instance, options);
        // Only an Optimal status is a certificate; budget-limited or
        // stalled runs carry a [dual_bound, height] bracket instead.
        if (result.status == bnp::BnpStatus::Optimal) {
          std::cout << "bnp: certified slice optimum " << result.height;
        } else {
          const char* why =
              result.status == bnp::BnpStatus::NodeLimit   ? "node budget"
              : result.status == bnp::BnpStatus::TimeLimit ? "time budget"
                                                           : "LP stall";
          std::cout << "bnp: slice optimum in [" << result.dual_bound
                    << ", " << result.height << "] (" << why
                    << " hit; incumbent not certified)";
        }
        std::cout << " over " << result.nodes << " node(s)\n";
        if (verbose) {
          std::cout << "bnp: dual bound " << result.dual_bound
                    << ", nodes created " << result.nodes_created
                    << ", strong-branch probes "
                    << result.strong_branch_probes << "\n"
                    << "bnp: branch rows " << result.branch_rows
                    << ", columns " << result.columns << ", LP pivots "
                    << result.lp_iterations << " (dual "
                    << result.dual_iterations << ", warm phase-1 "
                    << result.warm_phase1_iterations << "), Farkas rounds "
                    << result.farkas_rounds << "\n"
                    << "bnp: pricing DFS expansions "
                    << result.pricing_dfs_expansions << "\n"
                    << "bnp: recovery — refactor retries "
                    << result.lp_refactor_retries << ", residual repairs "
                    << result.lp_residual_repairs << ", cold restarts "
                    << result.lp_cold_restarts << ", master failovers "
                    << result.master_failovers << "\n";
        }
        placement = result.packing.placement;
      } else {
        STRIPACK_ASSERT(!instance.has_release_times(),
                        "bnp needs integer data on release instances");
        // Quantizing adapter path: forward the solver flags.
        bnp::BnpOptions options = bnp::BnpPacker::default_pack_options();
        if (time_limit > 0.0) options.budget.max_seconds = time_limit;
        options.lp.backend = backend;
        const bnp::BnpPacker packer(options);
        std::vector<Rect> rects;
        for (const Item& it : instance.items()) rects.push_back(it.rect);
        placement =
            packer.pack(rects, instance.strip_width()).placement;
      }
    } else {
      std::string packer_name = algo;
      for (char& c : packer_name) c = static_cast<char>(std::toupper(c));
      if (algo == "sleator") packer_name = "Sleator";
      if (algo == "skyline") packer_name = "SkylineBL";
      placement = run_packer(instance, packer_name);
    }

    const ValidationReport report = validate(instance, placement);
    if (!report.ok()) {
      std::cerr << "INVALID packing: " << report.summary() << "\n";
      return 1;
    }
    const double height = packing_height(instance, placement);
    std::cout << "height: " << height
              << "  (lower bound: " << combined_lower_bound(instance)
              << ", ratio " << height / combined_lower_bound(instance)
              << ")\n";

    if (!out_path.empty()) {
      std::ofstream out(out_path);
      STRIPACK_ASSERT(out.good(), "cannot open " + out_path);
      io::write_placement(out, placement);
      out.flush();
      STRIPACK_ASSERT(out.good(), "cannot write " + out_path);
      std::cout << "wrote " << out_path << "\n";
    }
    if (!svg_path.empty()) {
      io::save_svg(svg_path, instance, placement);
      std::cout << "wrote " << svg_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
