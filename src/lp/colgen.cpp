#include "lp/colgen.hpp"

#include "util/assert.hpp"

namespace stripack::lp {

ColgenResult solve_with_column_generation(Model& model, PricingOracle& oracle,
                                          SimplexEngine& engine,
                                          double pricing_tol, int max_rounds) {
  STRIPACK_EXPECTS(max_rounds > 0);
  ColgenResult result;
  engine.sync_columns();
  while (true) {
    result.solution = engine.solve();
    ++result.rounds;
    result.total_iterations += result.solution.iterations;
    result.refactor_retries += result.solution.refactor_retries;
    result.residual_repairs += result.solution.residual_repairs;
    result.cold_restarts += result.solution.cold_restarts;
    if (result.rounds == 1) {
      result.cold_phase1_iterations = result.solution.phase1_iterations;
    } else {
      result.warm_phase1_iterations += result.solution.phase1_iterations;
    }
    if (result.solution.status != SolveStatus::Optimal) return result;
    if (result.rounds >= max_rounds) return result;

    const auto columns = oracle.price(result.solution.duals, pricing_tol);
    if (columns.empty()) return result;
    for (const PricedColumn& col : columns) {
      model.add_column(col.cost, col.entries, col.name);
      ++result.columns_added;
    }
    engine.sync_columns();
  }
}

ColgenResult solve_with_column_generation(Model& model, PricingOracle& oracle,
                                          const SimplexOptions& options,
                                          int max_rounds) {
  SimplexEngine engine(model, options);
  return solve_with_column_generation(model, oracle, engine, options.tol,
                                      max_rounds);
}

}  // namespace stripack::lp
