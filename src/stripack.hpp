// Umbrella header for the stripack library.
//
// stripack reproduces "Strip packing with precedence constraints and strip
// packing with release times" (Augustine, Banerjee, Irani; TCS 2009 /
// SPAA 2006):
//   - dc_pack:            O(log n)-approx. for precedence constraints (§2)
//   - uniform_shelf_pack: absolute 3-approx. for uniform heights (§2.2)
//   - release::aptas_pack: APTAS for release times (§3)
// plus every substrate: unconstrained packers, bin packing, an LP solver,
// instance generators, and an FPGA reconfiguration simulator.
//
// Including this header pulls in every public module; the layering between
// them (generators -> packers -> precedence/release algorithms ->
// validate/bounds, with fpga/ as an adapter seam on top) is documented in
// docs/ARCHITECTURE.md. Every header under src/ is exported here and
// tests/stripack_umbrella_test.cpp smoke-exercises one entry point per
// module, so a public header missing from this list breaks CI.
#pragma once

#include "binpack/binpack.hpp"             // IWYU pragma: export
#include "binpack/precedence_binpack.hpp"  // IWYU pragma: export
#include "bnp/node_tree.hpp"               // IWYU pragma: export
#include "bnp/solver.hpp"                  // IWYU pragma: export
#include "core/bounds.hpp"                 // IWYU pragma: export
#include "core/instance.hpp"               // IWYU pragma: export
#include "core/packing.hpp"                // IWYU pragma: export
#include "core/rect.hpp"                   // IWYU pragma: export
#include "core/validate.hpp"               // IWYU pragma: export
#include "dag/dag.hpp"                     // IWYU pragma: export
#include "fpga/adapters.hpp"               // IWYU pragma: export
#include "fpga/device.hpp"                 // IWYU pragma: export
#include "fpga/simulator.hpp"              // IWYU pragma: export
#include "fpga/workloads.hpp"              // IWYU pragma: export
#include "gen/dag_gen.hpp"                 // IWYU pragma: export
#include "gen/hard_integral.hpp"           // IWYU pragma: export
#include "gen/lowerbound_family.hpp"       // IWYU pragma: export
#include "gen/rect_gen.hpp"                // IWYU pragma: export
#include "gen/release_gen.hpp"             // IWYU pragma: export
#include "io/instance_io.hpp"              // IWYU pragma: export
#include "io/svg.hpp"                      // IWYU pragma: export
#include "kr/kr_aptas.hpp"                 // IWYU pragma: export
#include "lp/colgen.hpp"                   // IWYU pragma: export
#include "lp/model.hpp"                    // IWYU pragma: export
#include "lp/simplex.hpp"                  // IWYU pragma: export
#include "packers/exact.hpp"               // IWYU pragma: export
#include "packers/online_shelf.hpp"        // IWYU pragma: export
#include "packers/packer.hpp"              // IWYU pragma: export
#include "packers/registry.hpp"            // IWYU pragma: export
#include "packers/shelf.hpp"               // IWYU pragma: export
#include "packers/skyline.hpp"             // IWYU pragma: export
#include "packers/sleator.hpp"             // IWYU pragma: export
#include "precedence/dc.hpp"               // IWYU pragma: export
#include "precedence/level_pack.hpp"       // IWYU pragma: export
#include "precedence/list_schedule.hpp"    // IWYU pragma: export
#include "precedence/shelf_convert.hpp"    // IWYU pragma: export
#include "precedence/uniform_shelf.hpp"    // IWYU pragma: export
#include "release/aptas.hpp"               // IWYU pragma: export
#include "release/baselines.hpp"           // IWYU pragma: export
#include "release/config_lp.hpp"           // IWYU pragma: export
#include "release/configurations.hpp"      // IWYU pragma: export
#include "release/integralize.hpp"         // IWYU pragma: export
#include "release/release_rounding.hpp"    // IWYU pragma: export
#include "release/width_grouping.hpp"      // IWYU pragma: export
#include "service/canonical.hpp"           // IWYU pragma: export
#include "service/net/client.hpp"          // IWYU pragma: export
#include "service/net/server.hpp"          // IWYU pragma: export
#include "service/net/timer_wheel.hpp"     // IWYU pragma: export
#include "service/solver_service.hpp"      // IWYU pragma: export
#include "util/assert.hpp"                 // IWYU pragma: export
#include "util/fault_injection.hpp"        // IWYU pragma: export
#include "util/float_eq.hpp"               // IWYU pragma: export
#include "util/net.hpp"                    // IWYU pragma: export
#include "util/parse_num.hpp"              // IWYU pragma: export
#include "util/rng.hpp"                    // IWYU pragma: export
#include "util/stopwatch.hpp"              // IWYU pragma: export
#include "util/table.hpp"                  // IWYU pragma: export
#include "util/thread_pool.hpp"            // IWYU pragma: export
