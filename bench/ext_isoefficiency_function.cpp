// Extension experiment: the measured isoefficiency *function* W(k) —
// the workload needed to hold E = E0 as the pool grows — for CENTRAL,
// LOWEST, and the HIER extension.  The paper's reference [1] defines
// scalability by how fast W(k) must grow; a log-log slope of 1 is the
// ideal (linear isoefficiency), larger means the manager consumes the
// growth.

#include <iostream>
#include <sstream>

#include "common.hpp"
#include "core/isoefficiency_function.hpp"
#include "rms/scenario.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  scal::bench::reject_arguments(argc, argv);
  using namespace scal;
  using util::Table;

  grid::GridConfig base;
  base.topology.nodes = bench::fast_mode() ? 100 : 150;
  base.horizon = 800.0;
  base.workload.mean_interarrival = 0.55;
  base.seed = 42;

  core::IsoefficiencyFunctionConfig fc;
  fc.scale_factors = bench::fast_mode() ? std::vector<double>{1, 2}
                                        : std::vector<double>{1, 2, 3, 4};
  fc.tolerance = 0.01;
  fc.max_bisection_steps = 10;

  // Step 1 analog: pick e0 as the base system's efficiency at nominal
  // load, so multiplier 1 is the natural anchor.
  base.rms = grid::RmsKind::kLowest;
  fc.e0 = Scenario(base).run().efficiency() - 0.03;  // bisectable from above

  std::cout << "ext_isoefficiency_function: workload W(k) holding E = "
            << fc.e0 << "\n(multiplier is relative to proportional-in-k "
            << "scaling; log-log slope 1 = ideal)\n\n";

  Table table({"RMS", "m(k=1)", "m(k=2)", "m(kmax)", "loglog slope",
               "converged"});
  for (const grid::RmsKind kind :
       {grid::RmsKind::kCentral, grid::RmsKind::kLowest,
        grid::RmsKind::kHierarchical}) {
    base.rms = kind;
    const auto f = core::measure_isoefficiency_function(base, fc);
    std::size_t converged = 0;
    for (const auto& p : f.points) converged += p.converged ? 1 : 0;
    std::ostringstream conv;
    conv << converged << '/' << f.points.size();
    table.add_row({
        grid::to_string(kind),
        Table::fixed(f.points.front().workload_multiplier, 2),
        Table::fixed(f.points.size() > 1
                         ? f.points[1].workload_multiplier
                         : 0.0,
                     2),
        Table::fixed(f.points.back().workload_multiplier, 2),
        Table::fixed(f.loglog_slope, 3),
        conv.str(),
    });
  }
  table.print(std::cout);
  std::cout << "\nA manager that eats the growth needs a shrinking "
               "multiplier (slope < 1);\na scalable one holds the "
               "multiplier flat (slope ~ 1).\n";
  return 0;
}
