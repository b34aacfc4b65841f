// Extension experiment: heterogeneous resource pools.  The paper
// assumes homogeneous resources; this bench measures how each policy's
// overhead and deadline success degrade as the per-resource service
// rate spread widens (same expected capacity), exposing which protocols
// depend on "load count == expected wait" and which do not.

#include <iostream>

#include "common.hpp"
#include "rms/scenario.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  scal::bench::reject_arguments(argc, argv);
  using namespace scal;
  using util::Table;

  grid::GridConfig base = bench::case1_base();
  std::cout << "Extension: resource heterogeneity (Case 1 base, "
            << base.topology.nodes << " nodes)\n"
            << "rate_i = nominal x U[1-h, 1+h]; same expected capacity\n\n";

  Table table({"RMS", "h=0 ok", "h=0.4 ok", "h=0.8 ok", "h=0 G",
               "h=0.8 G", "success drop"});
  for (const grid::RmsKind kind : bench::all_rms()) {
    base.rms = kind;
    std::vector<grid::SimulationResult> runs;
    for (const double h : {0.0, 0.4, 0.8}) {
      base.heterogeneity = h;
      runs.push_back(Scenario(base).run());
    }
    const double drop =
        runs[0].jobs_succeeded > 0
            ? 1.0 - static_cast<double>(runs[2].jobs_succeeded) /
                        static_cast<double>(runs[0].jobs_succeeded)
            : 0.0;
    table.add_row({
        grid::to_string(kind),
        std::to_string(runs[0].jobs_succeeded),
        std::to_string(runs[1].jobs_succeeded),
        std::to_string(runs[2].jobs_succeeded),
        Table::fixed(runs[0].G(), 1),
        Table::fixed(runs[2].G(), 1),
        Table::fixed(100.0 * drop, 1) + "%",
    });
  }
  table.print(std::cout);
  std::cout << "\nCount-based least-loaded placement misjudges slow "
               "machines; policies whose\ndecisions embed run-time "
               "estimates (S-I family) should degrade less.\n";
  return 0;
}
