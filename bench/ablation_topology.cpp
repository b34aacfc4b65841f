// Ablation: sensitivity of the scalability conclusions to the Mercator
// substitute.  The paper extracted topologies from Mercator Internet
// maps; we generate them.  If the CENTRAL-vs-LOWEST contrast held only
// on one generator family, the reproduction would be fragile — so this
// bench repeats a compressed Case 1 sweep on three different topology
// models and compares the fitted g(k) slopes.

#include <iostream>

#include "common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  scal::bench::reject_arguments(argc, argv);
  using namespace scal;
  using util::Table;

  core::ProcedureConfig procedure =
      bench::procedure_for(core::ScalingCase::case1_network_size());
  procedure.scale_factors = {1, 2, 3, 4};
  procedure.tuner.evaluations = bench::fast_mode() ? 4 : 10;
  procedure.warm_evaluations = bench::fast_mode() ? 3 : 6;

  const net::TopologyKind kinds[] = {
      net::TopologyKind::kPreferentialAttachment,
      net::TopologyKind::kTransitStub,
      net::TopologyKind::kWaxman,
  };

  std::cout << "Ablation: topology generator sensitivity (Case 1, "
               "CENTRAL vs LOWEST, k = 1..4)\n\n";
  Table table({"topology", "RMS", "overall dg/dk", "scalable through k",
               "G(1)", "G(4)"});
  for (const net::TopologyKind kind : kinds) {
    grid::GridConfig base = bench::case1_base();
    base.topology.kind = kind;
    procedure.tuner.e0 = bench::calibrate_e0(base, procedure.scase, 2.0);
    const auto results = core::measure_all(
        base, {grid::RmsKind::kCentral, grid::RmsKind::kLowest}, procedure);
    for (const auto& r : results) {
      const auto report = core::analyze(r);
      table.add_row({
          net::to_string(kind),
          grid::to_string(r.rms),
          Table::fixed(report.overall_slope, 3),
          Table::fixed(report.scalable_through, 0),
          Table::fixed(report.G.front(), 1),
          Table::fixed(report.G.back(), 1),
      });
    }
  }
  table.print(std::cout);
  std::cout << "\nThe CENTRAL-vs-LOWEST slope gap should survive every "
               "generator family; absolute\nG values shift with path "
               "lengths, the ordering must not.\n";
  return 0;
}
