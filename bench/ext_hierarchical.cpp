// Extension experiment (paper future-work item (a)): apply the
// scalability framework to a complex (two-level) RMS architecture.
// Runs the Case 1 sweep for CENTRAL, LOWEST, and HIER — the hypothesis
// is that the hierarchy keeps CENTRAL's low base overhead while scaling
// like a distributed design, because root decisions aggregate over
// clusters instead of resources.

#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  scal::bench::reject_arguments(argc, argv);
  using namespace scal;
  auto procedure =
      bench::procedure_for(core::ScalingCase::case1_network_size());
  const grid::GridConfig base = bench::case1_base();
  procedure.tuner.e0 = bench::calibrate_e0(
      base, procedure.scase,
      procedure.scale_factors[procedure.scale_factors.size() / 2]);

  std::cout << "ext_hierarchical\nCase 1 sweep: CENTRAL vs LOWEST vs the "
               "HIER two-level extension\n\n";

  const auto results = core::measure_all(
      base,
      {grid::RmsKind::kCentral, grid::RmsKind::kLowest,
       grid::RmsKind::kHierarchical},
      procedure);

  std::cout << core::render_overhead_chart(results, "ext_hierarchical")
            << "\n";
  for (const auto& r : results) {
    std::cout << core::render_case_table(r) << "\n";
  }
  std::cout << "Summary\n" << core::render_summary_table(results) << "\n";
  core::write_case_csv(results,
                       bench::csv_dir() + "/ext_hierarchical.csv");
  return 0;
}
