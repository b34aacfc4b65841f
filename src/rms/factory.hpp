#pragma once
// The policy factory: maps an RMS kind to its scheduler implementation.
// To build or run a managed grid, use the scal::Scenario facade
// (rms/scenario.hpp), which wires this factory in.

#include "grid/system.hpp"

namespace scal::rms {

/// Factory creating policy schedulers of the given kind.
grid::SchedulerFactory scheduler_factory(grid::RmsKind kind);

}  // namespace scal::rms
