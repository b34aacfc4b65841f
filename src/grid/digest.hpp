#pragma once
// 128-bit structural digest of a GridConfig: a deterministic fingerprint
// of every field that affects simulation output.  Two configs with equal
// digests produce bit-identical runs (doubles are hashed by bit pattern,
// so the comparison is exact, not approximate).  Consumers:
//   - opt::EvalKey — the tuner's evaluation cache pins the whole config
//     (minus the search point, which is keyed separately) this way, so
//     caches can be shared across tunes, RMS kinds, and scale factors
//     without any risk of cross-contamination;
//   - GridSystem::reset_compatible — a built system can be rewound and
//     re-run under a new config iff the digests excluding the tuning
//     enablers and the rate fields match (exactly what reset()
//     re-applies), so Case-2-style service-rate sweeps keep their
//     simulation sessions warm across scale points.

#include <array>
#include <cstdint>

#include "grid/config.hpp"

namespace scal::grid {

/// Digest every simulation-affecting field of `config`; the telemetry
/// handle is excluded (observational only).  `include_tuning = false`
/// skips the scaling enablers; `include_rates = false` additionally
/// skips the resource service rate and the workload's mean
/// interarrival — the rate-only deltas the reset path re-applies (the
/// arrival stream and per-resource rates are re-derived from the same
/// substreams, so a rate-only reset stays bit-identical to a fresh
/// build).  Both excluded yields the structural identity
/// reset_compatible keys on.
std::array<std::uint64_t, 2> config_digest(const GridConfig& config,
                                           bool include_tuning = true,
                                           bool include_rates = true);

/// Digest of exactly the inputs that shape the arrival stream (workload
/// model, source spec, seed, horizon, cluster count): the
/// workload::ArrivalCache key.  Equal digests guarantee the generated
/// job vectors are bit-identical, so memoized streams can be shared
/// across systems, sessions, and tuner lanes.
std::array<std::uint64_t, 2> workload_digest(const GridConfig& config);

}  // namespace scal::grid
