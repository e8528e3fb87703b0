// Entry points of the four workloads. A pass sets up the workload, measures
// it for Options::seconds and checks the program's outputs against the
// reference, then sets it up again until it has kSetupReps set-up times
// (more on node-serve, whose set-up is short); a traced pass also fills the
// per-layer metrics.
#pragma once

#include "common.hpp"

namespace pb {

/// alg1-insert (general = false) and alg2-update (general = true).
Result run_kernel(const Options& o, bool traced, bool general);
/// node-ingest (serve = false) and node-serve (serve = true).
Result run_node(const Options& o, bool traced, bool serve);

}  // namespace pb
