// The benchmark's workloads. Each runs in its own process: set-up
// (timed as setup_s), a timed phase of closed-loop ops, then output
// checks outside the timed region. The untraced run reports the
// end-to-end metrics; the traced run reports the per-layer metrics.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"

namespace raq::perfbench {

[[nodiscard]] std::vector<std::string> workload_names();

/// Algorithm 1 builds over a few networks and field ages.
void run_lifetime(const Options& options, Report& report);

/// Closed-loop socket serving: edge-closed, fleet-aging, pipeline-recut.
void run_serving(const Options& options, Report& report);

}  // namespace raq::perfbench
