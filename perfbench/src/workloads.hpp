// The four workloads. Each builds its inputs from Options::seed alone and
// returns one PassResult for the requested mode (see harness.hpp).
#pragma once

#include "harness.hpp"
#include "jobs.hpp"

namespace perfbench {

[[nodiscard]] PassResult run_paper_sweep(const Options& opts);
[[nodiscard]] PassResult run_touch_all(const Options& opts);
[[nodiscard]] PassResult run_fabric_grid(const Options& opts);
[[nodiscard]] PassResult run_explore_fuzz(const Options& opts);

}  // namespace perfbench
