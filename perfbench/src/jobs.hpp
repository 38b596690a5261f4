// One simulation job rebuilt from the library's public calls, with its
// phases timed from outside: setup (AllocationSystem::create + start +
// runner construction + runner start, i.e. everything before the first
// event), run (Simulator::run over warm-up and measured window) and
// summarize (experiment::summarize). The sequences mirror
// experiment::run_experiment and scenario::run_scenario call for call, so
// their results are byte-identical to the library's; the workloads check
// that against the pinned hash or the library path itself.
#pragma once

#include <cstdint>
#include <vector>

#include "experiment/experiment.hpp"
#include "harness.hpp"
#include "scenario/spec.hpp"

namespace perfbench {

struct JobTiming {
  double setup_s = 0.0;
  double run_s = 0.0;
  double summarize_s = 0.0;
  std::uint64_t events = 0;       ///< Simulator::events_processed()
  std::uint64_t queue_slots = 0;  ///< Simulator::queue_capacity()
  std::uint64_t sites = 0;
  double rss_before = 0.0;  ///< bytes, before create
  double rss_built = 0.0;   ///< bytes, after setup (before the first event)
  double rss_end = 0.0;     ///< bytes, after the run
};

/// Optional tracing of one job: an observer wired into every hook and a
/// span log receiving "setup" / "run" / "summarize" spans.
struct JobHooks {
  LayerObserver* observer = nullptr;
  SpanLog* spans = nullptr;
};

/// experiment::run_experiment, call for call.
[[nodiscard]] mra::experiment::ExperimentResult run_experiment_job(
    const mra::experiment::ExperimentConfig& config, const JobHooks& hooks,
    JobTiming& timing);

/// scenario::run_scenario(spec, algorithm), call for call.
[[nodiscard]] mra::experiment::ExperimentResult run_scenario_job(
    const mra::scenario::ScenarioSpec& spec, mra::algo::Algorithm algorithm,
    const JobHooks& hooks, JobTiming& timing);

/// Adds core.bytes_per_site_built (RSS growth over the first job's setup,
/// per site), core.bytes_per_site_grown (its further growth over the run)
/// and core.setup_ns_per_site (setup time over all sites built). Only the
/// first job counts for memory: later ones reuse the heap it grew.
void add_core_metrics(PassResult& out, const std::vector<JobTiming>& timings);

/// Adds the traced pass's phase shares: core.setup_share,
/// experiment.summarize_share, obs.other_share (host time outside every
/// job phase) and obs.share_sum. The sim/net/algo seconds come from the
/// observer and the phases from the job clocks, independently, so
/// share_sum is 1 only when the layer intervals tile the run phases.
void add_phase_shares(PassResult& out, const std::vector<JobTiming>& timings,
                      const LayerObserver& observer, double traced_wall_s);

}  // namespace perfbench
