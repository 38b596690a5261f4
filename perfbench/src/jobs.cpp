#include "jobs.hpp"

#include <memory>

#include "scenario/runner.hpp"
#include "workload/driver.hpp"

namespace perfbench {

namespace {

// The seed mix and event budget run_experiment and run_scenario use.
constexpr std::uint64_t kRunnerSeedMix = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kEventBudget = 500'000'000ULL;

/// Times the three phases of a job around caller-supplied steps.
class PhaseClock {
 public:
  PhaseClock(const JobHooks& hooks, JobTiming& timing)
      : hooks_(hooks), timing_(timing) {
    timing_.rss_before = rss_bytes();
    t_ = now_s();
    open("setup");
  }

  /// Ends setup; starts attributing the run to layers.
  void run_begins(mra::algo::AllocationSystem& system) {
    timing_.setup_s = close();
    timing_.sites = static_cast<std::uint64_t>(system.num_sites());
    timing_.rss_built = rss_bytes();
    t_ = now_s();
    open("run");
    if (hooks_.observer != nullptr) hooks_.observer->begin_run(system);
  }

  void run_ends(mra::algo::AllocationSystem& system) {
    if (hooks_.observer != nullptr) hooks_.observer->end_run();
    timing_.run_s = close();
    timing_.events = system.simulator().events_processed();
    timing_.queue_slots = system.simulator().queue_capacity();
    timing_.rss_end = rss_bytes();
    t_ = now_s();
    open("summarize");
  }

  void done() { timing_.summarize_s = close(); }

 private:
  void open(const char* name) {
    if (hooks_.spans != nullptr) span_ = hooks_.spans->begin(name);
  }
  double close() {
    if (hooks_.spans != nullptr) hooks_.spans->end(span_);
    const double t = now_s();
    const double dt = t - t_;
    t_ = t;
    return dt;
  }

  const JobHooks& hooks_;
  JobTiming& timing_;
  double t_ = 0.0;
  std::size_t span_ = 0;
};

}  // namespace

mra::experiment::ExperimentResult run_experiment_job(
    const mra::experiment::ExperimentConfig& config, const JobHooks& hooks,
    JobTiming& timing) {
  PhaseClock clock(hooks, timing);
  auto system = mra::algo::AllocationSystem::create(config.system);
  system->start();
  if (hooks.observer != nullptr) hooks.observer->attach(*system);
  mra::workload::WorkloadRunner runner(*system, config.workload,
                                       config.system.seed ^ kRunnerSeedMix,
                                       config.size_buckets);
  runner.collector().set_keep_records(config.keep_records);
  auto& sim = system->simulator();
  sim.set_event_budget(kEventBudget);
  runner.start();
  clock.run_begins(*system);

  sim.run(config.warmup);
  runner.collector().reset(sim.now());
  system->network().reset_stats();
  sim.run(config.warmup + config.measure);
  clock.run_ends(*system);

  mra::experiment::ExperimentResult result = mra::experiment::summarize(
      *system, runner.collector(), config.keep_records);
  result.phi = config.workload.phi;
  result.rho = config.workload.rho;
  clock.done();
  return result;
}

mra::experiment::ExperimentResult run_scenario_job(
    const mra::scenario::ScenarioSpec& spec, mra::algo::Algorithm algorithm,
    const JobHooks& hooks, JobTiming& timing) {
  PhaseClock clock(hooks, timing);
  mra::scenario::ScenarioSpec s = spec;
  s.system.algorithm = algorithm;
  s.validate();
  auto system = mra::algo::AllocationSystem::create(s.system);
  system->start();
  if (hooks.observer != nullptr) hooks.observer->attach(*system);
  mra::scenario::ScenarioRunner runner(*system, s,
                                       s.system.seed ^ kRunnerSeedMix,
                                       /*size_buckets=*/6, nullptr);
  auto& sim = system->simulator();
  sim.set_event_budget(kEventBudget);
  runner.start();
  clock.run_begins(*system);

  sim.run(s.warmup);
  runner.collector().reset(sim.now());
  system->network().reset_stats();
  sim.run(s.warmup + s.measure);
  clock.run_ends(*system);

  mra::experiment::ExperimentResult result =
      mra::experiment::summarize(*system, runner.collector(), false);
  result.phi = s.workload.phi;
  result.rho = s.workload.rho;
  clock.done();
  return result;
}

void add_core_metrics(PassResult& out, const std::vector<JobTiming>& timings) {
  const JobTiming& first = timings.front();
  const auto first_sites = static_cast<double>(first.sites);
  double setup = 0.0;
  double sites = 0.0;
  for (const JobTiming& t : timings) {
    setup += t.setup_s;
    sites += static_cast<double>(t.sites);
  }
  out.metrics["core.bytes_per_site_built"] =
      (first.rss_built - first.rss_before) / first_sites;
  out.metrics["core.bytes_per_site_grown"] =
      (first.rss_end - first.rss_built) / first_sites;
  out.metrics["core.setup_ns_per_site"] = setup * 1e9 / sites;
}

void add_phase_shares(PassResult& out, const std::vector<JobTiming>& timings,
                      const LayerObserver& observer, double traced_wall_s) {
  double setup = 0.0;
  double run = 0.0;
  double summarize = 0.0;
  for (const JobTiming& t : timings) {
    setup += t.setup_s;
    run += t.run_s;
    summarize += t.summarize_s;
  }
  double layers = 0.0;
  for (double s : observer.seconds) layers += s;
  const double other = traced_wall_s - setup - run - summarize;
  out.metrics["core.setup_share"] = setup / traced_wall_s;
  out.metrics["experiment.summarize_share"] = summarize / traced_wall_s;
  out.metrics["obs.other_share"] = other / traced_wall_s;
  out.metrics["obs.share_sum"] =
      (layers + setup + summarize + other) / traced_wall_s;
}

}  // namespace perfbench
