// paper-sweep: the Fig. 5 grid (N=32, M=80, γ=0.6 ms, φ ladder 1..80,
// five series, ρ=5 and ρ=0.5: 110 closed-loop simulations) plus the
// registry's zipf-hot and bursty scenarios under all six algorithms, all at
// the figure benches' --quick window, run serially on one thread. This is
// what a user runs to reproduce the paper; the two registry scenarios add
// skewed popularity and bursty arrivals over the same protocol and engine
// layers.
#include <algorithm>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "jobs.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mra::algo::Algorithm;
using mra::experiment::ExperimentResult;
using mra::experiment::LabeledResult;

const std::vector<int> kPhis = {1, 2, 4, 8, 12, 16, 20, 28, 40, 56, 80};
const std::vector<Algorithm> kSeries = {
    Algorithm::kIncremental, Algorithm::kBouabdallahLaforest,
    Algorithm::kLassWithoutLoan, Algorithm::kLassWithLoan,
    Algorithm::kCentralSharedMemory};
const std::vector<std::string> kScenarios = {"zipf-hot", "bursty"};
/// The figure benches' --quick window. At the full window (2 s + 20 s) one
/// pass takes ~9 s, and host-speed swings on a shared host then decide the
/// median of the two or three passes a run holds; many short passes give a
/// median that rejects them.
const mra::sim::SimDuration kWarmup = mra::sim::from_ms(500);
const mra::sim::SimDuration kMeasure = mra::sim::from_ms(4000);

struct Job {
  std::string label;
  bool is_scenario = false;
  mra::experiment::ExperimentConfig config;  ///< Fig. 5 jobs
  mra::scenario::ScenarioSpec spec;          ///< registry jobs
  Algorithm algorithm = Algorithm::kLassWithLoan;
};

/// The figure's own configuration (bench/fig5_use_rate --quick).
std::vector<Job> make_jobs(std::uint64_t seed) {
  std::vector<Job> jobs;
  for (const auto& [label, rho] :
       {std::pair<const char*, double>{"medium", 5.0}, {"high", 0.5}}) {
    for (int phi : kPhis) {
      for (Algorithm alg : kSeries) {
        Job j;
        j.label = label;
        j.algorithm = alg;
        auto& cfg = j.config;
        cfg.system.algorithm = alg;
        cfg.system.num_sites = 32;
        cfg.system.num_resources = 80;
        cfg.system.seed = seed;
        cfg.system.network_latency = mra::sim::from_ms(0.6);
        cfg.workload = mra::workload::medium_load(phi, 80);
        cfg.workload.rho = rho;
        cfg.warmup = kWarmup;
        cfg.measure = kMeasure;
        jobs.push_back(std::move(j));
      }
    }
  }
  for (const std::string& name : kScenarios) {
    for (Algorithm alg : mra::algo::all_algorithms()) {
      Job j;
      j.label = name;
      j.is_scenario = true;
      j.spec = mra::scenario::find_scenario(name);
      j.spec.system.seed = seed;
      j.spec.warmup = kWarmup;
      j.spec.measure = kMeasure;
      j.algorithm = alg;
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

std::string job_name(const Job& j) {
  std::string name = j.label + "/" + mra::algo::cli_name(j.algorithm);
  if (!j.is_scenario) name += "/phi" + std::to_string(j.config.workload.phi);
  return name;
}

struct SweepPass {
  std::vector<LabeledResult> results;
  std::vector<JobTiming> timings;
  std::string json;
  double wall_s = 0.0;
  double rss_before = 0.0;
  double rss_after = 0.0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

SweepPass run_pass(const std::vector<Job>& jobs, LayerObserver* observer,
                   SpanLog* spans) {
  SweepPass pass;
  pass.rss_before = rss_bytes();
  const double t0 = now_s();
  {
    ScopedSpan workload(spans, "paper-sweep");
    for (const Job& j : jobs) {
      ScopedSpan job(spans, job_name(j));
      const JobHooks hooks{observer, spans};
      JobTiming timing;
      try {
        ExperimentResult r =
            j.is_scenario ? run_scenario_job(j.spec, j.algorithm, hooks, timing)
                          : run_experiment_job(j.config, hooks, timing);
        pass.results.push_back(LabeledResult{j.label, std::move(r)});
      } catch (const std::exception& e) {
        ++pass.failed;
        pass.errors.push_back(job_name(j) + ": " + e.what());
      }
      pass.timings.push_back(timing);
    }
    pass.json = results_json("perfbench-paper-sweep", pass.results);
  }
  pass.wall_s = now_s() - t0;
  pass.rss_after = rss_bytes();
  return pass;
}

/// The library's own path: run_experiment / run_scenario per job, each
/// timed (the serial reference behind experiment.job_s_*).
SweepPass run_reference(const std::vector<Job>& jobs) {
  SweepPass pass;
  for (const Job& j : jobs) {
    const double t = now_s();
    try {
      ExperimentResult r =
          j.is_scenario ? mra::scenario::run_scenario(j.spec, j.algorithm)
                        : mra::experiment::run_experiment(j.config);
      pass.results.push_back(LabeledResult{j.label, std::move(r)});
    } catch (const std::exception& e) {
      ++pass.failed;
      pass.errors.push_back(job_name(j) + ": " + e.what());
    }
    JobTiming timing;
    timing.run_s = now_s() - t;
    pass.timings.push_back(timing);
  }
  pass.json = results_json("perfbench-paper-sweep", pass.results);
  return pass;
}

void add_end_to_end(PassResult& out, const SweepPass& pass) {
  double setup = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t sites = 0;
  for (const auto& lr : pass.results) completed += lr.result.requests_completed;
  for (const JobTiming& t : pass.timings) {
    setup += t.setup_s;
    sites += t.sites;
  }
  const double jobs = static_cast<double>(pass.timings.size());
  auto& m = out.metrics;
  m["wall_s"] = pass.wall_s;
  m["setup_s"] = setup;
  m["requests_per_s"] = static_cast<double>(completed) / (pass.wall_s - setup);
  m["jobs_per_s"] = jobs / pass.wall_s;
  m["runs_per_s"] = jobs / pass.wall_s;
  m["peak_rss_mb"] = peak_rss_bytes() / (1024.0 * 1024.0);
  m["bytes_per_site"] =
      (pass.rss_after - pass.rss_before) / static_cast<double>(sites);
  add_simulated_metrics(out, pass.results, Rows::kLassWithLoan);
}

}  // namespace

PassResult run_paper_sweep(const Options& opts) {
  const std::vector<Job> jobs = make_jobs(opts.seed);
  PassResult out;
  out.attempted = jobs.size();

  if (opts.mode == Mode::kReference) {
    const SweepPass ref = run_reference(jobs);
    out.hash = fnv1a_hex(ref.json);
    out.failed = ref.failed;
    out.errors = ref.errors;
    return out;
  }

  std::optional<HostSpeedProbe> probe;
  if (opts.mode == Mode::kRun) probe.emplace();
  const SweepPass plain = run_pass(jobs, nullptr, nullptr);
  const double speed = probe ? probe->speed() : 1.0;
  probe.reset();
  out.hash = fnv1a_hex(plain.json);
  out.failed = plain.failed;
  out.errors = plain.errors;
  if (opts.mode == Mode::kRun) {
    add_end_to_end(out, plain);
    normalize_timing(out, speed);
    return out;
  }

  // Traced: the same program with the observer and spans attached, then the
  // library's path; all three must produce the same bytes.
  SpanLog spans;
  LayerObserver observer;
  const SweepPass traced = run_pass(jobs, &observer, &spans);
  const SweepPass ref = run_reference(jobs);
  if (traced.json != plain.json || ref.json != plain.json) {
    out.errors.push_back(
        "traced or reference output differs from the untraced pass");
    out.failed = out.attempted;
  }
  if (!opts.trace_out.empty()) {
    spans.write_chrome_trace(opts.trace_out, "perfbench paper-sweep");
  }

  std::uint64_t events = 0;
  std::uint64_t slots = 0;
  for (const JobTiming& t : traced.timings) {
    events += t.events;
    slots = std::max(slots, t.queue_slots);
  }
  add_layer_metrics(out, observer, events, slots, traced.wall_s);
  add_algo_result_metrics(out, traced.results);
  add_calibration_metrics(out, 32, opts.seed);
  add_phase_shares(out, traced.timings, observer, traced.wall_s);

  add_core_metrics(out, plain.timings);
  std::vector<double> job_s;
  for (const JobTiming& t : ref.timings) job_s.push_back(t.run_s);
  add_reference_job_metrics(out, job_s);
  out.metrics["obs.trace_overhead"] = traced.wall_s / plain.wall_s;
  return out;
}

}  // namespace perfbench
