// explore-fuzz: the explorer's seeded fuzz sweep (every registry scenario
// at the explorer's quick windows x six algorithms x 3 seeds, delay-bounded
// perturbation, the full oracle set on every run), then the exhaustive
// DPOR passes on the pinned tiny configs (tiny_exhaustive_spec, NT 3x2,
// the Chandy-Misra ring 4x2). The only workload that runs the check/
// oracles, the network's observer path and the simulator's commuting run
// loop, so an engine change that speeds up the plain loop at their expense
// shows here.
//
// The sweep calls check::run_checked_scenario per case over exactly the
// case list check::explore enumerates (seed base+i, delay bound drawn from
// the (seed, case) meta-stream), so explore() itself is the reference path.
// Each case also runs once more through a plain scenario run with the same
// perturbation and no monitor: the "twin" behind check.oracle_overhead, the
// sim/net/algo split (the explorer's own runs hold the single observer
// seam) and the simulated use-rate and waiting metrics.
#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/explore.hpp"
#include "scenario/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mra::algo::Algorithm;
using mra::experiment::LabeledResult;

constexpr int kSeedsPerCase = 3;
const mra::sim::SimDuration kDelayBound = mra::sim::from_ms(2.0);

struct FuzzCase {
  const mra::scenario::ScenarioSpec* spec = nullptr;
  Algorithm algorithm = Algorithm::kLassWithLoan;
  std::uint64_t seed = 0;
  mra::sim::SimDuration delay = 0;
};

/// The registry at the explorer's --quick windows.
std::vector<mra::scenario::ScenarioSpec> quick_scenarios() {
  std::vector<mra::scenario::ScenarioSpec> specs = mra::scenario::registry();
  for (auto& s : specs) {
    s.warmup = mra::sim::from_ms(200);
    s.measure = mra::sim::from_ms(800);
  }
  return specs;
}

/// check::explore's case list, in its order.
std::vector<FuzzCase> make_cases(
    const std::vector<mra::scenario::ScenarioSpec>& specs,
    std::uint64_t base_seed) {
  std::vector<FuzzCase> cases;
  for (const auto& spec : specs) {
    for (Algorithm alg : mra::algo::all_algorithms()) {
      const std::uint64_t case_hash = std::hash<std::string>{}(
          spec.name + ":" + mra::algo::cli_name(alg));
      for (int i = 0; i < kSeedsPerCase; ++i) {
        FuzzCase c;
        c.spec = &spec;
        c.algorithm = alg;
        c.seed = base_seed + static_cast<std::uint64_t>(i);
        mra::sim::Rng meta(c.seed ^ case_hash);
        c.delay = meta.uniform_int(0, kDelayBound);
        cases.push_back(c);
      }
    }
  }
  return cases;
}

mra::scenario::ScenarioSpec case_spec(const FuzzCase& c) {
  mra::scenario::ScenarioSpec s = *c.spec;
  s.system.seed = c.seed;
  s.system.latency_delay_bound = c.delay;
  return s;
}

std::string case_name(const FuzzCase& c) {
  return c.spec->name + "/" + mra::algo::cli_name(c.algorithm) + "/s" +
         std::to_string(c.seed);
}

/// The exhaustive passes, as mra_explore --exhaustive runs them.
std::vector<mra::check::ExploreReport> run_exhaustive(SpanLog* spans) {
  const mra::check::MonitorConfig mc;
  const mra::check::DporConfig dpor;
  std::vector<mra::check::ExploreReport> reports;
  {
    ScopedSpan span(spans, "exhaustive tiny lass-loan");
    mra::scenario::ScenarioSpec spec = mra::check::tiny_exhaustive_spec(3, 2);
    if (spec.system.latency_quantum == 0) {
      spec.system.latency_quantum = spec.system.network_latency;
    }
    reports.push_back(mra::check::explore_scenario_exhaustive(
        spec, Algorithm::kLassWithLoan, mc, dpor));
  }
  {
    ScopedSpan span(spans, "exhaustive nt 3x2");
    mra::check::MutexExploreConfig cfg;
    cfg.monitor = mc;
    cfg.protocols = {mra::check::MutexProtocol::kNaimiTrehel};
    cfg.num_sites = 3;
    cfg.requests_per_site = 2;
    reports.push_back(mra::check::explore_mutex_exhaustive(cfg, dpor));
  }
  {
    ScopedSpan span(spans, "exhaustive cm-ring 4x2");
    mra::check::CmRingExploreConfig cfg;
    cfg.monitor = mc;
    cfg.num_sites = 4;
    cfg.requests_per_site = 2;
    reports.push_back(mra::check::explore_cm_ring_exhaustive(cfg, dpor));
  }
  return reports;
}

/// The coverage and violation report the workload hashes: what explore()
/// and the exhaustive entry points report.
std::string report_text(std::uint64_t runs, std::uint64_t violating_runs,
                        const std::vector<mra::check::ExploreReport>& ex) {
  std::string text = "fuzz runs=" + std::to_string(runs) +
                     " violating=" + std::to_string(violating_runs) + "\n";
  for (const auto& r : ex) {
    text += "exhaustive schedules=" + std::to_string(r.schedules_executed) +
            " choice_points=" + std::to_string(r.choice_points) +
            " pruned=" + std::to_string(r.orderings_pruned) +
            " complete=" + std::to_string(r.exhaustive_complete) +
            " truncated=" + std::to_string(r.exhaustive_truncated) +
            " violating=" + std::to_string(r.found.size()) + "\n";
  }
  return text;
}

struct ExplorePass {
  std::string report;
  double wall_s = 0.0;      ///< fuzz sweep + exhaustive passes
  double fuzz_s = 0.0;
  double first_run_s = 0.0;  ///< launch until the first fuzz run returned
  double rss_before = 0.0;
  double rss_after = 0.0;
  std::uint64_t runs = 0;
  std::uint64_t violations = 0;
  std::uint64_t requests = 0;
  std::uint64_t schedules = 0;
  std::uint64_t pruned = 0;
  std::uint64_t sites = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  // Oracle-free twins.
  std::vector<LabeledResult> twins;
  std::vector<JobTiming> twin_timings;
  double twin_s = 0.0;
};

/// The timed part: the fuzz sweep and the exhaustive passes.
ExplorePass run_pass(const std::vector<FuzzCase>& cases, SpanLog* spans) {
  ExplorePass pass;
  std::uint64_t violating_runs = 0;
  pass.rss_before = rss_bytes();
  const double t0 = now_s();
  std::vector<mra::check::ExploreReport> exhaustive;
  {
    ScopedSpan workload(spans, "explore-fuzz");
    {
      ScopedSpan fuzz(spans, "fuzz sweep");
      for (const FuzzCase& c : cases) {
        ScopedSpan run(spans, case_name(c));
        mra::check::CheckOptions copt;
        copt.monitor.stop_on_first = true;
        const mra::check::CheckedRun r =
            mra::check::run_checked_scenario(case_spec(c), c.algorithm, copt);
        if (pass.runs == 0) pass.first_run_s = now_s() - t0;
        ++pass.runs;
        pass.sites += static_cast<std::uint64_t>(c.spec->system.num_sites);
        pass.requests += r.trace.events.size();
        if (!r.violations.empty() || !r.quiescent) {
          ++violating_runs;
          ++pass.failed;
          pass.violations += r.violations.size();
          pass.errors.push_back(case_name(c) + ": " +
                                (r.violations.empty()
                                     ? std::string("not quiescent")
                                     : r.violations.front().oracle));
        }
      }
      pass.fuzz_s = now_s() - t0;
    }
    exhaustive = run_exhaustive(spans);
  }
  pass.wall_s = now_s() - t0;
  pass.rss_after = rss_bytes();
  for (const auto& r : exhaustive) {
    pass.schedules += r.schedules_executed;
    pass.pruned += r.orderings_pruned;
    pass.violations += r.found.size();
    pass.failed += r.found.size();
  }
  pass.report = report_text(pass.runs, violating_runs, exhaustive);
  return pass;
}

/// Every case once more without the monitor (untimed by wall_s).
void run_twins(const std::vector<FuzzCase>& cases, LayerObserver* observer,
               SpanLog* spans, ExplorePass& pass) {
  const double twins0 = now_s();
  {
    ScopedSpan twins(spans, "oracle-free twins");
    for (const FuzzCase& c : cases) {
      ScopedSpan job(spans, case_name(c));
      JobTiming timing;
      pass.twins.push_back(LabeledResult{
          c.spec->name, run_scenario_job(case_spec(c), c.algorithm,
                                         JobHooks{observer, spans}, timing)});
      pass.twin_timings.push_back(timing);
    }
  }
  pass.twin_s = now_s() - twins0;
}

}  // namespace

PassResult run_explore_fuzz(const Options& opts) {
  const std::vector<mra::scenario::ScenarioSpec> specs = quick_scenarios();
  const std::vector<FuzzCase> cases = make_cases(specs, opts.seed);
  PassResult out;

  if (opts.mode == Mode::kReference) {
    mra::check::ExploreConfig cfg;
    cfg.scenarios = specs;
    cfg.algorithms = mra::algo::all_algorithms();
    cfg.seeds_per_case = kSeedsPerCase;
    cfg.base_seed = opts.seed;
    cfg.delay_bound = kDelayBound;
    cfg.threads = 1;
    const mra::check::ExploreReport fuzz = mra::check::explore(cfg);
    const auto exhaustive = run_exhaustive(nullptr);
    out.hash =
        fnv1a_hex(report_text(fuzz.runs, fuzz.violating_runs, exhaustive));
    out.attempted = fuzz.runs;
    out.failed = fuzz.violating_runs;
    for (const auto& r : exhaustive) {
      out.attempted += r.schedules_executed;
      out.failed += r.found.size();
    }
    return out;
  }

  std::optional<HostSpeedProbe> probe;
  if (opts.mode == Mode::kRun) probe.emplace();
  ExplorePass plain = run_pass(cases, nullptr);
  const double speed = probe ? probe->speed() : 1.0;
  probe.reset();
  run_twins(cases, nullptr, nullptr, plain);
  out.hash = fnv1a_hex(plain.report);
  out.attempted = plain.runs + plain.schedules;
  out.failed = plain.failed;
  out.errors = plain.errors;
  auto& m = out.metrics;
  if (opts.mode == Mode::kRun) {
    const auto ops = static_cast<double>(out.attempted);
    m["wall_s"] = plain.wall_s;
    m["setup_s"] = plain.first_run_s;
    m["requests_per_s"] = static_cast<double>(plain.requests) / plain.fuzz_s;
    m["jobs_per_s"] = ops / plain.wall_s;
    m["runs_per_s"] = ops / plain.wall_s;
    m["peak_rss_mb"] = peak_rss_bytes() / (1024.0 * 1024.0);
    m["bytes_per_site"] =
        (plain.rss_after - plain.rss_before) / static_cast<double>(plain.sites);
    add_simulated_metrics(out, plain.twins, Rows::kAll);
    normalize_timing(out, speed);
    return out;
  }

  SpanLog spans;
  LayerObserver observer;
  ExplorePass traced = run_pass(cases, &spans);
  run_twins(cases, &observer, &spans, traced);
  if (traced.report != plain.report ||
      results_json("twins", traced.twins) != results_json("twins", plain.twins)) {
    out.errors.push_back("traced pass differs from the untraced pass");
    out.failed = out.attempted;
  }
  if (!opts.trace_out.empty()) {
    spans.write_chrome_trace(opts.trace_out, "perfbench explore-fuzz");
  }
  std::uint64_t events = 0;
  std::uint64_t slots = 0;
  std::vector<double> job_s;
  for (const JobTiming& t : traced.twin_timings) {
    events += t.events;
    slots = std::max(slots, t.queue_slots);
  }
  for (const JobTiming& t : plain.twin_timings) {
    job_s.push_back(t.setup_s + t.run_s + t.summarize_s);
  }
  // Layer shares are over the twin phase, the part the observer can see.
  add_layer_metrics(out, observer, events, slots, traced.twin_s);
  add_algo_result_metrics(out, traced.twins);
  add_calibration_metrics(out, 32, opts.seed);
  add_phase_shares(out, traced.twin_timings, observer, traced.twin_s);
  add_core_metrics(out, plain.twin_timings);
  add_reference_job_metrics(out, job_s);
  m["check.runs"] = static_cast<double>(plain.runs);
  m["check.violations"] = static_cast<double>(plain.violations);
  m["check.schedules"] = static_cast<double>(plain.schedules);
  m["check.pruned"] = static_cast<double>(plain.pruned);
  m["check.prune_ratio"] =
      static_cast<double>(plain.pruned) /
      static_cast<double>(plain.pruned + plain.schedules);
  m["check.oracle_overhead"] = plain.fuzz_s / plain.twin_s;
  m["obs.trace_overhead"] = (traced.wall_s + traced.twin_s) /
                            (plain.wall_s + plain.twin_s);
  return out;
}

}  // namespace perfbench
