#include "check/explore.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "algo/chandy_misra.hpp"
#include "check/mutant.hpp"
#include "experiment/sweep.hpp"
#include "mutex/naimi_trehel.hpp"
#include "mutex/ricart_agrawala.hpp"
#include "mutex/suzuki_kasami.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "scenario/runner.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace mra::check {

namespace {

/// Ends a checked run: liveness checks only after a clean drain (a stop-on-
/// first interruption leaves legitimate in-flight requests), and a tripped
/// event budget becomes a livelock violation.
void finish_run(CheckedRun& out, sim::Simulator& sim, net::Network& net,
                Monitor& monitor, bool budget_hit, std::uint64_t budget) {
  out.quiescent = !budget_hit && sim.idle();
  monitor.finalize(sim.now(), out.quiescent && monitor.ok());
  out.violations = monitor.violations();
  if (budget_hit) {
    Violation v;
    v.oracle = "livelock";
    v.at = sim.now();
    v.detail = "simulation exceeded its event budget of " +
               std::to_string(budget) + " events without quiescing";
    out.violations.push_back(std::move(v));
  }
  out.events = sim.events_processed();
  out.messages = net.total_messages();
}

/// Activates a trace's recorded mutant for the scope of a replay (no-op
/// when the name is empty or mutants are compiled out).
class ScopedMutant {
 public:
  explicit ScopedMutant(const std::string& name)
      : active_(!name.empty() && mutants_compiled_in()) {
    if (active_) set_active_mutant(mutant_from_name(name.c_str()));
  }
  ~ScopedMutant() {
    if (active_) set_active_mutant(previous_);
  }
  ScopedMutant(const ScopedMutant&) = delete;
  ScopedMutant& operator=(const ScopedMutant&) = delete;

 private:
  bool active_;
  Mutant previous_ = active_mutant();  ///< initialized before the body runs
};

}  // namespace

CheckedRun run_checked_scenario(const scenario::ScenarioSpec& spec,
                                algo::Algorithm algorithm,
                                const CheckOptions& options) {
  scenario::ScenarioSpec s = spec;
  s.system.algorithm = algorithm;
  s.validate();

  CheckedRun out;
  auto system = algo::AllocationSystem::create(s.system);
  if (options.commutation != nullptr) {
    // Before start(): the hook must see every event ever scheduled.
    system->simulator().set_commutation_hook(options.commutation);
  }
  system->start();

  MonitorConfig mc = options.monitor;
  mc.num_sites = s.system.num_sites;
  mc.num_resources = s.system.num_resources;
  Monitor monitor(mc);
  monitor.attach(*system);

  scenario::ScenarioRunner runner(*system, s,
                                  s.system.seed ^ 0x9E3779B97F4A7C15ULL,
                                  /*size_buckets=*/6,
                                  options.record_trace ? &out.trace : nullptr);

  auto& sim = system->simulator();
  sim.set_event_budget(options.event_budget);

  bool budget_hit = false;
  runner.start();
  try {
    sim.run(s.warmup + s.measure);
    if (monitor.ok()) {
      // Drain to quiescence so liveness is observable: no new requests, and
      // anything still waiting at the end is waiting forever.
      runner.stop_issuing();
      sim.run();
    }
  } catch (const sim::EventBudgetExceeded&) {
    budget_hit = true;
  }

  finish_run(out, sim, system->network(), monitor, budget_hit,
             options.event_budget);
  return out;
}

std::vector<Violation> check_replay(const scenario::RequestTrace& trace,
                                    algo::Algorithm algorithm,
                                    const MonitorConfig& monitor_cfg,
                                    std::uint64_t seed,
                                    sim::SimDuration delay_bound) {
  MonitorConfig mc = monitor_cfg;
  mc.num_sites = trace.num_sites;
  mc.num_resources = trace.num_resources;
  mc.stop_on_first = false;  // replays run to the end; they are short
  Monitor monitor(mc);

  scenario::ReplayOptions ropts;
  ropts.seed = seed;
  ropts.latency_delay_bound = delay_bound;
  ropts.observer = &monitor;

  try {
    const scenario::ReplayResult r =
        scenario::replay_trace(trace, algorithm, ropts);
    monitor.finalize(r.end_time, /*quiescent=*/true);
  } catch (const sim::EventBudgetExceeded&) {
    // replay_trace's internal budget tripped; the exception does not carry
    // the end time, so the violation reports detection at an unknown (0)
    // instant.
    std::vector<Violation> out = monitor.violations();
    Violation v;
    v.oracle = "livelock";
    v.detail = "checked replay exceeded the replayed system's event budget "
               "without quiescing";
    out.push_back(std::move(v));
    return out;
  }
  return monitor.violations();
}

const char* to_string(MutexProtocol p) {
  switch (p) {
    case MutexProtocol::kNaimiTrehel: return "nt";
    case MutexProtocol::kSuzukiKasami: return "sk";
    case MutexProtocol::kRicartAgrawala: return "ra";
  }
  return "?";
}

std::vector<MutexProtocol> all_mutex_protocols() {
  return {MutexProtocol::kNaimiTrehel, MutexProtocol::kSuzukiKasami,
          MutexProtocol::kRicartAgrawala};
}

MutexProtocol mutex_protocol_from_name(const std::string& name) {
  for (MutexProtocol p : all_mutex_protocols()) {
    if (name == to_string(p)) return p;
  }
  throw std::invalid_argument("unknown mutex protocol \"" + name +
                              "\" (valid: nt | sk | ra)");
}

scenario::ScenarioSpec tiny_exhaustive_spec(int sites, int resources) {
  scenario::ScenarioSpec s;
  s.name = "tiny-exhaustive";
  s.summary = "model-checking config: tiny windows, quantized latency grid";
  s.system.num_sites = sites;
  s.system.num_resources = resources;
  s.system.seed = 1;
  s.system.network_latency = sim::from_ms(0.6);
  // Round every latency up onto the network grid so independent deliveries
  // collide at shared instants — the commutations the explorer enumerates.
  s.system.latency_quantum = sim::from_ms(0.6);
  s.workload.num_resources = resources;
  s.workload.phi = std::min(2, resources);
  s.workload.alpha_min = sim::from_ms(0.6);
  s.workload.alpha_max = sim::from_ms(1.2);
  s.workload.cs_jitter = 0.0;
  s.workload.rho = 1.0;  // high load: requests overlap, grants contend
  s.warmup = sim::from_ms(5);
  s.measure = sim::from_ms(30);
  return s;
}

// The explorer driver. Every entry point builds one Harness per target (a
// scenario under one algorithm, a mutex protocol, the CM ring) and hands
// them to one fuzz loop or one exhaustive loop; both end in the same
// describe, replay, (minimise) and save tail.

namespace {

constexpr sim::SimDuration kSubstrateLatency = sim::from_ms(0.6);
constexpr int kSubstrateMinimizeBudget = 48;  // replay attempts per repro

/// What differs between the explorer's targets: how a run is made, and how
/// a finding is labelled and replayed.
struct Harness {
  std::string scenario;    ///< FoundViolation::scenario
  std::string algorithm;   ///< FoundViolation::algorithm
  std::string file_label;  ///< repro file stem
  std::uint64_t salt = 0;  ///< fuzz meta-stream salt of the delay draw
  /// One recorded run. Fuzz mode calls it from sweep pool threads with no
  /// hook; exhaustive mode passes the DPOR scheduler.
  std::function<CheckedRun(std::uint64_t seed, sim::SimDuration delay,
                           sim::CommutationHook* hook)>
      run;
  /// Checked replay of a candidate trace of a (seed, delay) run. Called from
  /// pool threads by the neighborhood search, so scenario harnesses use the
  /// explicit-algorithm check_replay (the v2 one writes the global mutant).
  std::function<std::vector<Violation>(const scenario::RequestTrace&,
                                       std::uint64_t seed,
                                       sim::SimDuration delay)>
      replay;
};

bool violates(const Harness& h, const scenario::RequestTrace& candidate,
              std::uint64_t seed, sim::SimDuration delay,
              const std::string& oracle) {
  if (candidate.events.empty()) return false;
  const std::vector<Violation> vs = h.replay(candidate, seed, delay);
  return std::any_of(vs.begin(), vs.end(),
                     [&](const Violation& v) { return v.oracle == oracle; });
}

/// ddmin-lite: repeatedly try dropping contiguous chunks (n/2, n/4, ... 1)
/// while the candidate's replay under (seed, delay) still violates
/// `oracle`, bounded by `budget` replay attempts.
scenario::RequestTrace minimize(const Harness& h,
                                const scenario::RequestTrace& full,
                                std::uint64_t seed, sim::SimDuration delay,
                                const std::string& oracle, int budget) {
  scenario::RequestTrace trial = full;  // full's header, fewer events
  std::vector<scenario::TraceEvent> events = std::move(trial.events);
  std::size_t chunk = events.size() / 2;
  int attempts = 0;
  while (chunk >= 1 && attempts < budget) {
    bool removed_any = false;
    for (std::size_t start = 0; start < events.size() && attempts < budget;) {
      const std::size_t end = std::min(events.size(), start + chunk);
      trial.events.assign(events.begin(),
                          events.begin() + static_cast<std::ptrdiff_t>(start));
      trial.events.insert(trial.events.end(),
                          events.begin() + static_cast<std::ptrdiff_t>(end),
                          events.end());
      ++attempts;
      if (violates(h, trial, seed, delay, oracle)) {
        // Keep the surviving list and rescan from the same offset.
        events.swap(trial.events);
        removed_any = true;
      } else {
        start += chunk;
      }
    }
    if (chunk == 1) break;
    // ddmin's retry rule: a successful removal can enable earlier removals,
    // so only refine the granularity after a pass that removed nothing.
    if (!removed_any) chunk = std::max<std::size_t>(1, chunk / 2);
  }
  trial.events = std::move(events);
  return trial;
}

/// Describes a violating run; checks that its trace replays the violation.
FoundViolation describe(const Harness& h, std::uint64_t seed,
                        sim::SimDuration delay, CheckedRun& run) {
  FoundViolation found;
  found.scenario = h.scenario;
  found.algorithm = h.algorithm;
  found.seed = seed;
  found.delay_bound = delay;
  found.violations = std::move(run.violations);
  found.trace_events = run.trace.events.size();
  found.minimized_events = run.trace.events.size();
  found.replay_reproduces = violates(h, run.trace, seed, delay,
                                     found.violations.front().oracle);
  return found;
}

/// Saves a repro as <trace_dir>/repro_<label>_s<seed>.mra, with every
/// character of the label but [A-Za-z0-9-] replaced by '_'.
void save_repro(FoundViolation& found, const scenario::RequestTrace& repro,
                const std::string& trace_dir, std::string label) {
  if (trace_dir.empty() || repro.events.empty()) return;
  for (char& c : label) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-') c = '_';
  }
  found.trace_path = trace_dir + "/repro_" + label + "_s" +
                     std::to_string(found.seed) + ".mra";
  scenario::save_trace(found.trace_path, repro);
}

/// Neighborhood search: perturbation variants (remixed seed, scaled bound)
/// around a reproducing violation, run through the sweep pool. A smaller
/// repro from a variant wins, its v2 header updated to stay self-contained.
void neighborhood_search(FoundViolation& found,
                         const scenario::RequestTrace& full,
                         scenario::RequestTrace& repro, const Harness& h,
                         int variant_count, int minimize_budget,
                         int threads) {
  if (variant_count <= 0 || !found.replay_reproduces) return;
  const std::string oracle = found.violations.front().oracle;
  const sim::SimDuration base_bound =
      found.delay_bound > 0 ? found.delay_bound : sim::from_ms(1.0);
  static constexpr double kScale[4] = {1.0, 0.5, 1.5, 2.0};

  struct Variant {
    std::uint64_t seed = 0;
    sim::SimDuration bound = 0;
    bool hit = false;
  };
  std::vector<Variant> variants(static_cast<std::size_t>(variant_count));
  std::vector<experiment::SweepJob> jobs;
  for (std::size_t j = 0; j < variants.size(); ++j) {
    Variant& v = variants[j];
    v.seed = found.seed ^ ((j + 1) * 0x9E3779B97F4A7C15ULL);
    v.bound = static_cast<sim::SimDuration>(static_cast<double>(base_bound) *
                                            kScale[j % 4]);
    jobs.push_back([&]() {
      v.hit = violates(h, full, v.seed, v.bound, oracle);
      return experiment::ExperimentResult();
    });
  }
  (void)experiment::run_sweep(jobs,
                              static_cast<unsigned>(std::max(0, threads)));

  found.neighborhood_tried = variants.size();
  for (const Variant& v : variants) found.neighborhood_violating += v.hit;
  // Only the first violating variant is minimized: one extra minimization
  // keeps the budget predictable.
  const auto first = std::find_if(variants.begin(), variants.end(),
                                  [](const Variant& v) { return v.hit; });
  if (first == variants.end()) return;
  scenario::RequestTrace alt =
      minimize(h, full, first->seed, first->bound, oracle, minimize_budget);
  if (alt.events.size() < repro.events.size()) {
    repro = std::move(alt);
    repro.seed = first->seed;
    repro.latency_delay_bound = first->bound;
    found.minimized_events = repro.events.size();
  }
}

/// Fuzz-sweep wave size (see run_fuzz).
constexpr std::size_t kWave = 8;

/// The fuzz loop: seeds_per_case cases per harness, each with a delay bound
/// drawn from a meta-stream of (run seed ^ harness salt) only, so
/// --base-seed <run seed> --seeds 1 with the same --delay-bound-ms
/// reproduces any single run. Waves of kWave runs go through
/// experiment::run_sweep and are scanned in case order, so the report is
/// the same for every --threads value. Only a replaying repro is minimised.
ExploreReport run_fuzz(const std::vector<Harness>& harnesses,
                       const ExploreCommon& config, int minimize_budget,
                       int neighborhood_variants) {
  struct Case {
    const Harness* harness = nullptr;
    std::uint64_t seed = 0;
    sim::SimDuration delay = 0;
  };
  std::vector<Case> cases;
  for (const Harness& h : harnesses) {
    for (int i = 0; i < config.seeds_per_case; ++i) {
      Case c{&h, config.base_seed + static_cast<std::uint64_t>(i), 0};
      sim::Rng run_meta(c.seed ^ h.salt);
      c.delay = config.delay_bound > 0
                    ? run_meta.uniform_int(0, config.delay_bound)
                    : 0;
      cases.push_back(c);
    }
  }

  ExploreProgress sink;
  ExploreProgress& progress = config.progress ? *config.progress : sink;
  // Accumulate, not overwrite: a multi-phase run (scenario + mutex + cm-ring
  // fuzz sharing one ExploreProgress) keeps a coherent total.
  progress.runs_total.fetch_add(cases.size(), std::memory_order_relaxed);
  ExploreReport report;
  for (std::size_t wave = 0; wave < cases.size(); wave += kWave) {
    const std::size_t end = std::min(cases.size(), wave + kWave);
    std::vector<CheckedRun> slots(end - wave);
    std::vector<experiment::SweepJob> jobs;
    for (std::size_t k = wave; k < end; ++k) {
      jobs.push_back([&, k]() {
        const Case& c = cases[k];
        slots[k - wave] = c.harness->run(c.seed, c.delay, nullptr);
        progress.runs_done.fetch_add(1, std::memory_order_relaxed);
        return experiment::ExperimentResult();
      });
    }
    (void)experiment::run_sweep(
        jobs, static_cast<unsigned>(std::max(0, config.threads)));
    report.runs += end - wave;

    // Scan the wave in case order: the first violating slot is the first
    // violating run, independent of how the pool interleaved the jobs.
    for (std::size_t k = wave; k < end; ++k) {
      CheckedRun& run = slots[k - wave];
      if (run.violations.empty()) continue;

      ++report.violating_runs;
      progress.violations.fetch_add(1, std::memory_order_relaxed);
      const Case& c = cases[k];
      const Harness& h = *c.harness;
      FoundViolation found = describe(h, c.seed, c.delay, run);
      scenario::RequestTrace repro =
          found.replay_reproduces && minimize_budget > 0
              ? minimize(h, run.trace, c.seed, c.delay,
                         found.violations.front().oracle, minimize_budget)
              : run.trace;
      found.minimized_events = repro.events.size();
      neighborhood_search(found, run.trace, repro, h, neighborhood_variants,
                          minimize_budget, config.threads);
      save_repro(found, repro, config.trace_dir, h.file_label);
      report.found.push_back(std::move(found));
      if (config.stop_on_first) return report;
    }
  }
  return report;
}

/// The exhaustive loop: DPOR enumeration of one (seed, delay) run of `h` up
/// to the first violating schedule, whose trace is saved unminimised.
ExploreReport run_exhaustive(const Harness& h, std::uint64_t seed,
                             sim::SimDuration delay, const DporConfig& dpor,
                             const std::string& trace_dir,
                             ExploreProgress* live) {
  ExploreProgress sink;
  ExploreProgress& progress = live != nullptr ? *live : sink;
  CheckedRun violating;
  std::vector<std::uint64_t> choices;
  const DporStats stats =
      explore_schedules(dpor, [&](DporScheduler& scheduler) {
        CheckedRun run = h.run(seed, delay, &scheduler);
        progress.schedules_executed.fetch_add(1, std::memory_order_relaxed);
        progress.runs_done.fetch_add(1, std::memory_order_relaxed);
        if (run.violations.empty()) return false;
        progress.violations.fetch_add(1, std::memory_order_relaxed);
        violating = std::move(run);
        choices = scheduler.choices();
        return true;
      });
  progress.orderings_pruned.store(stats.orderings_pruned,
                                  std::memory_order_relaxed);

  ExploreReport report;
  report.runs = stats.schedules_executed;
  report.schedules_executed = stats.schedules_executed;
  report.choice_points = stats.choice_points;
  report.orderings_pruned = stats.orderings_pruned;
  report.exhaustive_complete = stats.complete;
  report.exhaustive_truncated = stats.truncated;
  if (!violating.violations.empty()) {
    report.violating_runs = 1;
    // Canonical-order replay of the recorded births; for bugs that need a
    // non-canonical schedule, the choice stack is the repro instead.
    FoundViolation found = describe(h, seed, delay, violating);
    found.commutation = std::move(choices);
    save_repro(found, violating.trace, trace_dir,
               h.file_label + "-exhaustive");
    report.found.push_back(std::move(found));
  }
  return report;
}

Harness scenario_harness(const scenario::ScenarioSpec& spec,
                         algo::Algorithm algorithm,
                         const MonitorConfig& monitor, bool stop_on_first) {
  Harness h;
  h.scenario = spec.name;
  h.algorithm = algo::cli_name(algorithm);
  h.file_label = h.scenario + "_" + h.algorithm;
  h.salt = std::hash<std::string>{}(spec.name + ":" + h.algorithm);
  h.run = [&spec, algorithm, &monitor, stop_on_first](
              std::uint64_t seed, sim::SimDuration delay,
              sim::CommutationHook* hook) {
    scenario::ScenarioSpec s = spec;
    s.system.seed = seed;
    s.system.latency_delay_bound = delay;
    CheckOptions copt;
    copt.monitor = monitor;
    copt.monitor.stop_on_first = stop_on_first;  // else: every violation
    copt.commutation = hook;
    return run_checked_scenario(s, algorithm, copt);
  };
  h.replay = [algorithm, &monitor](const scenario::RequestTrace& trace,
                                   std::uint64_t seed,
                                   sim::SimDuration delay) {
    return check_replay(trace, algorithm, monitor, seed, delay);
  };
  return h;
}

// Raw substrates: mutex engines and the Chandy-Misra ring, one run loop.

/// Wraps one single-resource mutual-exclusion engine as an AllocatorNode,
/// so it emits its CS-lifecycle events the way every allocator does.
template <typename Engine>
class MutexNode final : public AllocatorNode {
 public:
  MutexNode(SiteId self, int n) {
    auto send = [this](SiteId dst, std::unique_ptr<net::Message> m) {
      network()->send(id(), dst, std::move(m));
    };
    auto granted = [this]() {
      state_ = ProcessState::kInCS;
      notify_granted();
    };
    if constexpr (std::is_same_v<Engine, mutex::NaimiTrehelEngine<>>) {
      engine_ = std::make_unique<Engine>(self, /*elected=*/0,
                                         /*instance=*/0, send, granted);
    } else if constexpr (std::is_same_v<Engine, mutex::SuzukiKasamiEngine>) {
      engine_ = std::make_unique<Engine>(self, /*elected=*/0, n,
                                         /*instance=*/0, send, granted);
    } else {
      engine_ = std::make_unique<Engine>(self, n, /*instance=*/0, send,
                                         granted);
    }
  }

  [[nodiscard]] ProcessState state() const override { return state_; }

  void on_message(SiteId from, net::Message& msg) override {
    if constexpr (std::is_same_v<Engine, mutex::NaimiTrehelEngine<>>) {
      if (const auto* m = as<mutex::NtRequestMsg>(msg)) {
        return engine_->on_request(*m);
      }
      if (const auto* m = as<mutex::NtTokenMsg<mutex::NoPayload>>(msg)) {
        engine_->on_token(*m);
      }
    } else if constexpr (std::is_same_v<Engine, mutex::SuzukiKasamiEngine>) {
      if (const auto* m = as<mutex::SkRequestMsg>(msg)) {
        return engine_->on_request(*m);
      }
      if (const auto* m = as<mutex::SkTokenMsg>(msg)) engine_->on_token(*m);
    } else {
      if (const auto* m = as<mutex::RaRequestMsg>(msg)) {
        return engine_->on_request(from, *m);
      }
      if (const auto* m = as<mutex::RaReplyMsg>(msg)) engine_->on_reply(*m);
    }
  }

 protected:
  void do_request(const ResourceSet& resources) override {
    current_ = resources;
    ++request_seq_;
    state_ = ProcessState::kWaitCS;
    engine_->request();
  }
  void do_release() override {
    state_ = ProcessState::kIdle;
    engine_->release();
  }

 private:
  template <typename Msg>
  static const Msg* as(const net::Message& msg) {
    return dynamic_cast<const Msg*>(&msg);
  }

  std::unique_ptr<Engine> engine_;
  ProcessState state_ = ProcessState::kIdle;
};

/// Adds a raw substrate's n nodes to `net`, observed by `monitor`: "nt" |
/// "sk" | "ra" engines, or a Chandy-Misra ring ("cm-ring") where resource i
/// is the edge (i, i+1 mod N).
std::vector<std::unique_ptr<AllocatorNode>> add_substrate_nodes(
    const std::string& algorithm, int n, net::Network& net,
    Monitor& monitor) {
  const bool ring = algorithm == "cm-ring";
  const MutexProtocol protocol =
      ring ? MutexProtocol::kNaimiTrehel : mutex_protocol_from_name(algorithm);
  algo::ChandyMisraConfig cmc;
  cmc.num_sites = n;
  for (int i = 0; i < n; ++i) cmc.sharers.emplace_back(i, (i + 1) % n);
  std::vector<std::unique_ptr<AllocatorNode>> nodes;
  for (SiteId i = 0; i < n; ++i) {
    if (ring) {
      nodes.push_back(std::make_unique<algo::ChandyMisraNode>(cmc));
    } else if (protocol == MutexProtocol::kNaimiTrehel) {
      nodes.push_back(
          std::make_unique<MutexNode<mutex::NaimiTrehelEngine<>>>(i, n));
    } else if (protocol == MutexProtocol::kSuzukiKasami) {
      nodes.push_back(
          std::make_unique<MutexNode<mutex::SuzukiKasamiEngine>>(i, n));
    } else {
      nodes.push_back(
          std::make_unique<MutexNode<mutex::RicartAgrawalaEngine>>(i, n));
    }
    net.add_node(*nodes.back());
    nodes.back()->set_observer(&monitor);
  }
  return nodes;
}

/// One substrate run: fuzz (rng-gap closed loop), exhaustive (t = 0 issues
/// on the latency grid, DPOR hook attached) or replay (recorded births).
struct SubstratePlan {
  std::string label;      ///< "mutex:<protocol>" or "cm-ring"
  std::string algorithm;  ///< add_substrate_nodes() name
  int num_sites = 0;
  int num_resources = 0;
  int requests_per_site = 0;
  std::uint64_t seed = 1;
  sim::SimDuration base_latency = kSubstrateLatency;
  sim::SimDuration delay = 0;           ///< BoundedDelayLatency bound
  sim::SimDuration cs = 0;
  bool deterministic = false;           ///< t = 0 issues, no rng draws
  sim::CommutationHook* hook = nullptr;
  /// Births from a trace; null: generate them and record a v2 trace.
  const scenario::RequestTrace* replay = nullptr;
  MonitorConfig monitor;  ///< sizes are set by the run
};

/// Stamps the v2 provenance of a substrate trace, so check_replay(trace)
/// re-creates the run on its own (ScenarioRunner stamps scenario traces).
void stamp_substrate_trace(scenario::RequestTrace& trace,
                           const SubstratePlan& plan) {
  trace.scenario = plan.label;
  trace.algorithm = plan.algorithm;
  trace.num_sites = plan.num_sites;
  trace.num_resources = plan.num_resources;
  trace.seed = plan.seed;
  trace.network_latency = plan.base_latency;
  trace.latency_delay_bound = plan.delay;
  trace.latency_quantum = 0;
  if (active_mutant() != Mutant::kNone) {
    trace.mutant = to_string(active_mutant());
  }
}

CheckedRun run_substrate(const SubstratePlan& plan) {
  const int n = plan.num_sites;
  const bool ring = plan.algorithm == "cm-ring";
  sim::Simulator sim;
  if (plan.hook != nullptr) sim.set_commutation_hook(plan.hook);
  net::Network net(
      sim, net::make_bounded_delay_latency(plan.base_latency, plan.delay),
      plan.seed);

  MonitorConfig mc = plan.monitor;
  mc.num_sites = n;
  mc.num_resources = plan.num_resources;
  Monitor monitor(mc);
  monitor.attach(sim, net);
  const std::vector<std::unique_ptr<AllocatorNode>> nodes =
      add_substrate_nodes(plan.algorithm, n, net, monitor);
  net.start();
  CheckedRun out;
  if (plan.replay == nullptr) stamp_substrate_trace(out.trace, plan);

  struct SiteState {
    std::deque<std::pair<sim::SimDuration, ResourceId>> pending;  ///< (cs, r)
    bool busy = false;
    sim::SimDuration cs = 0;
    int remaining = 0;  ///< arrivals left to generate (non-replay modes)
  };
  std::vector<SiteState> st(static_cast<std::size_t>(n));
  for (SiteState& ss : st) ss.remaining = plan.requests_per_site;
  auto site = [&](SiteId s) -> SiteState& {
    return st[static_cast<std::size_t>(s)];
  };
  auto node = [&](SiteId s) -> AllocatorNode& {
    return *nodes[static_cast<std::size_t>(s)];
  };

  sim::Rng rng(plan.seed ^
               (ring ? 0x5C5C5C5C5C5C5C5CULL : 0xA5A5A5A5A5A5A5A5ULL));

  std::function<void(SiteId)> try_issue = [&](SiteId s) {
    SiteState& ss = site(s);
    if (ss.busy || ss.pending.empty()) return;
    ss.busy = true;
    const auto [cs, resource] = ss.pending.front();
    ss.pending.pop_front();
    ss.cs = cs;
    if (plan.replay == nullptr) {
      out.trace.events.push_back(
          scenario::TraceEvent{sim.now(), s, cs, {resource}});
    }
    node(s).request(ResourceSet(plan.num_resources, {resource}));
  };

  // A ring request drinks one incident edge. Fuzz: alternate the own and the
  // left edge so neighbours contend; deterministic: 2k and 2k+1 share 2k.
  auto pick = [&](SiteId s, int count) -> ResourceId {
    if (!ring) return 0;
    if (plan.deterministic) return s - (s % 2);
    return count % 2 == 0 ? s : (s - 1 + n) % n;
  };

  std::function<void(SiteId)> arrive = [&](SiteId s) {
    SiteState& ss = site(s);
    if (ss.remaining <= 0) return;
    --ss.remaining;
    const sim::SimDuration gap =
        plan.deterministic
            ? 0
            : static_cast<sim::SimDuration>(rng.uniform_int(0, 2'000'000));
    const ResourceId resource =
        pick(s, plan.requests_per_site - ss.remaining - 1);
    sim.schedule_in(gap, static_cast<int>(s), [&, s, resource]() {
      site(s).pending.emplace_back(plan.cs, resource);
      try_issue(s);
    });
  };

  for (SiteId s = 0; s < n; ++s) {
    node(s).set_grant_callback([&, s](RequestId) {
      sim.schedule_in(site(s).cs, static_cast<int>(s), [&, s]() {
        node(s).release();
        site(s).busy = false;
        try_issue(s);  // replay mode: next pending birth, if any
        if (plan.replay == nullptr) arrive(s);
      });
    });
  }

  if (plan.replay != nullptr) {
    for (const scenario::TraceEvent& ev : plan.replay->events) {
      sim.schedule_at(ev.at, static_cast<int>(ev.site), [&, e = &ev]() {
        site(e->site).pending.emplace_back(e->cs, e->resources.front());
        try_issue(e->site);
      });
    }
  } else {
    for (SiteId s = 0; s < n; ++s) arrive(s);
  }

  constexpr std::uint64_t kEventBudget = 50'000'000ULL;
  sim.set_event_budget(kEventBudget);
  bool budget_hit = false;
  try {
    sim.run();
  } catch (const sim::EventBudgetExceeded&) {
    budget_hit = true;
  }
  finish_run(out, sim, net, monitor, budget_hit, kEventBudget);
  return out;
}

/// A substrate harness. Its traces replay through the self-contained
/// check_replay, reached from the calling thread only (no neighborhood).
Harness substrate_harness(SubstratePlan plan, std::uint64_t salt,
                          const ExploreCommon& config, bool exhaustive) {
  Harness h;
  h.scenario = plan.label;
  h.algorithm = plan.algorithm;
  h.file_label = plan.label;
  h.salt = salt;
  plan.deterministic = exhaustive;
  plan.monitor = config.monitor;
  // Exhaustive mode ends the violating schedule early; fuzz mode follows
  // the sweep-level flag.
  plan.monitor.stop_on_first = exhaustive || config.stop_on_first;
  h.run = [plan](std::uint64_t seed, sim::SimDuration delay,
                 sim::CommutationHook* hook) {
    SubstratePlan p = plan;
    p.seed = seed;
    p.delay = delay;
    p.hook = hook;
    return run_substrate(p);
  };
  const MonitorConfig& monitor = config.monitor;
  h.replay = [&monitor](const scenario::RequestTrace& trace, std::uint64_t,
                        sim::SimDuration) {
    return check_replay(trace, monitor);
  };
  return h;
}

Harness mutex_harness(MutexProtocol protocol,
                      const MutexExploreConfig& config, bool exhaustive) {
  SubstratePlan plan;
  plan.algorithm = to_string(protocol);
  plan.label = "mutex:" + plan.algorithm;
  plan.num_sites = config.num_sites;
  plan.num_resources = 1;
  plan.requests_per_site = config.requests_per_site;
  // Exhaustive: a grid-aligned CS for maximal collisions.
  plan.cs = exhaustive ? kSubstrateLatency : sim::from_ms(1.0);
  return substrate_harness(
      plan, 0x6D75746578ULL + static_cast<std::uint64_t>(protocol), config,
      exhaustive);
}

Harness cm_ring_harness(const CmRingExploreConfig& config, bool exhaustive) {
  SubstratePlan plan;
  plan.label = "cm-ring";
  plan.algorithm = "cm-ring";
  plan.num_sites = config.num_sites;
  plan.num_resources = config.num_sites;  // one edge resource per ring link
  plan.requests_per_site = config.requests_per_site;
  plan.cs = config.cs;
  return substrate_harness(plan, 0x636D2D72696E67ULL /* "cm-ring" */, config,
                           exhaustive);
}

}  // namespace

ExploreReport explore(const ExploreConfig& config) {
  std::vector<Harness> harnesses;
  for (const scenario::ScenarioSpec& spec : config.scenarios) {
    for (algo::Algorithm alg : config.algorithms) {
      harnesses.push_back(
          scenario_harness(spec, alg, config.monitor, config.stop_on_first));
    }
  }
  return run_fuzz(harnesses, config, config.minimize_budget,
                  config.neighborhood_variants);
}

ExploreReport explore_scenario_exhaustive(const scenario::ScenarioSpec& spec,
                                          algo::Algorithm algorithm,
                                          const MonitorConfig& monitor,
                                          const DporConfig& dpor,
                                          const std::string& trace_dir,
                                          ExploreProgress* progress) {
  return run_exhaustive(
      scenario_harness(spec, algorithm, monitor, /*stop_on_first=*/true),
      spec.system.seed, spec.system.latency_delay_bound, dpor, trace_dir,
      progress);
}

ExploreReport explore_mutex(const MutexExploreConfig& config) {
  std::vector<Harness> harnesses;
  for (MutexProtocol protocol : config.protocols) {
    harnesses.push_back(mutex_harness(protocol, config, false));
  }
  return run_fuzz(harnesses, config, kSubstrateMinimizeBudget, 0);
}

ExploreReport explore_mutex_exhaustive(const MutexExploreConfig& config,
                                       const DporConfig& dpor) {
  if (config.protocols.size() != 1) {
    throw std::invalid_argument(
        "explore_mutex_exhaustive: needs exactly one protocol, got " +
        std::to_string(config.protocols.size()));
  }
  return run_exhaustive(mutex_harness(config.protocols.front(), config, true),
                        config.base_seed, 0, dpor, config.trace_dir,
                        config.progress);
}

ExploreReport explore_cm_ring(const CmRingExploreConfig& config) {
  return run_fuzz({cm_ring_harness(config, false)}, config,
                  kSubstrateMinimizeBudget, 0);
}

ExploreReport explore_cm_ring_exhaustive(const CmRingExploreConfig& config,
                                         const DporConfig& dpor) {
  return run_exhaustive(cm_ring_harness(config, true), config.base_seed, 0,
                        dpor, config.trace_dir, config.progress);
}

/// Self-contained v2 replay.
std::vector<Violation> check_replay(const scenario::RequestTrace& trace,
                                    const MonitorConfig& monitor) {
  if (trace.algorithm.empty()) {
    throw std::invalid_argument(
        "check_replay: trace has no algorithm header (v1 trace) — use the "
        "overload that names the algorithm explicitly");
  }
  ScopedMutant scoped(trace.mutant);

  const bool cm_ring = trace.algorithm == "cm-ring";
  if (!cm_ring && trace.algorithm != "nt" && trace.algorithm != "sk" &&
      trace.algorithm != "ra") {
    // Factory algorithms: the scenario replay path (which also picks up the
    // trace's latency quantum through replay_trace).
    return check_replay(trace, algo::algorithm_from_name(trace.algorithm),
                        monitor, trace.seed, trace.latency_delay_bound);
  }
  SubstratePlan plan;
  plan.algorithm = trace.algorithm;
  plan.num_sites = trace.num_sites;
  plan.num_resources = cm_ring ? trace.num_resources : 1;
  plan.seed = trace.seed;
  plan.base_latency = trace.network_latency;
  plan.delay = trace.latency_delay_bound;
  plan.replay = &trace;
  plan.monitor = monitor;
  plan.monitor.stop_on_first = false;
  return run_substrate(plan).violations;
}

}  // namespace mra::check
