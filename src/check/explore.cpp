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

/// Fixed fuzz-sweep wave size: waves are dispatched through
/// experiment::run_sweep and scanned in case order, so reports (runs,
/// violating_runs, first find) are identical for every --threads value.
constexpr std::size_t kWave = 8;

Violation livelock_violation(sim::SimTime at, std::uint64_t budget) {
  Violation v;
  v.oracle = "livelock";
  v.at = at;
  v.detail = "simulation exceeded its event budget of " +
             std::to_string(budget) + " events without quiescing";
  return v;
}

/// Activates a trace's recorded mutant for the scope of a replay (no-op
/// when the name is empty or mutants are compiled out).
class ScopedMutant {
 public:
  explicit ScopedMutant(const std::string& name) {
    if (!name.empty() && mutants_compiled_in()) {
      previous_ = active_mutant();
      set_active_mutant(mutant_from_name(name.c_str()));
      active_ = true;
    }
  }
  ~ScopedMutant() {
    if (active_) set_active_mutant(previous_);
  }
  ScopedMutant(const ScopedMutant&) = delete;
  ScopedMutant& operator=(const ScopedMutant&) = delete;

 private:
  Mutant previous_ = Mutant::kNone;
  bool active_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// run_checked_scenario
// ---------------------------------------------------------------------------

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

  out.quiescent = !budget_hit && sim.idle();
  // A stop-on-first interruption leaves legitimate in-flight requests, so
  // end-of-run liveness checks only run when the drain completed cleanly.
  monitor.finalize(sim.now(), out.quiescent && monitor.ok());
  out.violations = monitor.violations();
  if (budget_hit) {
    out.violations.push_back(livelock_violation(sim.now(),
                                                options.event_budget));
  }
  out.events = sim.events_processed();
  out.messages = system->network().total_messages();
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

// ---------------------------------------------------------------------------
// Trace minimization: greedy delta debugging over the event list. A
// candidate counts as "still violating" when its checked replay reports any
// violation from the same oracle as the original finding.
// ---------------------------------------------------------------------------

namespace {

scenario::RequestTrace with_events(const scenario::RequestTrace& base,
                                   std::vector<scenario::TraceEvent> events) {
  scenario::RequestTrace t = base;
  t.events = std::move(events);
  return t;
}

bool still_violates(const scenario::RequestTrace& candidate,
                    algo::Algorithm algorithm, const MonitorConfig& mc,
                    std::uint64_t seed, sim::SimDuration delay_bound,
                    const std::string& oracle) {
  if (candidate.events.empty()) return false;
  const std::vector<Violation> violations =
      check_replay(candidate, algorithm, mc, seed, delay_bound);
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) { return v.oracle == oracle; });
}

/// ddmin-lite over any replay predicate: repeatedly try dropping contiguous
/// chunks (n/2, n/4, ... 1) while `still(candidate)` holds, bounded by
/// `budget` replay attempts. Works for scenario and substrate traces alike.
scenario::RequestTrace minimize_trace_events(
    const scenario::RequestTrace& full,
    const std::function<bool(const scenario::RequestTrace&)>& still,
    int budget) {
  std::vector<scenario::TraceEvent> events = full.events;
  std::size_t chunk = events.size() / 2;
  int attempts = 0;
  while (chunk >= 1 && attempts < budget) {
    bool removed_any = false;
    for (std::size_t start = 0; start < events.size() && attempts < budget;) {
      std::vector<scenario::TraceEvent> candidate;
      candidate.reserve(events.size());
      const std::size_t end = std::min(events.size(), start + chunk);
      candidate.insert(candidate.end(), events.begin(),
                       events.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(candidate.end(),
                       events.begin() + static_cast<std::ptrdiff_t>(end),
                       events.end());
      ++attempts;
      if (!candidate.empty() &&
          still(with_events(full, std::move(candidate)))) {
        // Rebuild the surviving list and rescan from the same offset.
        std::vector<scenario::TraceEvent> kept;
        kept.reserve(events.size() - (end - start));
        kept.insert(kept.end(), events.begin(),
                    events.begin() + static_cast<std::ptrdiff_t>(start));
        kept.insert(kept.end(),
                    events.begin() + static_cast<std::ptrdiff_t>(end),
                    events.end());
        events = std::move(kept);
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
  return with_events(full, std::move(events));
}

scenario::RequestTrace minimize_trace(const scenario::RequestTrace& full,
                                      algo::Algorithm algorithm,
                                      const MonitorConfig& mc,
                                      std::uint64_t seed,
                                      sim::SimDuration delay_bound,
                                      const std::string& oracle, int budget) {
  return minimize_trace_events(
      full,
      [&](const scenario::RequestTrace& candidate) {
        return still_violates(candidate, algorithm, mc, seed, delay_bound,
                              oracle);
      },
      budget);
}

std::string trace_file_name(const std::string& dir, const std::string& label,
                            std::uint64_t seed) {
  std::string safe = label;
  for (char& c : safe) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-') {
      c = '_';
    }
  }
  return dir + "/repro_" + safe + "_s" + std::to_string(seed) + ".mra";
}

/// Stamps the v2 provenance of a substrate trace (the scenario path gets
/// its provenance from ScenarioRunner).
void stamp_substrate_trace(scenario::RequestTrace& trace,
                           const std::string& scenario_label,
                           const std::string& algorithm, int sites,
                           int resources, std::uint64_t seed,
                           sim::SimDuration base_latency,
                           sim::SimDuration delay_bound,
                           sim::SimDuration quantum) {
  trace.scenario = scenario_label;
  trace.algorithm = algorithm;
  trace.num_sites = sites;
  trace.num_resources = resources;
  trace.seed = seed;
  trace.network_latency = base_latency;
  trace.latency_delay_bound = delay_bound;
  trace.latency_quantum = quantum;
  if (active_mutant() != Mutant::kNone) {
    trace.mutant = to_string(active_mutant());
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Scenario explorer (fuzz mode)
// ---------------------------------------------------------------------------

namespace {

struct FuzzCase {
  const scenario::ScenarioSpec* spec = nullptr;
  algo::Algorithm algorithm = algo::Algorithm::kLassWithLoan;
  std::uint64_t seed = 0;
  sim::SimDuration delay = 0;
};

/// Neighborhood search: perturbation variants (remixed seed, scaled bound)
/// around a reproducing violation, run through the sweep pool; the first
/// violating variant is minimized too and the smaller repro wins. The
/// adopted repro's v2 header is updated so it stays self-contained.
void neighborhood_search(FoundViolation& found,
                         const scenario::RequestTrace& full,
                         scenario::RequestTrace& repro, algo::Algorithm alg,
                         const ExploreConfig& config,
                         const std::string& oracle) {
  if (config.neighborhood_variants <= 0 || !found.replay_reproduces) return;
  const sim::SimDuration base_bound =
      found.delay_bound > 0 ? found.delay_bound : sim::from_ms(1.0);
  static constexpr double kScale[4] = {1.0, 0.5, 1.5, 2.0};

  struct Variant {
    std::uint64_t seed = 0;
    sim::SimDuration bound = 0;
  };
  std::vector<Variant> variants;
  for (int j = 0; j < config.neighborhood_variants; ++j) {
    Variant v;
    v.seed = found.seed ^
             (static_cast<std::uint64_t>(j + 1) * 0x9E3779B97F4A7C15ULL);
    v.bound = static_cast<sim::SimDuration>(
        static_cast<double>(base_bound) * kScale[j % 4]);
    variants.push_back(v);
  }

  std::vector<char> hits(variants.size(), 0);
  std::vector<experiment::SweepJob> jobs;
  for (std::size_t j = 0; j < variants.size(); ++j) {
    jobs.push_back([&, j]() {
      hits[j] = still_violates(full, alg, config.monitor, variants[j].seed,
                               variants[j].bound, oracle)
                    ? 1
                    : 0;
      return experiment::ExperimentResult();
    });
  }
  (void)experiment::run_sweep(jobs,
                              static_cast<unsigned>(std::max(0, config.threads)));

  found.neighborhood_tried = variants.size();
  for (char h : hits) found.neighborhood_violating += h != 0 ? 1 : 0;

  for (std::size_t j = 0; j < variants.size(); ++j) {
    if (hits[j] == 0) continue;
    scenario::RequestTrace alt =
        minimize_trace(full, alg, config.monitor, variants[j].seed,
                       variants[j].bound, oracle, config.minimize_budget);
    if (alt.events.size() < repro.events.size()) {
      repro = std::move(alt);
      repro.seed = variants[j].seed;
      repro.latency_delay_bound = variants[j].bound;
      found.minimized_events = repro.events.size();
    }
    break;  // one extra minimization keeps the budget predictable
  }
}

}  // namespace

ExploreReport explore(const ExploreConfig& config) {
  ExploreReport report;

  // Deterministic flat case list; the perturbation draw depends only on
  // (run seed, case, bound), so re-running with --base-seed <run_seed>
  // --seeds 1 and the same --delay-bound-ms reproduces any single run.
  std::vector<FuzzCase> cases;
  for (const scenario::ScenarioSpec& spec : config.scenarios) {
    for (algo::Algorithm alg : config.algorithms) {
      const std::uint64_t case_hash =
          std::hash<std::string>{}(spec.name + ":" + algo::cli_name(alg));
      for (int i = 0; i < config.seeds_per_case; ++i) {
        FuzzCase c;
        c.spec = &spec;
        c.algorithm = alg;
        c.seed = config.base_seed + static_cast<std::uint64_t>(i);
        sim::Rng run_meta(c.seed ^ case_hash);
        c.delay = config.delay_bound > 0
                      ? run_meta.uniform_int(0, config.delay_bound)
                      : 0;
        cases.push_back(c);
      }
    }
  }

  if (config.progress != nullptr) {
    // Accumulate, not overwrite: a multi-phase run (scenario + mutex +
    // cm-ring fuzz sharing one ExploreProgress) keeps a coherent total.
    config.progress->runs_total.fetch_add(cases.size(),
                                          std::memory_order_relaxed);
  }
  for (std::size_t wave = 0; wave < cases.size(); wave += kWave) {
    const std::size_t end = std::min(cases.size(), wave + kWave);
    std::vector<CheckedRun> slots(end - wave);
    std::vector<experiment::SweepJob> jobs;
    for (std::size_t k = wave; k < end; ++k) {
      jobs.push_back([&, k, slot = k - wave]() {
        const FuzzCase& c = cases[k];
        scenario::ScenarioSpec s = *c.spec;
        s.system.seed = c.seed;
        s.system.latency_delay_bound = c.delay;
        CheckOptions copt;
        copt.monitor = config.monitor;
        // Mirrors the sweep-level flag: stop-on-first also aborts the
        // violating run early; keep-going collects every violation.
        copt.monitor.stop_on_first = config.stop_on_first;
        slots[slot] = run_checked_scenario(s, c.algorithm, copt);
        if (config.progress != nullptr) {
          config.progress->runs_done.fetch_add(1, std::memory_order_relaxed);
        }
        return experiment::ExperimentResult();
      });
    }
    (void)experiment::run_sweep(
        jobs, static_cast<unsigned>(std::max(0, config.threads)));
    report.runs += end - wave;

    // Scan the wave in case order: the first violating slot is the first
    // violating run, independent of how the pool interleaved the jobs.
    for (std::size_t k = wave; k < end; ++k) {
      const CheckedRun& run = slots[k - wave];
      if (run.violations.empty()) continue;

      ++report.violating_runs;
      if (config.progress != nullptr) {
        config.progress->violations.fetch_add(1, std::memory_order_relaxed);
      }
      const FuzzCase& c = cases[k];
      FoundViolation found;
      found.scenario = c.spec->name;
      found.algorithm = algo::cli_name(c.algorithm);
      found.seed = c.seed;
      found.delay_bound = c.delay;
      found.violations = run.violations;
      found.trace_events = run.trace.events.size();
      found.minimized_events = run.trace.events.size();

      // Repro trace: minimize when the recorded trace reproduces the
      // violation under checked replay, otherwise keep it whole (the run
      // itself is already reproducible from scenario + seed + delay).
      const std::string oracle = run.violations.front().oracle;
      scenario::RequestTrace repro = run.trace;
      if (!run.trace.events.empty()) {
        found.replay_reproduces = still_violates(
            run.trace, c.algorithm, config.monitor, c.seed, c.delay, oracle);
        if (found.replay_reproduces && config.minimize_budget > 0) {
          repro = minimize_trace(run.trace, c.algorithm, config.monitor,
                                 c.seed, c.delay, oracle,
                                 config.minimize_budget);
          found.minimized_events = repro.events.size();
        }
        neighborhood_search(found, run.trace, repro, c.algorithm, config,
                            oracle);
      }
      if (!config.trace_dir.empty() && !repro.events.empty()) {
        found.trace_path = trace_file_name(
            config.trace_dir, found.scenario + "_" + found.algorithm,
            c.seed);
        scenario::save_trace(found.trace_path, repro);
      }
      report.found.push_back(std::move(found));
      if (config.stop_on_first) return report;
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Mutex-substrate explorer
// ---------------------------------------------------------------------------

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

namespace {

/// Adapts one engine instance to a net::Node (the test_mutex pattern) while
/// feeding CS-lifecycle events to the monitor.
template <typename Engine>
class MutexHost final : public net::Node {
 public:
  std::function<void()> on_granted;
  std::unique_ptr<Engine> engine;

  void on_message(SiteId from, net::Message& msg) override {
    (void)from;
    if constexpr (std::is_same_v<Engine, mutex::NaimiTrehelEngine<>>) {
      if (const auto* req = dynamic_cast<const mutex::NtRequestMsg*>(&msg)) {
        engine->on_request(*req);
        return;
      }
      if (const auto* tok =
              dynamic_cast<const mutex::NtTokenMsg<mutex::NoPayload>*>(&msg)) {
        engine->on_token(*tok);
        return;
      }
    } else if constexpr (std::is_same_v<Engine, mutex::SuzukiKasamiEngine>) {
      if (const auto* req = dynamic_cast<const mutex::SkRequestMsg*>(&msg)) {
        engine->on_request(*req);
        return;
      }
      if (const auto* tok = dynamic_cast<const mutex::SkTokenMsg*>(&msg)) {
        engine->on_token(*tok);
        return;
      }
    } else {
      if (const auto* req = dynamic_cast<const mutex::RaRequestMsg*>(&msg)) {
        engine->on_request(from, *req);
        return;
      }
      if (const auto* rep = dynamic_cast<const mutex::RaReplyMsg*>(&msg)) {
        engine->on_reply(*rep);
        return;
      }
    }
  }
};

/// One substrate run, shared by every mode: fuzz (rng-gap closed loop),
/// exhaustive (deterministic t=0 issues on the latency grid, commutation
/// hook attached) and trace replay (issue the recorded births).
struct MutexRunPlan {
  int num_sites = 8;
  int requests_per_site = 25;
  std::uint64_t seed = 1;
  sim::SimDuration base_latency = sim::from_ms(0.6);
  sim::SimDuration delay = 0;           ///< BoundedDelayLatency bound
  sim::SimDuration cs = sim::from_ms(1.0);
  bool deterministic = false;           ///< t=0 issues, no rng draws
  sim::CommutationHook* hook = nullptr;
  const scenario::RequestTrace* replay = nullptr;  ///< births from a trace
  scenario::RequestTrace* record = nullptr;        ///< capture births
  MonitorConfig monitor;  ///< fully sized by the caller
};

template <typename Engine>
std::vector<Violation> run_mutex_engine(const MutexRunPlan& plan) {
  const int n = plan.num_sites;
  sim::Simulator sim;
  if (plan.hook != nullptr) sim.set_commutation_hook(plan.hook);
  net::Network net(
      sim, net::make_bounded_delay_latency(plan.base_latency, plan.delay),
      plan.seed);

  Monitor monitor(plan.monitor);
  monitor.attach(sim, net);

  std::vector<std::unique_ptr<MutexHost<Engine>>> hosts;
  for (int i = 0; i < n; ++i) {
    hosts.push_back(std::make_unique<MutexHost<Engine>>());
    net.add_node(*hosts.back());
  }
  for (int i = 0; i < n; ++i) {
    auto* host = hosts[static_cast<std::size_t>(i)].get();
    auto send = [host](SiteId dst, std::unique_ptr<net::Message> m) {
      host->network()->send(host->id(), dst, std::move(m));
    };
    auto granted = [host]() {
      if (host->on_granted) host->on_granted();
    };
    if constexpr (std::is_same_v<Engine, mutex::NaimiTrehelEngine<>>) {
      host->engine = std::make_unique<Engine>(i, /*elected=*/0,
                                              /*instance=*/0, send, granted);
    } else if constexpr (std::is_same_v<Engine, mutex::SuzukiKasamiEngine>) {
      host->engine = std::make_unique<Engine>(i, /*elected=*/0, n,
                                              /*instance=*/0, send, granted);
    } else {
      host->engine =
          std::make_unique<Engine>(i, n, /*instance=*/0, send, granted);
    }
  }
  net.start();

  // Harness-fed CS-lifecycle events over the single shared resource.
  const ResourceSet the_resource(1, {0});
  std::vector<std::int64_t> seq(static_cast<std::size_t>(n), 0);
  auto emit = [&](EventType type, SiteId s) {
    Event ev;
    ev.type = type;
    ev.at = sim.now();
    ev.site = s;
    ev.seq = seq[static_cast<std::size_t>(s)];
    ev.resources = &the_resource;
    monitor.on_event(ev);
  };

  struct SiteState {
    std::deque<sim::SimDuration> pending;  ///< arrived, not yet issued (cs)
    bool busy = false;
    sim::SimDuration cs = 0;
    int remaining = 0;  ///< arrivals left to generate (non-replay modes)
  };
  std::vector<SiteState> st(static_cast<std::size_t>(n));
  for (auto& s : st) s.remaining = plan.requests_per_site;

  sim::Rng rng(plan.seed ^ 0xA5A5A5A5A5A5A5A5ULL);

  std::function<void(SiteId)> try_issue = [&](SiteId s) {
    auto& ss = st[static_cast<std::size_t>(s)];
    if (ss.busy || ss.pending.empty()) return;
    ss.busy = true;
    ss.cs = ss.pending.front();
    ss.pending.pop_front();
    ++seq[static_cast<std::size_t>(s)];
    if (plan.record != nullptr) {
      plan.record->events.push_back(
          scenario::TraceEvent{sim.now(), s, ss.cs, {0}});
    }
    emit(EventType::kRequest, s);
    hosts[static_cast<std::size_t>(s)]->engine->request();
  };

  std::function<void(SiteId)> arrive = [&](SiteId s) {
    auto& ss = st[static_cast<std::size_t>(s)];
    if (ss.remaining <= 0) return;
    --ss.remaining;
    const sim::SimDuration gap =
        plan.deterministic
            ? 0
            : static_cast<sim::SimDuration>(rng.uniform_int(0, 2'000'000));
    sim.schedule_in(gap, static_cast<int>(s), [&, s]() {
      st[static_cast<std::size_t>(s)].pending.push_back(plan.cs);
      try_issue(s);
    });
  };

  for (SiteId s = 0; s < n; ++s) {
    hosts[static_cast<std::size_t>(s)]->on_granted = [&, s]() {
      emit(EventType::kAcquire, s);
      sim.schedule_in(st[static_cast<std::size_t>(s)].cs,
                      static_cast<int>(s), [&, s]() {
        emit(EventType::kRelease, s);
        hosts[static_cast<std::size_t>(s)]->engine->release();
        st[static_cast<std::size_t>(s)].busy = false;
        try_issue(s);  // replay mode: next pending birth, if any
        if (plan.replay == nullptr) arrive(s);
      });
    };
  }

  if (plan.replay != nullptr) {
    for (const scenario::TraceEvent& ev : plan.replay->events) {
      sim.schedule_at(ev.at, static_cast<int>(ev.site), [&, e = &ev]() {
        st[static_cast<std::size_t>(e->site)].pending.push_back(e->cs);
        try_issue(e->site);
      });
    }
  } else {
    for (SiteId s = 0; s < n; ++s) arrive(s);
  }

  sim.set_event_budget(50'000'000ULL);
  bool budget_hit = false;
  try {
    sim.run();
  } catch (const sim::EventBudgetExceeded&) {
    budget_hit = true;
  }
  const bool quiescent = !budget_hit && sim.idle();
  monitor.finalize(sim.now(), quiescent && monitor.ok());
  std::vector<Violation> out = monitor.violations();
  if (budget_hit) out.push_back(livelock_violation(sim.now(), 50'000'000ULL));
  return out;
}

std::vector<Violation> run_mutex_plan(MutexProtocol protocol,
                                      const MutexRunPlan& plan) {
  switch (protocol) {
    case MutexProtocol::kNaimiTrehel:
      return run_mutex_engine<mutex::NaimiTrehelEngine<>>(plan);
    case MutexProtocol::kSuzukiKasami:
      return run_mutex_engine<mutex::SuzukiKasamiEngine>(plan);
    case MutexProtocol::kRicartAgrawala:
      return run_mutex_engine<mutex::RicartAgrawalaEngine>(plan);
  }
  return {};
}

}  // namespace

ExploreReport explore_mutex(const MutexExploreConfig& config) {
  ExploreReport report;

  struct Case {
    MutexProtocol protocol = MutexProtocol::kNaimiTrehel;
    std::uint64_t seed = 0;
    sim::SimDuration delay = 0;
  };
  std::vector<Case> cases;
  for (MutexProtocol protocol : config.protocols) {
    const std::uint64_t case_hash =
        0x6D75746578ULL + static_cast<std::uint64_t>(protocol);
    for (int i = 0; i < config.seeds_per_case; ++i) {
      Case c;
      c.protocol = protocol;
      c.seed = config.base_seed + static_cast<std::uint64_t>(i);
      // Same exact-repro property as explore(): the draw is a function of
      // (run seed, protocol, bound) only.
      sim::Rng run_meta(c.seed ^ case_hash);
      c.delay = config.delay_bound > 0
                    ? run_meta.uniform_int(0, config.delay_bound)
                    : 0;
      cases.push_back(c);
    }
  }

  MonitorConfig mc = config.monitor;
  mc.num_sites = config.num_sites;
  mc.num_resources = 1;
  mc.stop_on_first = config.stop_on_first;

  if (config.progress != nullptr) {
    // Accumulate, not overwrite: a multi-phase run (scenario + mutex +
    // cm-ring fuzz sharing one ExploreProgress) keeps a coherent total.
    config.progress->runs_total.fetch_add(cases.size(),
                                          std::memory_order_relaxed);
  }
  for (std::size_t wave = 0; wave < cases.size(); wave += kWave) {
    const std::size_t end = std::min(cases.size(), wave + kWave);
    struct Slot {
      std::vector<Violation> violations;
      scenario::RequestTrace trace;
    };
    std::vector<Slot> slots(end - wave);
    std::vector<experiment::SweepJob> jobs;
    for (std::size_t k = wave; k < end; ++k) {
      jobs.push_back([&, k, slot = k - wave]() {
        const Case& c = cases[k];
        MutexRunPlan plan;
        plan.num_sites = config.num_sites;
        plan.requests_per_site = config.requests_per_site;
        plan.seed = c.seed;
        plan.delay = c.delay;
        plan.monitor = mc;
        plan.record = &slots[slot].trace;
        slots[slot].violations = run_mutex_plan(c.protocol, plan);
        if (config.progress != nullptr) {
          config.progress->runs_done.fetch_add(1, std::memory_order_relaxed);
        }
        return experiment::ExperimentResult();
      });
    }
    (void)experiment::run_sweep(
        jobs, static_cast<unsigned>(std::max(0, config.threads)));
    report.runs += end - wave;

    for (std::size_t k = wave; k < end; ++k) {
      Slot& slot = slots[k - wave];
      if (slot.violations.empty()) continue;

      ++report.violating_runs;
      if (config.progress != nullptr) {
        config.progress->violations.fetch_add(1, std::memory_order_relaxed);
      }
      const Case& c = cases[k];
      FoundViolation found;
      found.scenario = std::string("mutex:") + to_string(c.protocol);
      found.algorithm = to_string(c.protocol);
      found.seed = c.seed;
      found.delay_bound = c.delay;
      found.violations = slot.violations;
      found.trace_events = slot.trace.events.size();
      found.minimized_events = slot.trace.events.size();

      stamp_substrate_trace(slot.trace, found.scenario, found.algorithm,
                            config.num_sites, 1, c.seed, sim::from_ms(0.6),
                            c.delay, 0);
      const std::string oracle = slot.violations.front().oracle;
      auto still = [&](const scenario::RequestTrace& candidate) {
        if (candidate.events.empty()) return false;
        const std::vector<Violation> vs =
            check_replay(candidate, config.monitor);
        return std::any_of(
            vs.begin(), vs.end(),
            [&](const Violation& v) { return v.oracle == oracle; });
      };
      scenario::RequestTrace repro = slot.trace;
      if (!slot.trace.events.empty()) {
        found.replay_reproduces = still(slot.trace);
        if (found.replay_reproduces) {
          repro = minimize_trace_events(slot.trace, still, 48);
          found.minimized_events = repro.events.size();
        }
      }
      if (!config.trace_dir.empty() && !repro.events.empty()) {
        found.trace_path =
            trace_file_name(config.trace_dir, found.scenario, c.seed);
        scenario::save_trace(found.trace_path, repro);
      }
      report.found.push_back(std::move(found));
      if (config.stop_on_first) return report;
    }
  }
  return report;
}

ExploreReport explore_mutex_exhaustive(const MutexExploreConfig& config,
                                       const DporConfig& dpor) {
  if (config.protocols.empty()) {
    throw std::invalid_argument("explore_mutex_exhaustive: no protocol");
  }
  const MutexProtocol protocol = config.protocols.front();

  MonitorConfig mc = config.monitor;
  mc.num_sites = config.num_sites;
  mc.num_resources = 1;
  mc.stop_on_first = true;  // end the violating schedule early

  ExploreReport report;
  scenario::RequestTrace violating_trace;
  std::vector<Violation> violations;
  std::vector<std::uint64_t> choices;
  const DporStats stats =
      explore_schedules(dpor, [&](DporScheduler& scheduler) {
        scenario::RequestTrace trace;
        MutexRunPlan plan;
        plan.num_sites = config.num_sites;
        plan.requests_per_site = config.requests_per_site;
        plan.seed = config.base_seed;
        plan.delay = 0;
        plan.cs = plan.base_latency;  // grid-aligned: maximal collisions
        plan.deterministic = true;
        plan.hook = &scheduler;
        plan.monitor = mc;
        plan.record = &trace;
        std::vector<Violation> v = run_mutex_plan(protocol, plan);
        if (config.progress != nullptr) {
          config.progress->schedules_executed.fetch_add(
              1, std::memory_order_relaxed);
          config.progress->runs_done.fetch_add(1, std::memory_order_relaxed);
        }
        if (v.empty()) return false;
        if (config.progress != nullptr) {
          config.progress->violations.fetch_add(1, std::memory_order_relaxed);
        }
        violations = std::move(v);
        violating_trace = std::move(trace);
        choices = scheduler.choices();
        return true;
      });
  if (config.progress != nullptr) {
    config.progress->orderings_pruned.store(stats.orderings_pruned,
                                            std::memory_order_relaxed);
  }

  report.runs = stats.schedules_executed;
  report.schedules_executed = stats.schedules_executed;
  report.choice_points = stats.choice_points;
  report.orderings_pruned = stats.orderings_pruned;
  report.exhaustive_complete = stats.complete;
  report.exhaustive_truncated = stats.truncated;

  if (!violations.empty()) {
    report.violating_runs = 1;
    FoundViolation found;
    found.scenario = std::string("mutex:") + to_string(protocol);
    found.algorithm = to_string(protocol);
    found.seed = config.base_seed;
    found.violations = violations;
    found.commutation = choices;
    found.trace_events = violating_trace.events.size();
    found.minimized_events = violating_trace.events.size();
    stamp_substrate_trace(violating_trace, found.scenario, found.algorithm,
                          config.num_sites, 1, config.base_seed,
                          sim::from_ms(0.6), 0, 0);
    if (!violating_trace.events.empty()) {
      // Canonical-order replay of the recorded births; for bugs that need
      // a non-canonical schedule, the choice stack is the repro instead.
      const std::string oracle = violations.front().oracle;
      const std::vector<Violation> vs =
          check_replay(violating_trace, config.monitor);
      found.replay_reproduces = std::any_of(
          vs.begin(), vs.end(),
          [&](const Violation& v) { return v.oracle == oracle; });
    }
    if (!config.trace_dir.empty() && !violating_trace.events.empty()) {
      found.trace_path = trace_file_name(
          config.trace_dir, found.scenario + "-exhaustive", config.base_seed);
      scenario::save_trace(found.trace_path, violating_trace);
    }
    report.found.push_back(std::move(found));
  }
  return report;
}

// ---------------------------------------------------------------------------
// Scenario exhaustive mode
// ---------------------------------------------------------------------------

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

ExploreReport explore_scenario_exhaustive(const scenario::ScenarioSpec& spec,
                                          algo::Algorithm algorithm,
                                          const MonitorConfig& monitor,
                                          const DporConfig& dpor,
                                          const std::string& trace_dir,
                                          ExploreProgress* progress) {
  MonitorConfig mc = monitor;
  mc.stop_on_first = true;

  ExploreReport report;
  CheckedRun violating;
  std::vector<std::uint64_t> choices;
  bool found_violation = false;
  const DporStats stats =
      explore_schedules(dpor, [&](DporScheduler& scheduler) {
        CheckOptions copt;
        copt.monitor = mc;
        copt.commutation = &scheduler;
        CheckedRun run = run_checked_scenario(spec, algorithm, copt);
        if (progress != nullptr) {
          progress->schedules_executed.fetch_add(1,
                                                 std::memory_order_relaxed);
          progress->runs_done.fetch_add(1, std::memory_order_relaxed);
        }
        if (run.violations.empty()) return false;
        if (progress != nullptr) {
          progress->violations.fetch_add(1, std::memory_order_relaxed);
        }
        violating = std::move(run);
        choices = scheduler.choices();
        found_violation = true;
        return true;
      });
  if (progress != nullptr) {
    progress->orderings_pruned.store(stats.orderings_pruned,
                                     std::memory_order_relaxed);
  }

  report.runs = stats.schedules_executed;
  report.schedules_executed = stats.schedules_executed;
  report.choice_points = stats.choice_points;
  report.orderings_pruned = stats.orderings_pruned;
  report.exhaustive_complete = stats.complete;
  report.exhaustive_truncated = stats.truncated;

  if (found_violation) {
    report.violating_runs = 1;
    FoundViolation found;
    found.scenario = spec.name;
    found.algorithm = algo::cli_name(algorithm);
    found.seed = spec.system.seed;
    found.delay_bound = spec.system.latency_delay_bound;
    found.violations = violating.violations;
    found.commutation = choices;
    found.trace_events = violating.trace.events.size();
    found.minimized_events = violating.trace.events.size();
    if (!violating.trace.events.empty()) {
      const std::string oracle = violating.violations.front().oracle;
      found.replay_reproduces =
          still_violates(violating.trace, algorithm, monitor,
                         violating.trace.seed,
                         violating.trace.latency_delay_bound, oracle);
    }
    if (!trace_dir.empty() && !violating.trace.events.empty()) {
      found.trace_path = trace_file_name(
          trace_dir, found.scenario + "_" + found.algorithm + "-exhaustive",
          found.seed);
      scenario::save_trace(found.trace_path, violating.trace);
    }
    report.found.push_back(std::move(found));
  }
  return report;
}

// ---------------------------------------------------------------------------
// Chandy-Misra ring explorer
// ---------------------------------------------------------------------------

namespace {

/// One Chandy-Misra ring run: resource i is the edge (i, i+1 mod N); each
/// request drinks one incident edge. Modes mirror MutexRunPlan.
struct CmRunPlan {
  int num_sites = 4;
  int requests_per_site = 6;
  std::uint64_t seed = 1;
  sim::SimDuration base_latency = sim::from_ms(0.6);
  sim::SimDuration delay = 0;
  sim::SimDuration cs = sim::from_ms(2.0);
  bool deterministic = false;
  sim::CommutationHook* hook = nullptr;
  const scenario::RequestTrace* replay = nullptr;
  scenario::RequestTrace* record = nullptr;
  MonitorConfig monitor;  ///< fully sized by the caller
};

std::vector<Violation> run_cm_case(const CmRunPlan& plan) {
  const int n = plan.num_sites;
  sim::Simulator sim;
  if (plan.hook != nullptr) sim.set_commutation_hook(plan.hook);
  net::Network net(
      sim, net::make_bounded_delay_latency(plan.base_latency, plan.delay),
      plan.seed);

  Monitor monitor(plan.monitor);
  monitor.attach(sim, net);

  algo::ChandyMisraConfig cmc;
  cmc.num_sites = n;
  for (int i = 0; i < n; ++i) {
    cmc.sharers.emplace_back(i, (i + 1) % n);
  }
  std::vector<std::unique_ptr<algo::ChandyMisraNode>> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<algo::ChandyMisraNode>(cmc));
    net.add_node(*nodes.back());
    nodes.back()->set_observer(&monitor);
  }
  net.start();

  struct SiteState {
    std::deque<std::pair<sim::SimDuration, ResourceId>> pending;
    bool busy = false;
    sim::SimDuration cs = 0;
    int remaining = 0;
    int issued = 0;
  };
  std::vector<SiteState> st(static_cast<std::size_t>(n));
  for (auto& s : st) s.remaining = plan.requests_per_site;

  sim::Rng rng(plan.seed ^ 0x5C5C5C5C5C5C5C5CULL);

  std::function<void(SiteId)> try_issue = [&](SiteId s) {
    auto& ss = st[static_cast<std::size_t>(s)];
    if (ss.busy || ss.pending.empty()) return;
    ss.busy = true;
    const auto [cs, edge] = ss.pending.front();
    ss.pending.pop_front();
    ss.cs = cs;
    ++ss.issued;
    if (plan.record != nullptr) {
      plan.record->events.push_back(
          scenario::TraceEvent{sim.now(), s, cs, {edge}});
    }
    ResourceSet rs(n);
    rs.insert(edge);
    nodes[static_cast<std::size_t>(s)]->request(rs);
  };

  // Edge plan — fuzz: alternate the site's own edge and its left edge so
  // neighbours contend; deterministic: pairs (2k, 2k+1) share edge 2k.
  auto pick_edge = [&](SiteId s, int count) -> ResourceId {
    if (plan.deterministic) return s - (s % 2);
    return count % 2 == 0 ? s : (s - 1 + n) % n;
  };

  std::function<void(SiteId)> arrive = [&](SiteId s) {
    auto& ss = st[static_cast<std::size_t>(s)];
    if (ss.remaining <= 0) return;
    --ss.remaining;
    const sim::SimDuration gap =
        plan.deterministic
            ? 0
            : static_cast<sim::SimDuration>(rng.uniform_int(0, 2'000'000));
    const ResourceId edge =
        pick_edge(s, plan.requests_per_site - ss.remaining - 1);
    sim.schedule_in(gap, static_cast<int>(s), [&, s, edge]() {
      st[static_cast<std::size_t>(s)].pending.emplace_back(plan.cs, edge);
      try_issue(s);
    });
  };

  for (SiteId s = 0; s < n; ++s) {
    nodes[static_cast<std::size_t>(s)]->set_grant_callback([&, s](RequestId) {
      sim.schedule_in(st[static_cast<std::size_t>(s)].cs,
                      static_cast<int>(s), [&, s]() {
        nodes[static_cast<std::size_t>(s)]->release();
        st[static_cast<std::size_t>(s)].busy = false;
        try_issue(s);
        if (plan.replay == nullptr) arrive(s);
      });
    });
  }

  if (plan.replay != nullptr) {
    for (const scenario::TraceEvent& ev : plan.replay->events) {
      sim.schedule_at(ev.at, static_cast<int>(ev.site), [&, e = &ev]() {
        st[static_cast<std::size_t>(e->site)].pending.emplace_back(
            e->cs, e->resources.front());
        try_issue(e->site);
      });
    }
  } else {
    for (SiteId s = 0; s < n; ++s) arrive(s);
  }

  sim.set_event_budget(50'000'000ULL);
  bool budget_hit = false;
  try {
    sim.run();
  } catch (const sim::EventBudgetExceeded&) {
    budget_hit = true;
  }
  const bool quiescent = !budget_hit && sim.idle();
  monitor.finalize(sim.now(), quiescent && monitor.ok());
  std::vector<Violation> out = monitor.violations();
  if (budget_hit) out.push_back(livelock_violation(sim.now(), 50'000'000ULL));
  return out;
}

MonitorConfig cm_monitor_config(const CmRingExploreConfig& config) {
  MonitorConfig mc = config.monitor;
  mc.num_sites = config.num_sites;
  mc.num_resources = config.num_sites;  // one edge resource per ring link
  mc.stop_on_first = config.stop_on_first;
  return mc;
}

}  // namespace

ExploreReport explore_cm_ring(const CmRingExploreConfig& config) {
  ExploreReport report;
  const MonitorConfig mc = cm_monitor_config(config);

  struct Case {
    std::uint64_t seed = 0;
    sim::SimDuration delay = 0;
  };
  std::vector<Case> cases;
  for (int i = 0; i < config.seeds_per_case; ++i) {
    Case c;
    c.seed = config.base_seed + static_cast<std::uint64_t>(i);
    sim::Rng run_meta(c.seed ^ 0x636D2D72696E67ULL);  // "cm-ring"
    c.delay = config.delay_bound > 0
                  ? run_meta.uniform_int(0, config.delay_bound)
                  : 0;
    cases.push_back(c);
  }

  if (config.progress != nullptr) {
    // Accumulate, not overwrite: a multi-phase run (scenario + mutex +
    // cm-ring fuzz sharing one ExploreProgress) keeps a coherent total.
    config.progress->runs_total.fetch_add(cases.size(),
                                          std::memory_order_relaxed);
  }
  for (std::size_t wave = 0; wave < cases.size(); wave += kWave) {
    const std::size_t end = std::min(cases.size(), wave + kWave);
    struct Slot {
      std::vector<Violation> violations;
      scenario::RequestTrace trace;
    };
    std::vector<Slot> slots(end - wave);
    std::vector<experiment::SweepJob> jobs;
    for (std::size_t k = wave; k < end; ++k) {
      jobs.push_back([&, k, slot = k - wave]() {
        const Case& c = cases[k];
        CmRunPlan plan;
        plan.num_sites = config.num_sites;
        plan.requests_per_site = config.requests_per_site;
        plan.seed = c.seed;
        plan.delay = c.delay;
        plan.cs = config.cs;
        plan.monitor = mc;
        plan.record = &slots[slot].trace;
        slots[slot].violations = run_cm_case(plan);
        if (config.progress != nullptr) {
          config.progress->runs_done.fetch_add(1, std::memory_order_relaxed);
        }
        return experiment::ExperimentResult();
      });
    }
    (void)experiment::run_sweep(
        jobs, static_cast<unsigned>(std::max(0, config.threads)));
    report.runs += end - wave;

    for (std::size_t k = wave; k < end; ++k) {
      Slot& slot = slots[k - wave];
      if (slot.violations.empty()) continue;

      ++report.violating_runs;
      if (config.progress != nullptr) {
        config.progress->violations.fetch_add(1, std::memory_order_relaxed);
      }
      const Case& c = cases[k];
      FoundViolation found;
      found.scenario = "cm-ring";
      found.algorithm = "cm-ring";
      found.seed = c.seed;
      found.delay_bound = c.delay;
      found.violations = slot.violations;
      found.trace_events = slot.trace.events.size();
      found.minimized_events = slot.trace.events.size();

      stamp_substrate_trace(slot.trace, "cm-ring", "cm-ring",
                            config.num_sites, config.num_sites, c.seed,
                            sim::from_ms(0.6), c.delay, 0);
      const std::string oracle = slot.violations.front().oracle;
      auto still = [&](const scenario::RequestTrace& candidate) {
        if (candidate.events.empty()) return false;
        const std::vector<Violation> vs =
            check_replay(candidate, config.monitor);
        return std::any_of(
            vs.begin(), vs.end(),
            [&](const Violation& v) { return v.oracle == oracle; });
      };
      scenario::RequestTrace repro = slot.trace;
      if (!slot.trace.events.empty()) {
        found.replay_reproduces = still(slot.trace);
        if (found.replay_reproduces) {
          repro = minimize_trace_events(slot.trace, still, 48);
          found.minimized_events = repro.events.size();
        }
      }
      if (!config.trace_dir.empty() && !repro.events.empty()) {
        found.trace_path = trace_file_name(config.trace_dir, "cm-ring",
                                           c.seed);
        scenario::save_trace(found.trace_path, repro);
      }
      report.found.push_back(std::move(found));
      if (config.stop_on_first) return report;
    }
  }
  return report;
}

ExploreReport explore_cm_ring_exhaustive(const CmRingExploreConfig& config,
                                         const DporConfig& dpor) {
  MonitorConfig mc = cm_monitor_config(config);
  mc.stop_on_first = true;

  ExploreReport report;
  scenario::RequestTrace violating_trace;
  std::vector<Violation> violations;
  std::vector<std::uint64_t> choices;
  const DporStats stats =
      explore_schedules(dpor, [&](DporScheduler& scheduler) {
        scenario::RequestTrace trace;
        CmRunPlan plan;
        plan.num_sites = config.num_sites;
        plan.requests_per_site = config.requests_per_site;
        plan.seed = config.base_seed;
        plan.delay = 0;
        plan.cs = config.cs;
        plan.deterministic = true;
        plan.hook = &scheduler;
        plan.monitor = mc;
        plan.record = &trace;
        std::vector<Violation> v = run_cm_case(plan);
        if (config.progress != nullptr) {
          config.progress->schedules_executed.fetch_add(
              1, std::memory_order_relaxed);
          config.progress->runs_done.fetch_add(1, std::memory_order_relaxed);
        }
        if (v.empty()) return false;
        if (config.progress != nullptr) {
          config.progress->violations.fetch_add(1, std::memory_order_relaxed);
        }
        violations = std::move(v);
        violating_trace = std::move(trace);
        choices = scheduler.choices();
        return true;
      });
  if (config.progress != nullptr) {
    config.progress->orderings_pruned.store(stats.orderings_pruned,
                                            std::memory_order_relaxed);
  }

  report.runs = stats.schedules_executed;
  report.schedules_executed = stats.schedules_executed;
  report.choice_points = stats.choice_points;
  report.orderings_pruned = stats.orderings_pruned;
  report.exhaustive_complete = stats.complete;
  report.exhaustive_truncated = stats.truncated;

  if (!violations.empty()) {
    report.violating_runs = 1;
    FoundViolation found;
    found.scenario = "cm-ring";
    found.algorithm = "cm-ring";
    found.seed = config.base_seed;
    found.violations = violations;
    found.commutation = choices;
    found.trace_events = violating_trace.events.size();
    found.minimized_events = violating_trace.events.size();
    stamp_substrate_trace(violating_trace, "cm-ring", "cm-ring",
                          config.num_sites, config.num_sites,
                          config.base_seed, sim::from_ms(0.6), 0, 0);
    if (!violating_trace.events.empty()) {
      const std::string oracle = violations.front().oracle;
      const std::vector<Violation> vs =
          check_replay(violating_trace, config.monitor);
      found.replay_reproduces = std::any_of(
          vs.begin(), vs.end(),
          [&](const Violation& v) { return v.oracle == oracle; });
    }
    if (!config.trace_dir.empty() && !violating_trace.events.empty()) {
      found.trace_path = trace_file_name(
          config.trace_dir, "cm-ring-exhaustive", config.base_seed);
      scenario::save_trace(found.trace_path, violating_trace);
    }
    report.found.push_back(std::move(found));
  }
  return report;
}

// ---------------------------------------------------------------------------
// Self-contained v2 replay
// ---------------------------------------------------------------------------

std::vector<Violation> check_replay(const scenario::RequestTrace& trace,
                                    const MonitorConfig& monitor) {
  if (trace.algorithm.empty()) {
    throw std::invalid_argument(
        "check_replay: trace has no algorithm header (v1 trace) — use the "
        "overload that names the algorithm explicitly");
  }
  ScopedMutant scoped(trace.mutant);

  if (trace.algorithm == "nt" || trace.algorithm == "sk" ||
      trace.algorithm == "ra") {
    MutexRunPlan plan;
    plan.num_sites = trace.num_sites;
    plan.seed = trace.seed;
    plan.base_latency = trace.network_latency;
    plan.delay = trace.latency_delay_bound;
    plan.replay = &trace;
    plan.monitor = monitor;
    plan.monitor.num_sites = trace.num_sites;
    plan.monitor.num_resources = 1;
    plan.monitor.stop_on_first = false;
    return run_mutex_plan(mutex_protocol_from_name(trace.algorithm), plan);
  }
  if (trace.algorithm == "cm-ring") {
    CmRunPlan plan;
    plan.num_sites = trace.num_sites;
    plan.seed = trace.seed;
    plan.base_latency = trace.network_latency;
    plan.delay = trace.latency_delay_bound;
    plan.replay = &trace;
    plan.monitor = monitor;
    plan.monitor.num_sites = trace.num_sites;
    plan.monitor.num_resources = trace.num_resources;
    plan.monitor.stop_on_first = false;
    return run_cm_case(plan);
  }
  // Factory algorithms: the scenario replay path (which also picks up the
  // trace's latency quantum through replay_trace).
  return check_replay(trace, algo::algorithm_from_name(trace.algorithm),
                      monitor, trace.seed, trace.latency_delay_bound);
}

}  // namespace mra::check
