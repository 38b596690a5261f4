// touch-all: one LASS-with-loan system at M=80, φ=4 where every one of N
// sites issues exactly one request at a uniform random time in a fixed
// window, run to quiescence. The token's per-site id maps grow with the
// number of distinct requesters, which only shows when every site
// requests; paper-sweep (N=32, closed loop) barely touches that path, and
// setup and memory of the per-site containers are a real share here.
//
// The requests form a scenario::RequestTrace and the run rebuilds
// scenario::replay_trace from public calls (same scheduling order, same
// collector calls), so replay_trace itself is the reference path.
#include <algorithm>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/trace.hpp"
#include "workload/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mra::SiteId;
using mra::experiment::LabeledResult;

/// Largest N whose pass fits many times into one measured run, so the
/// median over passes is steady (at this load N=8192 takes ~7.5 s a pass,
/// N=16384 ~38 s and 1.3 GB).
constexpr int kSites = 4096;
constexpr int kResources = 80;
constexpr int kPhi = 4;
/// Births are uniform over this window. At N=4096 that leaves the resources
/// ~8% used: requests rarely queue behind each other, so a run's cost is set
/// by N and the token maps rather than by queueing, which near saturation
/// (a 10 s window) makes waiting times and work swing 50% with the seed.
constexpr mra::sim::SimDuration kWindow = mra::sim::from_ms(40000);

mra::scenario::RequestTrace make_trace(std::uint64_t seed) {
  mra::scenario::RequestTrace trace;
  trace.scenario = "touch-all";
  trace.num_sites = kSites;
  trace.num_resources = kResources;
  trace.seed = seed;
  mra::sim::Rng rng(seed);
  mra::workload::RequestGenerator gen(
      mra::workload::medium_load(kPhi, kResources), rng.split());
  for (SiteId s = 0; s < kSites; ++s) {
    mra::scenario::TraceEvent ev;
    ev.at = rng.uniform_int(0, kWindow - 1);
    ev.site = s;
    const int size = gen.draw_size();
    ev.resources = gen.draw_resources(size).to_vector();
    ev.cs = gen.draw_cs_duration(size);
    trace.events.push_back(std::move(ev));
  }
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });
  return trace;
}

struct TouchPass {
  mra::experiment::ExperimentResult result;
  std::string json;         ///< experiment/json of the run
  std::string grant_order;  ///< site ids in grant order
  JobTiming timing;
  double wall_s = 0.0;
  bool safety_ok = true;
  bool completed_all = false;
};

std::string output_bytes(const TouchPass& p) {
  return p.json + p.grant_order;
}

/// scenario::replay_trace, call for call, with the grant order recorded.
TouchPass run_pass(const mra::scenario::RequestTrace& trace,
                   std::uint64_t seed, LayerObserver* observer,
                   SpanLog* spans) {
  TouchPass out;
  const double t0 = now_s();
  ScopedSpan workload(spans, "touch-all");
  out.timing.rss_before = rss_bytes();
  const double setup0 = now_s();
  std::size_t span = spans != nullptr ? spans->begin("setup") : 0;

  mra::algo::SystemConfig sys;
  sys.algorithm = mra::algo::Algorithm::kLassWithLoan;
  sys.num_sites = trace.num_sites;
  sys.num_resources = trace.num_resources;
  sys.seed = seed;
  sys.network_latency = trace.network_latency;
  sys.hierarchical_clusters = trace.hierarchical_clusters;
  sys.hierarchical_remote_latency = trace.hierarchical_remote_latency;
  auto system = mra::algo::AllocationSystem::create(sys);
  system->start();
  if (observer != nullptr) observer->attach(*system);
  auto& sim = system->simulator();
  sim.set_event_budget(500'000'000ULL);

  mra::metrics::Collector collector(trace.num_resources, 6);
  collector.set_max_size(static_cast<std::size_t>(trace.max_request_size()));
  struct SiteState {
    std::deque<const mra::scenario::TraceEvent*> pending;
    bool in_flight = false;
    mra::sim::SimDuration cs = 0;
  };
  std::vector<SiteState> sites(static_cast<std::size_t>(trace.num_sites));
  mra::ResourceSet busy(trace.num_resources);
  std::vector<SiteId> grants;
  grants.reserve(static_cast<std::size_t>(trace.num_sites));

  std::function<void(SiteId)> dispatch = [&](SiteId s) {
    auto& st = sites[static_cast<std::size_t>(s)];
    if (st.in_flight || st.pending.empty()) return;
    const mra::scenario::TraceEvent* ev = st.pending.front();
    st.pending.pop_front();
    st.in_flight = true;
    st.cs = ev->cs;
    mra::ResourceSet rs(trace.num_resources);
    for (mra::ResourceId r : ev->resources) rs.insert(r);
    collector.on_issue(ev->at, s, system->node(s).current_request_id() + 1,
                       rs);
    system->node(s).request(rs);
  };
  for (SiteId s = 0; s < trace.num_sites; ++s) {
    system->node(s).set_grant_callback([&, s](mra::RequestId) {
      auto& st = sites[static_cast<std::size_t>(s)];
      const mra::ResourceSet& rs = system->node(s).current_request();
      if (rs.intersects(busy)) out.safety_ok = false;
      busy |= rs;
      grants.push_back(s);
      collector.on_grant(sim.now(), s, system->node(s).current_request_id(),
                         rs);
      sim.schedule_in(st.cs, static_cast<int>(s), [&, s]() {
        const mra::ResourceSet held = system->node(s).current_request();
        busy -= held;
        collector.on_release(sim.now(), s,
                             system->node(s).current_request_id(), held);
        system->node(s).release();
        sites[static_cast<std::size_t>(s)].in_flight = false;
        dispatch(s);
      });
    });
  }
  for (const mra::scenario::TraceEvent& ev : trace.events) {
    sim.schedule_at(ev.at, static_cast<int>(ev.site), [&, e = &ev]() {
      sites[static_cast<std::size_t>(e->site)].pending.push_back(e);
      dispatch(e->site);
    });
  }
  out.timing.setup_s = now_s() - setup0;
  out.timing.sites = static_cast<std::uint64_t>(trace.num_sites);
  if (spans != nullptr) spans->end(span);
  out.timing.rss_built = rss_bytes();

  const double run0 = now_s();
  span = spans != nullptr ? spans->begin("run") : 0;
  if (observer != nullptr) observer->begin_run(*system);
  sim.run();
  if (observer != nullptr) observer->end_run();
  out.timing.run_s = now_s() - run0;
  if (spans != nullptr) spans->end(span);
  out.timing.events = sim.events_processed();
  out.timing.queue_slots = sim.queue_capacity();
  out.timing.rss_end = rss_bytes();

  const double sum0 = now_s();
  span = spans != nullptr ? spans->begin("summarize") : 0;
  out.completed_all = collector.completed() == trace.events.size();
  for (const auto& st : sites) {
    if (st.in_flight || !st.pending.empty()) out.completed_all = false;
  }
  out.result = mra::experiment::summarize(*system, collector, false);
  out.json = results_json("perfbench-touch-all",
                          {LabeledResult{"touch-all", out.result}});
  for (SiteId s : grants) out.grant_order += std::to_string(s) + "\n";
  out.timing.summarize_s = now_s() - sum0;
  if (spans != nullptr) spans->end(span);
  out.wall_s = now_s() - t0;
  return out;
}

/// Records the sites in grant order from the reference replay's hooks.
class GrantRecorder final : public mra::check::Observer {
 public:
  void on_event(const mra::check::Event& event) override {
    if (event.type == mra::check::EventType::kAcquire) {
      order += std::to_string(event.site) + "\n";
    }
  }
  std::string order;
};

struct Reference {
  std::string bytes;
  std::uint64_t completed = 0;
  double wall_s = 0.0;
};

Reference run_reference(const mra::scenario::RequestTrace& trace,
                        std::uint64_t seed) {
  const double t0 = now_s();
  GrantRecorder recorder;
  mra::scenario::ReplayOptions ro;
  ro.seed = seed;
  ro.observer = &recorder;
  const mra::scenario::ReplayResult r = mra::scenario::replay_trace(
      trace, mra::algo::Algorithm::kLassWithLoan, ro);
  Reference ref;
  ref.bytes = results_json("perfbench-touch-all",
                           {LabeledResult{"touch-all", r.metrics}}) +
              recorder.order;
  ref.completed = r.metrics.requests_completed;
  ref.wall_s = now_s() - t0;
  return ref;
}

}  // namespace

PassResult run_touch_all(const Options& opts) {
  const mra::scenario::RequestTrace trace = make_trace(opts.seed);
  const auto n = static_cast<double>(trace.num_sites);
  PassResult out;
  out.attempted = trace.events.size();

  if (opts.mode == Mode::kReference) {
    const Reference ref = run_reference(trace, opts.seed);
    out.hash = fnv1a_hex(ref.bytes);
    out.failed = trace.events.size() - ref.completed;
    return out;
  }

  std::optional<HostSpeedProbe> probe;
  if (opts.mode == Mode::kRun) probe.emplace();
  const TouchPass plain = run_pass(trace, opts.seed, nullptr, nullptr);
  const double speed = probe ? probe->speed() : 1.0;
  probe.reset();
  out.hash = fnv1a_hex(output_bytes(plain));
  out.failed = trace.events.size() - plain.result.requests_completed;
  if (!plain.safety_ok || !plain.completed_all) {
    out.errors.push_back("touch-all: unsafe grant or incomplete run");
    out.failed = out.attempted;
  }
  const JobTiming& t = plain.timing;
  const std::vector<LabeledResult> rows = {{"touch-all", plain.result}};
  if (opts.mode == Mode::kRun) {
    auto& m = out.metrics;
    const auto completed =
        static_cast<double>(plain.result.requests_completed);
    m["wall_s"] = plain.wall_s;
    m["setup_s"] = t.setup_s;
    m["requests_per_s"] = completed / (plain.wall_s - t.setup_s);
    m["jobs_per_s"] = completed / plain.wall_s;
    m["runs_per_s"] = 1.0 / plain.wall_s;
    m["peak_rss_mb"] = peak_rss_bytes() / (1024.0 * 1024.0);
    m["bytes_per_site"] = (t.rss_end - t.rss_before) / n;
    add_simulated_metrics(out, rows, Rows::kLassWithLoan);
    normalize_timing(out, speed);
    return out;
  }

  SpanLog spans;
  LayerObserver observer;
  const TouchPass traced = run_pass(trace, opts.seed, &observer, &spans);
  const Reference ref = run_reference(trace, opts.seed);
  if (output_bytes(traced) != output_bytes(plain) ||
      ref.bytes != output_bytes(plain)) {
    out.errors.push_back(
        "traced or reference output differs from the untraced pass");
    out.failed = out.attempted;
  }
  if (!opts.trace_out.empty()) {
    spans.write_chrome_trace(opts.trace_out, "perfbench touch-all");
  }
  add_layer_metrics(out, observer, traced.timing.events,
                    traced.timing.queue_slots, traced.wall_s);
  add_algo_result_metrics(out, rows);
  add_calibration_metrics(out, trace.num_sites, opts.seed);
  add_phase_shares(out, {traced.timing}, observer, traced.wall_s);
  auto& m = out.metrics;
  add_core_metrics(out, {t});
  add_reference_job_metrics(out, {ref.wall_s});
  m["obs.trace_overhead"] = traced.wall_s / plain.wall_s;
  return out;
}

}  // namespace perfbench
