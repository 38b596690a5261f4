// Engine throughput bench: how fast the discrete-event core itself runs,
// independent of any protocol. This is the binary the CI perf gate tracks
// (scripts/bench_compare.py diffs its BENCH_micro_engine.json against the
// previous run of main), so its workloads are deterministic: the event and
// message *counts* never vary across machines, only the wall-clock rates do.
//
// Three workload families, each at N ∈ {64, 512, 4096} sites:
//
//   events_nN    — N self-reposting timers; every tick also schedules a
//                  timeout and cancels the previous one, exercising the
//                  schedule/cancel/pop cycle with deliver-sized captures;
//   messages_nN  — a fixed population of ping messages hopping around a
//                  ring with rotating strides, exercising Network::deliver
//                  (allocation, FIFO watermark, per-kind stats);
//   scenario_*   — three registered scenarios end to end, so the gate also
//                  sees the full protocol stack, not just the substrate.
//
// Plus a memory family, measured before any throughput workload touches the
// heap: memory_nN builds an N-site LASS system and reports its resident
// footprint (bytes/site from the RSS delta, process peak RSS so far) — the
// ROADMAP "million sites" regression tripwire. Gated lower-is-better by
// scripts/bench_compare.py.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/factory.hpp"
#include "common/bench_util.hpp"
#include "metrics/memory.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace mra;

/// One row of BENCH_micro_engine.json. Counts are deterministic; rates and
/// wall_ms are machine-dependent. The gate thresholds only the *_per_sec
/// rates of the long-running engine workloads; the scenario rows run for
/// tens of milliseconds, too short for a stable rate, so their throughput
/// goes out as `messages_per_sec_wall` — informational by naming contract
/// with scripts/bench_compare.py.
struct EngineResult {
  std::string label;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t requests_completed = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  double messages_per_sec = 0.0;
  double messages_per_sec_wall = 0.0;  ///< scenario rows only
  std::uint64_t rss_peak_kb = 0;       ///< memory rows only (VmHWM)
  double bytes_per_site = 0.0;         ///< memory rows only (RSS delta / N)
};

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsed_ms() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// --------------------------------------------------------------------------
// events_nN: N timers, each tick = 1 pop + 2 schedules + 1 cancel.
// --------------------------------------------------------------------------

struct TimerSite {
  sim::Simulator* sim = nullptr;
  sim::SimDuration period = 0;
  sim::EventId timeout = 0;
  bool has_timeout = false;
  std::uint64_t ticks = 0;
};

void tick(TimerSite* s, std::uint64_t total_budget, std::uint64_t* total) {
  ++s->ticks;
  ++*total;
  // The timeout is almost always cancelled by the next tick — the same
  // pattern as a protocol retransmission timer.
  if (s->has_timeout) s->sim->cancel(s->timeout);
  s->timeout = s->sim->schedule_in(10 * s->period, []() {});
  s->has_timeout = true;
  if (*total + 1 < total_budget) {
    // Capture a deliver-sized payload (pointer + two words), matching what
    // Network::deliver's callbacks carry through the queue.
    const std::uint64_t seq = s->ticks;
    sim::Simulator* sim = s->sim;
    sim->schedule_in(s->period, [s, seq, total_budget, total]() {
      (void)seq;
      tick(s, total_budget, total);
    });
  }
}

EngineResult run_events(int n, std::uint64_t budget, std::uint64_t seed) {
  sim::Simulator sim;
  sim::Rng rng(seed);
  std::vector<TimerSite> sites(static_cast<std::size_t>(n));
  std::uint64_t total = 0;
  for (int i = 0; i < n; ++i) {
    auto& s = sites[static_cast<std::size_t>(i)];
    s.sim = &sim;
    s.period = sim::microseconds(rng.uniform_int(3, 997));
    sim.schedule_in(s.period, [site = &s, budget, &total]() {
      tick(site, budget, &total);
    });
  }
  WallTimer timer;
  sim.run();
  EngineResult r;
  r.label = "events_n" + std::to_string(n);
  r.events = sim.events_processed();
  r.wall_ms = timer.elapsed_ms();
  r.events_per_sec = static_cast<double>(r.events) / (r.wall_ms / 1e3);
  return r;
}

// --------------------------------------------------------------------------
// messages_nN: a fixed ping population hopping a ring with rotating strides.
// --------------------------------------------------------------------------

struct PingMsg final : net::Message {
  std::uint64_t hop = 0;
  std::uint64_t salt = 0;
  [[nodiscard]] std::string_view kind() const override { return "Ping"; }
};

class PingSite final : public net::Node {
 public:
  std::uint64_t budget = 0;
  std::uint64_t* sent = nullptr;

  void on_message(SiteId /*from*/, net::Message& msg) override {
    const auto& ping = static_cast<const PingMsg&>(msg);
    if (*sent >= budget) return;
    ++*sent;
    auto next = std::make_unique<PingMsg>();
    next->hop = ping.hop + 1;
    next->salt = ping.salt;
    // Rotate the stride so traffic spreads over many (src, dst) links
    // instead of hammering one FIFO watermark slot.
    const int n = network()->node_count();
    const auto stride = static_cast<SiteId>(1 + (ping.hop + ping.salt) % 7);
    const auto dst = static_cast<SiteId>((id() + stride) % n);
    network()->send(id(), dst, std::move(next));
  }
};

EngineResult run_messages(int n, std::uint64_t budget, std::uint64_t seed) {
  sim::Simulator sim;
  net::Network net(sim, net::make_fixed_latency(sim::microseconds(600)), seed);
  std::vector<PingSite> sites(static_cast<std::size_t>(n));
  std::uint64_t sent = 0;
  for (auto& s : sites) {
    s.budget = budget;
    s.sent = &sent;
    net.add_node(s);
  }
  net.start();
  const int population = n < 256 ? n : 256;
  WallTimer timer;
  for (int i = 0; i < population; ++i) {
    auto msg = std::make_unique<PingMsg>();
    msg->salt = static_cast<std::uint64_t>(i);
    ++sent;
    net.send(static_cast<SiteId>(i),
             static_cast<SiteId>((i + 1) % n), std::move(msg));
  }
  sim.run();
  EngineResult r;
  r.label = "messages_n" + std::to_string(n);
  r.events = sim.events_processed();
  r.messages = net.total_messages();
  r.wall_ms = timer.elapsed_ms();
  r.events_per_sec = static_cast<double>(r.events) / (r.wall_ms / 1e3);
  r.messages_per_sec = static_cast<double>(r.messages) / (r.wall_ms / 1e3);
  return r;
}

// --------------------------------------------------------------------------
// memory_nN: resident footprint of a freshly built N-site protocol stack.
// --------------------------------------------------------------------------

// `keep` holds every previously measured system alive: freeing it would let
// the allocator recycle those pages into the next build and silently zero
// the RSS delta. Returns 0 bytes/site when /proc/self/status is unreadable
// (non-Linux) — bench_compare skips zero baselines, so the gate degrades to
// a no-op there instead of failing.
EngineResult run_memory(
    int n, std::uint64_t seed,
    std::vector<std::unique_ptr<algo::AllocationSystem>>& keep) {
  const std::uint64_t before_kb = metrics::read_vm_rss_kb();
  algo::SystemConfig sys;
  sys.algorithm = algo::Algorithm::kLassWithLoan;
  sys.num_sites = n;
  sys.num_resources = 80;
  sys.seed = seed;
  sys.network_latency = sim::from_ms(0.6);
  auto system = algo::AllocationSystem::create(sys);
  system->start();
  const std::uint64_t after_kb = metrics::read_vm_rss_kb();
  keep.push_back(std::move(system));
  EngineResult r;
  r.label = "memory_n" + std::to_string(n);
  r.rss_peak_kb = metrics::read_vm_peak_kb();
  if (after_kb > before_kb) {
    r.bytes_per_site =
        static_cast<double>(after_kb - before_kb) * 1024.0 / n;
  }
  return r;
}

// --------------------------------------------------------------------------
// scenario_*: full stack through three registered scenarios.
// --------------------------------------------------------------------------

EngineResult run_one_scenario(const std::string& name,
                              const bench::BenchOptions& options) {
  scenario::ScenarioSpec spec = scenario::find_scenario(name);
  spec.system.seed = options.seed;
  spec.warmup = options.warmup();
  spec.measure = options.measure();
  WallTimer timer;
  const experiment::ExperimentResult res =
      scenario::run_scenario(spec, spec.system.algorithm);
  EngineResult r;
  r.label = "scenario_" + name;
  r.messages = res.messages;
  r.requests_completed = res.requests_completed;
  r.wall_ms = timer.elapsed_ms();
  r.messages_per_sec_wall =
      static_cast<double>(r.messages) / (r.wall_ms / 1e3);
  return r;
}

// --------------------------------------------------------------------------
// Output
// --------------------------------------------------------------------------

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void write_json(const std::string& path,
                const std::vector<EngineResult>& results) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  f << "{\"tool\":\"micro_engine\",\"results\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const EngineResult& r = results[i];
    if (i != 0) f << ",";
    f << "\n  {\"label\":\"" << r.label << "\""
      << ",\"events\":" << r.events << ",\"messages\":" << r.messages
      << ",\"requests_completed\":" << r.requests_completed
      << ",\"wall_ms\":" << num(r.wall_ms)
      << ",\"events_per_sec\":" << num(r.events_per_sec)
      << ",\"messages_per_sec\":" << num(r.messages_per_sec)
      << ",\"messages_per_sec_wall\":" << num(r.messages_per_sec_wall)
      << ",\"rss_peak_kb\":" << r.rss_peak_kb
      << ",\"bytes_per_site\":" << num(r.bytes_per_site)
      << "}";
  }
  f << "\n]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, /*supports_json=*/true);
  // Per-workload event/message budgets. Deterministic: identical across
  // machines and runs, so bench_compare.py can treat the counts as exact.
  const std::uint64_t budget = options.quick ? 200'000 : 1'000'000;
  const std::vector<int> sizes = {64, 512, 4096};
  const std::vector<std::string> scenarios = {"paper-phi4", "zipf-hot",
                                              "bursty"};

  std::vector<EngineResult> results;

  // Memory rows first, on a pristine heap: the throughput workloads below
  // allocate (and free) enough to both inflate VmHWM and feed the allocator
  // arena, which would corrupt the per-site deltas. Measured once — a
  // repeat on the warmed arena would read ~0. Sizes stop at 1024 because
  // larger N belongs to bench/scalability_n.cpp's bigscale rows (which go
  // to 10^6 under --max-sites); these rows exist to catch per-site
  // regressions at the paper's scale. The flat per-site layout
  // (DESIGN.md §13) keeps bytes/site roughly constant across this range —
  // before it, N=1024 cost ~1.3 MB/site.
  {
    const std::vector<int> memory_sizes = {64, 256, 1024};
    std::vector<std::unique_ptr<algo::AllocationSystem>> keep;
    for (int n : memory_sizes) {
      EngineResult r = run_memory(n, options.seed, keep);
      std::printf("%-22s rss_peak=%llu kB  %.0f bytes/site\n",
                  r.label.c_str(),
                  static_cast<unsigned long long>(r.rss_peak_kb),
                  r.bytes_per_site);
      results.push_back(r);
    }
  }

  std::printf("%-22s %12s %12s %10s %14s %14s\n", "workload", "events",
              "messages", "wall_ms", "events/sec", "messages/sec");
  // Best of kReps: a run can only be slowed by machine noise, never sped
  // up, so the fastest repetition is the most faithful throughput estimate
  // — this is what keeps the CI gate's false-failure rate down (observed
  // single-run swings reach ~15% on busy machines; the minimum of five is
  // comfortably tighter). Counts are identical across repetitions (same
  // seed).
  constexpr int kReps = 5;
  auto emit = [&results](auto&& run_once) {
    EngineResult best = run_once();
    for (int rep = 1; rep < kReps; ++rep) {
      EngineResult r = run_once();
      if (r.wall_ms < best.wall_ms) best = r;
    }
    const double shown_rate = best.messages_per_sec != 0.0
                                  ? best.messages_per_sec
                                  : best.messages_per_sec_wall;
    std::printf("%-22s %12llu %12llu %10.1f %14.0f %14.0f\n",
                best.label.c_str(),
                static_cast<unsigned long long>(best.events),
                static_cast<unsigned long long>(best.messages), best.wall_ms,
                best.events_per_sec, shown_rate);
    results.push_back(best);
  };

  for (int n : sizes) {
    emit([&]() { return run_events(n, budget, options.seed); });
  }
  for (int n : sizes) {
    emit([&]() { return run_messages(n, budget, options.seed); });
  }
  for (const std::string& name : scenarios) {
    emit([&]() { return run_one_scenario(name, options); });
  }

  if (!options.json_path.empty()) {
    write_json(options.json_path, results);
    std::cout << "(json: " << options.json_path << ")\n";
  }
  return 0;
}
