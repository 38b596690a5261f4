#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "metrics/memory.hpp"
#include "metrics/stats.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using mra::check::Event;
using mra::check::EventType;

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

void print_result(const PassResult& r) {
  std::ostringstream os;
  os << "{\"hash\":\"" << r.hash << "\",\"attempted\":" << r.attempted
     << ",\"failed\":" << r.failed << ",\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    os << (i == 0 ? "" : ",") << "\""
       << mra::experiment::json_escape(r.errors[i]) << "\"";
  }
  os << "],\"metrics\":{";
  bool first = true;
  char num[64];
  for (const auto& [name, value] : r.metrics) {
    if (std::isfinite(value)) {
      std::snprintf(num, sizeof(num), "%.17g", value);
    } else {
      std::snprintf(num, sizeof(num), "null");
    }
    os << (first ? "" : ",") << "\"" << name << "\":" << num;
    first = false;
  }
  os << "}}\n";
  std::fputs(os.str().c_str(), stdout);
  std::fflush(stdout);
}

double rss_bytes() {
  return static_cast<double>(mra::metrics::read_vm_rss_kb()) * 1024.0;
}

double peak_rss_bytes() {
  return static_cast<double>(mra::metrics::read_vm_peak_kb()) * 1024.0;
}

std::string results_json(
    const std::string& tool,
    const std::vector<mra::experiment::LabeledResult>& results) {
  std::ostringstream os;
  mra::experiment::write_results_json(os, tool, results);
  return os.str();
}


// ---------------------------------------------------------------------------
// HostSpeedProbe
// ---------------------------------------------------------------------------

namespace {

/// Probe steps per second on the reference host (4 vCPUs of a shared Xeon
/// at 2.1 GHz), measured next to a running pass: the median of 140 passes.
constexpr double kReferenceStepsPerSec = 3.4e6;

}  // namespace

HostSpeedProbe::HostSpeedProbe()
    : start_s_(now_s()), thread_([this] { run(); }) {}

HostSpeedProbe::~HostSpeedProbe() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

double HostSpeedProbe::speed() const {
  const double rate = static_cast<double>(steps_.load()) / (now_s() - start_s_);
  return rate / kReferenceStepsPerSec;
}

void HostSpeedProbe::run() {
  using Entry = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  std::map<std::uint32_t, std::uint64_t> counters;
  std::uint64_t x = 88172645463325252ULL;
  for (std::uint32_t i = 0; i < 512; ++i) queue.push({i, i});
  std::uint64_t steps = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    for (int k = 0; k < 1000; ++k) {
      const auto [t, id] = queue.top();
      queue.pop();
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const auto payload =
          std::make_unique<std::vector<std::uint32_t>>(4 + (x & 7), id);
      counters[static_cast<std::uint32_t>(x % 4096)] += payload->size();
      queue.push({t + 1 + (x % 1000), id});
    }
    steps += 1000;
    steps_.store(steps);
  }
}

void normalize_timing(PassResult& out, double speed) {
  auto& m = out.metrics;
  m["wall_s"] *= speed;
  m["setup_s"] *= speed;
  for (const char* rate : {"requests_per_s", "jobs_per_s", "runs_per_s"}) {
    m[rate] /= speed;
  }
  m["host.speed"] = speed;
}

// ---------------------------------------------------------------------------
// SpanLog
// ---------------------------------------------------------------------------

std::size_t SpanLog::begin(std::string name, int tid) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = std::move(name);
  s.tid = tid;
  s.depth = open_[tid]++;
  s.start_s = t;
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t handle) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_.at(handle);
  s.end_s = t;
  --open_[s.tid];
}

void SpanLog::write_chrome_trace(const std::string& path,
                                 const std::string& process_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Span*> order;
  std::map<int, bool> lanes;
  for (const Span& s : spans_) {
    if (s.end_s < 0) continue;  // never closed: not a complete interval
    order.push_back(&s);
    lanes[s.tid] = true;
  }
  // Start order; a parent opened in the same microsecond as its child
  // sorts first by depth.
  std::stable_sort(order.begin(), order.end(),
                   [](const Span* a, const Span* b) {
                     if (a->start_s != b->start_s) {
                       return a->start_s < b->start_s;
                     }
                     return a->depth < b->depth;
                   });
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open trace file " + path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  f << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
       "\"args\":{\"name\":\""
    << mra::experiment::json_escape(process_name) << "\"}}";
  for (const auto& [tid, unused] : lanes) {
    (void)unused;
    f << ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << tid
      << ",\"args\":{\"name\":\""
      << (tid == 0 ? std::string("main") : "lane-" + std::to_string(tid))
      << "\"}}";
  }
  char num[64];
  for (const Span* s : order) {
    f << ",\n{\"ph\":\"X\",\"name\":\"" << mra::experiment::json_escape(s->name)
      << "\",\"cat\":\"perfbench\",\"pid\":1,\"tid\":" << s->tid;
    std::snprintf(num, sizeof(num), "%.3f", s->start_s * 1e6);
    f << ",\"ts\":" << num;
    std::snprintf(num, sizeof(num), "%.3f", (s->end_s - s->start_s) * 1e6);
    f << ",\"dur\":" << num << "}";
  }
  f << "\n]}\n";
  if (!f) throw std::runtime_error("write failed: " + path);
}

// ---------------------------------------------------------------------------
// LayerObserver
// ---------------------------------------------------------------------------

void LayerObserver::attach(mra::algo::AllocationSystem& system) {
  system.simulator().set_observer(this);
  system.network().set_observer(this);
  for (mra::SiteId i = 0; i < system.num_sites(); ++i) {
    system.node(i).set_observer(this);
  }
}

void LayerObserver::begin_run(mra::algo::AllocationSystem& system) {
  system_ = &system;
  current_ = Layer::kSim;
  last_s_ = now_s();
}

void LayerObserver::end_run() {
  switch_to(Layer::kSim);
  system_ = nullptr;
}

void LayerObserver::switch_to(Layer next) {
  const double t = now_s();
  seconds[static_cast<std::size_t>(current_)] += t - last_s_;
  last_s_ = t;
  current_ = next;
}

void LayerObserver::on_advance(mra::sim::SimTime /*now*/) {
  ++instants;
  if (system_ != nullptr) {
    queue_depth_peak = std::max<std::uint64_t>(
        queue_depth_peak, system_->simulator().queue_depth());
  }
  switch_to(Layer::kSim);
}

void LayerObserver::on_event(const Event& event) {
  switch (event.type) {
    case EventType::kSend: {
      ++msgs;
      bytes += event.bytes;
      auto it = msgs_by_kind.find(event.kind);
      if (it == msgs_by_kind.end()) {
        it = msgs_by_kind.emplace(std::string(event.kind), 0).first;
      }
      ++it->second;
      if (system_ != nullptr) {
        in_flight_peak = std::max(in_flight_peak,
                                  system_->network().in_flight_messages());
      }
      switch_to(Layer::kNet);
      return;
    }
    case EventType::kDeliver:
      ++deliveries;
      break;
    case EventType::kRequest:
      ++requests_issued;
      break;
    case EventType::kRelease:
      ++requests_completed;
      break;
    case EventType::kHold:
    case EventType::kAcquire:
      break;
  }
  switch_to(Layer::kAlgo);
}

const std::vector<std::string>& all_message_kinds() {
  static const std::vector<std::string> kinds = {
      "BL.Inquire",  "BL.ResToken",  "CM.Bottle",  "CM.BottleReq",
      "CM.Fork",     "CM.ForkReq",   "Lass.Counter", "Lass.Req",
      "Lass.Token",  "Maddi.Req",    "Maddi.Token", "NT.Request",
      "NT.Token",    "RA.Reply",     "RA.Request",  "SK.Request",
      "SK.Token"};
  return kinds;
}

void add_layer_metrics(PassResult& out, const LayerObserver& obs,
                       std::uint64_t events, std::uint64_t queue_slots,
                       double traced_wall_s) {
  auto& m = out.metrics;
  const double sim_s = obs.seconds[static_cast<std::size_t>(Layer::kSim)];
  const double net_s = obs.seconds[static_cast<std::size_t>(Layer::kNet)];
  const double algo_s = obs.seconds[static_cast<std::size_t>(Layer::kAlgo)];
  const auto per = [](double s, std::uint64_t n) {
    return n == 0 ? 0.0 : s * 1e9 / static_cast<double>(n);
  };
  m["sim.events"] = static_cast<double>(events);
  m["sim.instants"] = static_cast<double>(obs.instants);
  m["sim.queue_depth_peak"] = static_cast<double>(obs.queue_depth_peak);
  m["sim.queue_slots"] = static_cast<double>(queue_slots);
  m["sim.ns_per_event"] = per(sim_s, events);
  m["sim.share"] = sim_s / traced_wall_s;
  m["net.msgs"] = static_cast<double>(obs.msgs);
  m["net.bytes"] = static_cast<double>(obs.bytes);
  for (const std::string& kind : all_message_kinds()) {
    const auto it = obs.msgs_by_kind.find(kind);
    m["net.msgs." + kind] =
        it == obs.msgs_by_kind.end() ? 0.0 : static_cast<double>(it->second);
  }
  m["net.in_flight_peak"] = static_cast<double>(obs.in_flight_peak);
  m["net.ns_per_msg"] = per(net_s, obs.msgs);
  m["net.share"] = net_s / traced_wall_s;
  m["algo.ns_per_delivery"] = per(algo_s, obs.deliveries);
  m["algo.ns_per_request"] = per(algo_s, obs.requests_issued);
  m["algo.share"] = algo_s / traced_wall_s;
  m["workload.requests_issued"] = static_cast<double>(obs.requests_issued);
  m["workload.requests_completed"] =
      static_cast<double>(obs.requests_completed);
  m["workload.completion"] =
      obs.requests_issued == 0
          ? 0.0
          : static_cast<double>(obs.requests_completed) /
                static_cast<double>(obs.requests_issued);
}

void add_reference_job_metrics(PassResult& out,
                               const std::vector<double>& job_s) {
  std::vector<double> v = job_s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  out.metrics["experiment.jobs"] = static_cast<double>(n);
  out.metrics["experiment.job_s_p50"] =
      n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
  out.metrics["experiment.job_s_max"] = n == 0 ? 0.0 : v.back();
}

void add_algo_result_metrics(
    PassResult& out,
    const std::vector<mra::experiment::LabeledResult>& results) {
  std::uint64_t loans_used = 0;
  std::uint64_t loans_failed = 0;
  for (mra::algo::Algorithm alg : mra::algo::all_algorithms()) {
    const std::string name = mra::algo::to_string(alg);
    std::uint64_t msgs = 0;
    std::uint64_t done = 0;
    for (const auto& lr : results) {
      if (lr.result.algorithm != name) continue;
      msgs += lr.result.messages;
      done += lr.result.requests_completed;
    }
    out.metrics[std::string("algo.msgs_per_cs.") + mra::algo::cli_name(alg)] =
        done == 0 ? 0.0
                  : static_cast<double>(msgs) / static_cast<double>(done);
  }
  for (const auto& lr : results) {
    loans_used += lr.result.loans_used;
    loans_failed += lr.result.loans_failed;
  }
  out.metrics["algo.loans_used"] = static_cast<double>(loans_used);
  out.metrics["algo.loans_failed"] = static_cast<double>(loans_failed);
  out.metrics["algo.loan_success"] =
      loans_used + loans_failed == 0
          ? 0.0
          : static_cast<double>(loans_used) /
                static_cast<double>(loans_used + loans_failed);
}

void add_simulated_metrics(
    PassResult& out,
    const std::vector<mra::experiment::LabeledResult>& results, Rows which) {
  const std::string loan =
      mra::algo::to_string(mra::algo::Algorithm::kLassWithLoan);
  double use_rate = 0.0;
  double waiting = 0.0;
  std::uint64_t rows = 0;
  std::uint64_t msgs = 0;
  std::uint64_t done = 0;
  mra::metrics::QuantileSketch pooled;
  for (const auto& lr : results) {
    if (which == Rows::kLassWithLoan && lr.result.algorithm != loan) continue;
    ++rows;
    use_rate += lr.result.use_rate;
    waiting += lr.result.waiting_mean_ms;
    msgs += lr.result.messages;
    done += lr.result.requests_completed;
    pooled.merge(lr.result.waiting_sketch);
  }
  const double n = rows == 0 ? 1.0 : static_cast<double>(rows);
  out.metrics["use_rate"] = use_rate / n;
  out.metrics["waiting_mean_ms"] = waiting / n;
  out.metrics["waiting_p99_ms"] = pooled.percentile(99);
  out.metrics["msgs_per_cs"] =
      done == 0 ? 0.0 : static_cast<double>(msgs) / static_cast<double>(done);
}

// ---------------------------------------------------------------------------
// Calibration: the engine alone, as bench/micro_engine drives it.
// ---------------------------------------------------------------------------

namespace {

struct TimerSite {
  mra::sim::Simulator* sim = nullptr;
  mra::sim::SimDuration period = 0;
  mra::sim::EventId timeout = 0;
  bool has_timeout = false;
};

void tick(TimerSite* s, std::uint64_t budget, std::uint64_t* total) {
  ++*total;
  if (s->has_timeout) s->sim->cancel(s->timeout);
  s->timeout = s->sim->schedule_in(10 * s->period, []() {});
  s->has_timeout = true;
  if (*total + 1 < budget) {
    s->sim->schedule_in(s->period,
                        [s, budget, total]() { tick(s, budget, total); });
  }
}

struct PingMsg final : mra::net::Message {
  std::uint64_t hop = 0;
  std::uint64_t salt = 0;
  [[nodiscard]] std::string_view kind() const override { return "Ping"; }
};

class PingSite final : public mra::net::Node {
 public:
  std::uint64_t budget = 0;
  std::uint64_t* sent = nullptr;

  void on_message(mra::SiteId /*from*/, const mra::net::Message& msg) override {
    const auto& ping = static_cast<const PingMsg&>(msg);
    if (*sent >= budget) return;
    ++*sent;
    auto next = std::make_unique<PingMsg>();
    next->hop = ping.hop + 1;
    next->salt = ping.salt;
    const int n = network()->node_count();
    const auto stride = static_cast<mra::SiteId>(1 + (ping.hop + ping.salt) % 7);
    network()->send(id(), static_cast<mra::SiteId>((id() + stride) % n),
                    std::move(next));
  }
};

constexpr std::uint64_t kCalibrationBudget = 400'000;

}  // namespace

void add_calibration_metrics(PassResult& out, int num_sites,
                             std::uint64_t seed) {
  {
    mra::sim::Simulator sim;
    mra::sim::Rng rng(seed);
    std::vector<TimerSite> sites(static_cast<std::size_t>(num_sites));
    std::uint64_t total = 0;
    for (TimerSite& s : sites) {
      s.sim = &sim;
      s.period = mra::sim::microseconds(rng.uniform_int(3, 997));
      sim.schedule_in(s.period, [site = &s, &total]() {
        tick(site, kCalibrationBudget, &total);
      });
    }
    const double t0 = now_s();
    sim.run();
    const double dt = now_s() - t0;
    out.metrics["sim.ns_per_event_calib"] =
        dt * 1e9 / static_cast<double>(sim.events_processed());
  }
  {
    mra::sim::Simulator sim;
    mra::net::Network net(
        sim, mra::net::make_fixed_latency(mra::sim::microseconds(600)), seed);
    std::vector<PingSite> sites(static_cast<std::size_t>(num_sites));
    std::uint64_t sent = 0;
    for (PingSite& s : sites) {
      s.budget = kCalibrationBudget;
      s.sent = &sent;
      net.add_node(s);
    }
    net.start();
    const int population = std::min(num_sites, 256);
    const double t0 = now_s();
    for (int i = 0; i < population; ++i) {
      auto msg = std::make_unique<PingMsg>();
      msg->salt = static_cast<std::uint64_t>(i);
      ++sent;
      net.send(static_cast<mra::SiteId>(i),
               static_cast<mra::SiteId>((i + 1) % num_sites), std::move(msg));
    }
    sim.run();
    const double dt = now_s() - t0;
    out.metrics["net.ns_per_msg_calib"] =
        dt * 1e9 / static_cast<double>(net.total_messages());
  }
}

// ---------------------------------------------------------------------------
// The per-layer metric set every traced run reports.
// ---------------------------------------------------------------------------

namespace {

std::vector<std::string> layer_metric_names() {
  std::vector<std::string> names = {
      "sim.events", "sim.instants", "sim.queue_depth_peak", "sim.queue_slots",
      "sim.ns_per_event", "sim.ns_per_event_calib", "sim.share",
      "net.msgs", "net.bytes", "net.in_flight_peak", "net.ns_per_msg",
      "net.ns_per_msg_calib", "net.share",
      "algo.ns_per_delivery", "algo.ns_per_request", "algo.share",
      "algo.loans_used", "algo.loans_failed", "algo.loan_success",
      "core.bytes_per_site_built", "core.bytes_per_site_grown",
      "core.setup_ns_per_site", "core.setup_share",
      "workload.requests_issued", "workload.requests_completed",
      "workload.completion",
      "experiment.jobs", "experiment.job_s_p50", "experiment.job_s_max",
      "experiment.summarize_share",
      "fabric.leases", "fabric.steals", "fabric.worker_aborts",
      "fabric.speedup", "fabric.busy_share",
      "check.runs", "check.violations", "check.schedules", "check.pruned",
      "check.prune_ratio", "check.oracle_overhead",
      "obs.trace_overhead", "obs.other_share", "obs.share_sum",
      "failed_frac"};
  for (const std::string& kind : all_message_kinds()) {
    names.push_back("net.msgs." + kind);
  }
  for (mra::algo::Algorithm alg : mra::algo::all_algorithms()) {
    names.push_back(std::string("algo.msgs_per_cs.") +
                    mra::algo::cli_name(alg));
  }
  return names;
}

}  // namespace

void fill_missing_layer_metrics(PassResult& out) {
  for (const std::string& name : layer_metric_names()) {
    out.metrics.emplace(name, 0.0);
  }
}

}  // namespace perfbench
