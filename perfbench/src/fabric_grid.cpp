// fabric-grid: an 8-scenario x 4-algorithm sweep (32 full-window jobs, one
// job per lease) through fabric::run_coordinator plus nproc-1 run_worker
// threads over a fresh file spool, merged bytes compared with
// fabric::run_local. The only workload where leasing, claim scans,
// polling and the merge dominate; each job is the same kind of simulation
// paper-sweep runs, so a fabric change should move this workload alone.
//
// Worker and coordinator threads run under a try/catch here: an exception
// that escapes run_worker (a spool read racing a rename, say) is counted in
// fabric.worker_aborts and never ends the process; a coordinator that
// throws or fails fails every job it did not merge. There are no retries.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fabric/coordinator.hpp"
#include "fabric/grid.hpp"
#include "fabric/merge.hpp"
#include "fabric/result.hpp"
#include "fabric/spool.hpp"
#include "fabric/worker.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using mra::experiment::LabeledResult;

constexpr double kPollSec = 0.01;
/// Only an aborted worker's lease ever goes stale: a job takes well under a
/// second, so a healthy lease is never stolen.
constexpr double kLeaseTimeoutSec = 5.0;
/// How long the coordinator may outlive the last worker before it counts
/// as failed (it cannot finish once every worker is gone).
constexpr double kOrphanGraceSec = 3.0 * kLeaseTimeoutSec;

mra::fabric::GridSpec make_grid(std::uint64_t seed) {
  mra::fabric::GridSpec g;
  g.kind = mra::fabric::GridKind::kSweep;
  g.scenarios = {"paper-phi4", "paper-phi80",  "high-load-phi4",
                 "zipf-hot",   "hotspot-k4",   "bursty",
                 "open-loop",  "heterogeneous"};
  g.algorithms = {"bl", "lass", "lass-loan", "central"};
  g.quick = false;
  g.seed_set = true;
  g.seed = seed;
  g.validate();
  return g;
}

int worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw == 0 ? 1u : hw - 1, 1u, 3u));
}

struct FabricPass {
  std::string merged;
  std::vector<LabeledResult> rows;  ///< parsed lease payloads, job order
  double wall_s = 0.0;
  double setup_s = 0.0;  ///< launch until the first lease result exists
  double rss_before = 0.0;
  bool coordinator_ok = false;
  int aborts = 0;
  std::uint64_t leases = 0;
  std::uint64_t steals = 0;
  std::vector<std::string> errors;
};

bool any_entry(const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  return !ec && it != fs::directory_iterator();
}

void print_and_exit_orphaned(const FabricPass& pass, std::uint64_t jobs) {
  PassResult out;
  out.attempted = jobs;
  out.failed = jobs;
  out.errors = pass.errors;
  out.errors.push_back("fabric: coordinator orphaned after every worker ended");
  print_result(out);
  std::fflush(stdout);
  // The coordinator thread cannot be joined (it waits for leases nobody
  // will run); leave the process without unwinding it.
  std::_Exit(3);
}

FabricPass run_pass(const mra::fabric::GridSpec& grid,
                    const std::string& work_dir, SpanLog* spans) {
  static int pass_counter = 0;
  const std::string dir = work_dir + "/fabric-" + std::to_string(::getpid()) +
                          "-" + std::to_string(pass_counter++);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const mra::fabric::SpoolPaths paths{dir + "/spool"};
  const std::string out_path = dir + "/merged.json";
  const int workers = worker_count();

  FabricPass pass;
  pass.rss_before = rss_bytes();
  std::atomic<bool> coordinator_done{false};
  std::atomic<int> workers_done{0};
  std::atomic<int> aborts{0};
  std::mutex errors_mu;
  int coordinator_rc = -1;
  const auto note = [&](const std::string& msg) {
    std::lock_guard<std::mutex> lock(errors_mu);
    pass.errors.push_back(msg);
  };

  ScopedSpan workload(spans, "fabric-grid");
  const double t0 = now_s();
  std::thread coordinator([&] {
    ScopedSpan span(spans, "coordinator", 1);
    mra::fabric::CoordinatorOptions c;
    c.spool = paths.root;
    c.chunk = 1;
    c.lease_timeout_sec = kLeaseTimeoutSec;
    c.poll_interval_sec = kPollSec;
    c.out_path = out_path;
    try {
      coordinator_rc = mra::fabric::run_coordinator(grid, c);
    } catch (const std::exception& e) {
      note(std::string("coordinator: ") + e.what());
    }
    coordinator_done = true;
  });
  std::vector<std::thread> threads;
  for (int i = 0; i < workers; ++i) {
    threads.emplace_back([&, i] {
      mra::fabric::WorkerOptions w;
      w.name = std::to_string(i);
      w.name.insert(0, 1, 'w');
      ScopedSpan span(spans, "worker " + w.name, 2 + i);
      w.spool = paths.root;
      w.lease_timeout_sec = kLeaseTimeoutSec;
      w.poll_interval_sec = kPollSec;
      try {
        if (mra::fabric::run_worker(w) != 0) {
          ++aborts;
          note("worker " + w.name + ": setup failure");
        }
      } catch (const std::exception& e) {
        ++aborts;
        note("worker " + w.name + ": " + e.what());
      }
      ++workers_done;
    });
  }

  // This thread only watches: the first result file marks setup_s.
  double orphaned_since = -1.0;
  pass.setup_s = -1.0;
  while (!coordinator_done) {
    if (pass.setup_s < 0 && any_entry(paths.results_dir())) {
      pass.setup_s = now_s() - t0;
    }
    if (workers_done == workers) {
      if (orphaned_since < 0) orphaned_since = now_s();
      if (now_s() - orphaned_since > kOrphanGraceSec) {
        std::lock_guard<std::mutex> lock(errors_mu);  // coordinator may note()
        pass.aborts = aborts;
        print_and_exit_orphaned(pass, grid.job_count());
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  coordinator.join();
  for (std::thread& t : threads) t.join();
  pass.wall_s = now_s() - t0;
  if (pass.setup_s < 0) pass.setup_s = pass.wall_s;
  pass.aborts = aborts;
  pass.coordinator_ok = coordinator_rc == 0;
  if (!pass.coordinator_ok && coordinator_rc >= 0) {
    pass.errors.push_back("coordinator exit code " +
                          std::to_string(coordinator_rc));
  }

  if (pass.coordinator_ok) {
    std::ifstream in(out_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    pass.merged = buf.str();
  }
  // Lease ids equal job indices at chunk 1.
  for (std::uint64_t id = 0; id < grid.job_count(); ++id) {
    const auto lease = mra::fabric::read_result_file(paths, id);
    if (!lease) continue;
    ++pass.leases;
    if (lease->lease.fence > 0) ++pass.steals;
    for (const std::string& payload : lease->payloads) {
      if (mra::fabric::parse_error(payload)) continue;
      pass.rows.push_back(LabeledResult{grid.job_label(id),
                                        mra::fabric::parse_result(payload)});
    }
  }
  fs::remove_all(dir);
  return pass;
}

std::string run_local_bytes(const mra::fabric::GridSpec& grid) {
  std::ostringstream os;
  if (mra::fabric::run_local(grid, 1, os, "") != 0) {
    throw std::runtime_error("run_local reported a failed job");
  }
  return os.str();
}

void record_failures(PassResult& out, const FabricPass& pass,
                     std::uint64_t jobs) {
  for (const std::string& e : pass.errors) out.errors.push_back(e);
  if (!pass.coordinator_ok) out.failed += jobs;
  if (pass.aborts > 0) {
    std::cerr << "fabric-grid: " << pass.aborts << " worker abort(s)\n";
  }
}

}  // namespace

PassResult run_fabric_grid(const Options& opts) {
  const mra::fabric::GridSpec grid = make_grid(opts.seed);
  const std::uint64_t jobs = grid.job_count();
  PassResult out;
  out.attempted = jobs;

  if (opts.mode == Mode::kReference) {
    out.hash = fnv1a_hex(run_local_bytes(grid));
    return out;
  }

  int warmup_aborts = 0;
  if (opts.mode == Mode::kTraced) {
    // The first pass after the host idled runs 2-3x slower (the worker
    // threads wake idle vCPUs); obs.trace_overhead compares warm passes.
    const FabricPass warmup = run_pass(grid, opts.work_dir, nullptr);
    record_failures(out, warmup, jobs);
    warmup_aborts = warmup.aborts;
    out.attempted += jobs;
  }
  const FabricPass plain = run_pass(grid, opts.work_dir, nullptr);
  out.hash = fnv1a_hex(plain.merged);
  record_failures(out, plain, jobs);
  auto& m = out.metrics;
  if (opts.mode == Mode::kRun) {
    std::uint64_t completed = 0;
    std::uint64_t sites = 0;
    for (const auto& lr : plain.rows) completed += lr.result.requests_completed;
    for (const auto& spec : grid.resolve_scenarios()) {
      sites += static_cast<std::uint64_t>(spec.system.num_sites) *
               grid.algorithms.size();
    }
    m["wall_s"] = plain.wall_s;
    m["setup_s"] = plain.setup_s;
    m["requests_per_s"] = static_cast<double>(completed) / plain.wall_s;
    m["jobs_per_s"] = static_cast<double>(plain.leases) / plain.wall_s;
    m["runs_per_s"] = static_cast<double>(plain.rows.size()) / plain.wall_s;
    m["peak_rss_mb"] = peak_rss_bytes() / (1024.0 * 1024.0);
    // The workers' heap arenas make the end-of-run RSS jitter; the peak
    // is steady.
    m["bytes_per_site"] =
        (peak_rss_bytes() - plain.rss_before) / static_cast<double>(sites);
    add_simulated_metrics(out, plain.rows, Rows::kAll);
    return out;
  }

  SpanLog spans;
  const FabricPass traced = run_pass(grid, opts.work_dir, &spans);
  record_failures(out, traced, jobs);
  out.attempted += jobs;
  double local_s = 0.0;
  std::vector<double> job_s;
  {
    ScopedSpan span(&spans, "run_local (serial reference)");
    const double t = now_s();
    const std::string local = run_local_bytes(grid);
    local_s = now_s() - t;
    if (local != plain.merged || local != traced.merged) {
      out.errors.push_back("merged bytes differ from run_local");
      out.failed = out.attempted;
    }
  }
  {
    ScopedSpan span(&spans, "per-job reference");
    for (std::size_t i = 0; i < jobs; ++i) {
      const double t = now_s();
      (void)grid.run_job(i);
      job_s.push_back(now_s() - t);
    }
  }
  if (!opts.trace_out.empty()) {
    spans.write_chrome_trace(opts.trace_out, "perfbench fabric-grid");
  }
  double busy = 0.0;
  for (double s : job_s) busy += s;
  add_algo_result_metrics(out, traced.rows);
  add_calibration_metrics(out, 32, opts.seed);
  add_reference_job_metrics(out, job_s);
  m["fabric.leases"] = static_cast<double>(traced.leases);
  m["fabric.steals"] = static_cast<double>(plain.steals + traced.steals);
  m["fabric.worker_aborts"] =
      static_cast<double>(warmup_aborts + plain.aborts + traced.aborts);
  m["fabric.speedup"] = local_s / traced.wall_s;
  m["fabric.busy_share"] = busy / (worker_count() * traced.wall_s);
  m["obs.trace_overhead"] = traced.wall_s / plain.wall_s;
  return out;
}

}  // namespace perfbench
