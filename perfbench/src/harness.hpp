// Shared machinery of the benchmark driver: host clocks, spans, the layer
// observer, memory probes, output hashing and the per-pass result record.
//
// Everything here sits outside the library: layers are timed by calls into
// their public functions and through the public check::Observer seam, never
// by instrumentation inside src/.
#pragma once

#include <cstdint>
#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "algo/factory.hpp"
#include "check/event.hpp"
#include "experiment/experiment.hpp"
#include "experiment/json.hpp"

namespace perfbench {

/// Which job one invocation of the driver does.
///   kRun        the workload's fixed work, untraced: end-to-end metrics.
///   kTraced     an untraced pass, then a traced pass with spans and the
///               layer observer, plus calibration: per-layer metrics.
///   kReference  the workload's output through the library's own reference
///               path (run_experiment, replay_trace, run_local, explore),
///               for checking a seed that has no pinned hash.
enum class Mode { kRun, kTraced, kReference };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  Mode mode = Mode::kRun;
  std::string work_dir = ".bench_work";  ///< scratch files (fabric spool)
  std::string trace_out;                 ///< kTraced: Chrome trace JSON
};

/// What one invocation reports. `hash` is the output hash the caller
/// compares with the pin (default seed) or with a kReference invocation.
struct PassResult {
  std::map<std::string, double> metrics;
  std::string hash;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

/// Writes `r` as one JSON line on stdout: {"hash", "attempted", "failed",
/// "errors", "metrics"} (non-finite values as null).
void print_result(const PassResult& r);

/// Host seconds since a fixed process-local origin (steady clock).
[[nodiscard]] double now_s();

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
[[nodiscard]] std::string fnv1a_hex(std::string_view bytes);

/// Resident set size now and its high-water mark, in bytes (VmRSS, VmHWM).
[[nodiscard]] double rss_bytes();
[[nodiscard]] double peak_rss_bytes();

/// The `experiment/json` bytes of `results`, the form every simulation
/// workload hashes.
[[nodiscard]] std::string results_json(
    const std::string& tool,
    const std::vector<mra::experiment::LabeledResult>& results);

// ---------------------------------------------------------------------------
// Host-speed index for timing on a shared host.
// ---------------------------------------------------------------------------

/// While alive, a thread runs a fixed kernel that uses nothing from the
/// library (a 512-entry priority-queue event loop with small heap
/// allocations and map updates: the shape of a simulator's hot loop) and
/// counts its steps. On a shared host the speed of every core drifts by
/// ±25% over tens of seconds; the probe, running at the same time as the
/// timed work, sees the same drift, so timings scaled by speed() compare
/// across runs. The probe occupies one more core than the work it times.
class HostSpeedProbe {
 public:
  HostSpeedProbe();
  ~HostSpeedProbe();
  HostSpeedProbe(const HostSpeedProbe&) = delete;
  HostSpeedProbe& operator=(const HostSpeedProbe&) = delete;

  /// The probe's step rate since construction over the reference host's
  /// rate (3.4M steps/s): below 1 while the host runs slower.
  [[nodiscard]] double speed() const;

 private:
  void run();

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> steps_{0};
  double start_s_ = 0.0;
  std::thread thread_;  ///< last: it reads the members above
};

/// Scales the host-time end-to-end metrics (wall_s, setup_s and the three
/// per-second rates) of an untraced pass to the reference host speed, and
/// records the factor as host.speed.
void normalize_timing(PassResult& out, double speed);

// ---------------------------------------------------------------------------
// Spans: job- and phase-granularity intervals, kept in memory and written
// once as Chrome trace-event JSON (scripts/check_trace_json.py validates it).
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  /// Opens a span on thread lane `tid`; returns its handle for end().
  std::size_t begin(std::string name, int tid = 0);
  void end(std::size_t handle);

  /// Writes {"displayTimeUnit":"ms","traceEvents":[...]}: process and
  /// thread-name metadata, then one X slice per span in start order.
  void write_chrome_trace(const std::string& path,
                          const std::string& process_name) const;

 private:
  struct Span {
    std::string name;
    int tid = 0;
    int depth = 0;
    double start_s = 0.0;
    double end_s = -1.0;
  };
  mutable std::mutex mu_;  ///< guards spans_ and open_ (fabric threads)
  std::vector<Span> spans_;
  std::map<int, int> open_;  ///< open spans per lane, for nesting depth
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int tid = 0)
      : log_(log), handle_(log ? log->begin(std::move(name), tid) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t handle_;
};

// ---------------------------------------------------------------------------
// Layer attribution through the check::Observer seam.
// ---------------------------------------------------------------------------

enum class Layer : std::size_t { kSim, kNet, kAlgo, kCount };

/// Host time between consecutive hooks goes to the layer the earlier hook
/// names: on_advance -> sim, kSend -> net, kDeliver and the CS-lifecycle
/// events -> algo. Between begin_run() and end_run() the intervals
/// telescope, so the three sums add up to the run phase's host time
/// exactly. Also counts what the hooks see: instants, messages and bytes
/// per kind, requests issued and completed, and the queue-depth and
/// in-flight peaks (exact, deterministic counts).
class LayerObserver final : public mra::check::Observer {
 public:
  /// Wires this observer into the simulator, network and every node.
  void attach(mra::algo::AllocationSystem& system);

  /// Starts attributing host time; `system` is read for queue depth and
  /// in-flight gauges until end_run().
  void begin_run(mra::algo::AllocationSystem& system);
  void end_run();

  void on_event(const mra::check::Event& event) override;
  void on_advance(mra::sim::SimTime now) override;

  double seconds[static_cast<std::size_t>(Layer::kCount)] = {};
  std::uint64_t instants = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t queue_depth_peak = 0;
  std::uint64_t in_flight_peak = 0;
  std::map<std::string, std::uint64_t, std::less<>> msgs_by_kind;

 private:
  void switch_to(Layer next);

  mra::algo::AllocationSystem* system_ = nullptr;
  Layer current_ = Layer::kSim;
  double last_s_ = 0.0;
};

/// Every message kind the protocols send, so each traced run reports the
/// same `net.msgs.<Kind>` names (0 for kinds a workload never sends).
[[nodiscard]] const std::vector<std::string>& all_message_kinds();

/// Adds the sim/net/algo per-layer metrics of a traced pass: counts from
/// `obs`, host-time splits over `traced_wall_s`, plus `events` (simulator
/// events processed) and `queue_slots` (summed queue_capacity()).
void add_layer_metrics(PassResult& out, const LayerObserver& obs,
                       std::uint64_t events, std::uint64_t queue_slots,
                       double traced_wall_s);

/// experiment.jobs, experiment.job_s_p50 and experiment.job_s_max from the
/// host seconds of each job of the serial reference path.
void add_reference_job_metrics(PassResult& out,
                               const std::vector<double>& job_s);

/// Per-algorithm simulated messages per completed CS over `results`
/// (`algo.msgs_per_cs.<cli name>`, 0 for algorithms not run), plus the
/// loan counters.
void add_algo_result_metrics(
    PassResult& out,
    const std::vector<mra::experiment::LabeledResult>& results);

/// Which rows the simulated end-to-end metrics summarize.
enum class Rows { kLassWithLoan, kAll };

/// The simulated end-to-end metrics over `rows` of `results`: mean use rate
/// and waiting time, p99 of the pooled waiting sketch, and messages per
/// completed CS.
void add_simulated_metrics(
    PassResult& out,
    const std::vector<mra::experiment::LabeledResult>& results, Rows rows);

/// Host seconds per simulator event of a pure timer loop and per message of
/// a ping ring at `num_sites`, built as bench/micro_engine builds them: a
/// second estimate of sim.ns_per_event and net.ns_per_msg.
void add_calibration_metrics(PassResult& out, int num_sites,
                             std::uint64_t seed);

/// Fills the per-layer names a workload does not exercise with 0, so every
/// traced run reports the same metric set.
void fill_missing_layer_metrics(PassResult& out);

}  // namespace perfbench
