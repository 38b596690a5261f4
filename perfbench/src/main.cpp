// mra_perfbench: one pass of one benchmark workload; perfbench/run.py
// drives it. Prints one JSON line (see harness.hpp print_result).
//
//   mra_perfbench <workload> --seed N [--mode run|traced|reference]
//                 [--work-dir DIR] [--trace-out FILE]
//
// Exit codes: 0 pass printed (failures are inside the JSON), 2 usage error,
// 1 an exception escaped the workload.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: mra_perfbench paper-sweep|touch-all|fabric-grid|"
               "explore-fuzz --seed N [--mode run|traced|reference] "
               "[--work-dir DIR] [--trace-out FILE]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::Mode;
  if (argc < 2) usage();
  perfbench::Options opts;
  opts.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (arg == "--seed") {
      char* end = nullptr;
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage();
    } else if (arg == "--mode") {
      if (value == "run") {
        opts.mode = Mode::kRun;
      } else if (value == "traced") {
        opts.mode = Mode::kTraced;
      } else if (value == "reference") {
        opts.mode = Mode::kReference;
      } else {
        usage();
      }
    } else if (arg == "--work-dir") {
      opts.work_dir = value;
    } else if (arg == "--trace-out") {
      opts.trace_out = value;
    } else {
      usage();
    }
  }

  try {
    perfbench::PassResult r;
    if (opts.workload == "paper-sweep") {
      r = perfbench::run_paper_sweep(opts);
    } else if (opts.workload == "touch-all") {
      r = perfbench::run_touch_all(opts);
    } else if (opts.workload == "fabric-grid") {
      r = perfbench::run_fabric_grid(opts);
    } else if (opts.workload == "explore-fuzz") {
      r = perfbench::run_explore_fuzz(opts);
    } else {
      usage();
    }
    if (opts.mode == Mode::kTraced) {
      r.metrics["failed_frac"] =
          r.attempted == 0 ? 1.0
                           : static_cast<double>(r.failed) /
                                 static_cast<double>(r.attempted);
      perfbench::fill_missing_layer_metrics(r);
    }
    perfbench::print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "mra_perfbench: " << e.what() << "\n";
    return 1;
  }
}
