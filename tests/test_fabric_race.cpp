// Start-race stress for the file-spool fabric: a coordinator and three
// workers start at the same instant on a fresh spool, again and again.
//
// At start-up every spool file is being created while peers poll for it:
// workers read manifest.json as the coordinator renames it into place, and
// the coordinator reads results/lease_<k>.jsonl as workers rename theirs.
// A reader that decides "absent" with a second syscall after a failed open
// races that rename and throws. Every iteration must exit 0 on all four
// threads and merge byte-identical to fabric::run_local.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fabric/coordinator.hpp"
#include "fabric/grid.hpp"
#include "fabric/merge.hpp"
#include "fabric/worker.hpp"

namespace mra::fabric {
namespace {

namespace fs = std::filesystem;

constexpr int kIterations = 50;
constexpr int kWorkers = 3;
constexpr const char* kWorkerNames[kWorkers] = {"w0", "w1", "w2"};

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(FabricStartRace, SimultaneousStartMergesLikeLocalEveryIteration) {
  GridSpec grid;
  grid.kind = GridKind::kSweep;
  grid.scenarios = {"paper-phi4", "heterogeneous", "open-loop"};
  grid.algorithms = {"lass", "lass-loan"};
  grid.quick = true;

  std::ostringstream local;
  ASSERT_EQ(run_local(grid, 0, local, ""), 0);
  const std::string reference = local.str();
  ASSERT_FALSE(reference.empty());

  for (int iter = 0; iter < kIterations; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const std::string spool =
        ::testing::TempDir() + "mra_fabric_race_" + std::to_string(iter);
    fs::remove_all(spool);

    CoordinatorOptions copts;
    copts.spool = spool;
    copts.chunk = 1;
    copts.poll_interval_sec = 0.001;
    copts.out_path = spool + ".merged.json";

    std::latch start(kWorkers + 1);
    std::atomic<int> coordinator_code{-1};
    std::vector<std::atomic<int>> worker_codes(kWorkers);
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      start.arrive_and_wait();
      coordinator_code = run_coordinator(grid, copts);
    });
    for (int w = 0; w < kWorkers; ++w) {
      worker_codes[static_cast<std::size_t>(w)] = -1;
      threads.emplace_back([&, w] {
        WorkerOptions wopts;
        wopts.spool = spool;
        wopts.name = kWorkerNames[w];
        wopts.poll_interval_sec = 0.001;
        start.arrive_and_wait();
        worker_codes[static_cast<std::size_t>(w)] = run_worker(wopts);
      });
    }
    for (std::thread& t : threads) t.join();

    EXPECT_EQ(coordinator_code.load(), 0);
    for (int w = 0; w < kWorkers; ++w) {
      EXPECT_EQ(worker_codes[static_cast<std::size_t>(w)].load(), 0)
          << "worker " << kWorkerNames[w];
    }
    EXPECT_EQ(read_all(copts.out_path), reference);
    fs::remove_all(spool);
    fs::remove(copts.out_path);
  }
}

}  // namespace
}  // namespace mra::fabric
