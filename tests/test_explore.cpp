// The schedule explorer: DPOR enumeration (exact golden schedule counts,
// canonical-first ordering, forced-prefix replay), sweep thread-invariance,
// and — in MRA_CHECK_MUTANTS builds — a seeded bug found in every run mode
// with a self-contained v2 repro.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/dpor.hpp"
#include "check/explore.hpp"
#include "check/mutant.hpp"
#include "scenario/trace.hpp"

namespace mra::check {
namespace {

bool has_oracle(const std::vector<Violation>& violations,
                const std::string& oracle) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) { return v.oracle == oracle; });
}

std::string file_name(const std::string& path) {
  return std::filesystem::path(path).filename().string();
}

// ---------------------------------------------------------------------------
// DporScheduler unit semantics
// ---------------------------------------------------------------------------

TEST(DporScheduler, FirstScheduleIsCanonicalAndEnumerationIsExact) {
  DporScheduler s{DporConfig{}};
  s.begin_run();
  // A batch of three same-instant events: two at site 0, one at site 1.
  const std::vector<int> tags = {0, 0, 1};
  std::vector<std::size_t> order = {0, 1, 2};
  s.on_round(0, tags, order);
  // Schedule #1 is always the canonical (time, seq) order.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(s.stats().choice_points, 1u);
  // The same-tag pair has 2 orderings; the cross-tag interleaving commutes
  // and is never enumerated: 3! = 6 total, 2 kept, 4 pruned.
  EXPECT_EQ(s.stats().orderings_pruned, 4u);

  ASSERT_TRUE(s.advance());
  s.begin_run();
  order = {0, 1, 2};
  s.on_round(0, tags, order);
  // Schedule #2 swaps the same-tag pair; the other event stays put.
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 0, 2}));

  EXPECT_FALSE(s.advance());
  EXPECT_TRUE(s.stats().complete);
  EXPECT_FALSE(s.stats().truncated);
  EXPECT_EQ(s.stats().schedules_executed, 2u);
}

TEST(DporScheduler, NoCommuteTagPinsEventsToCanonicalOrder) {
  DporScheduler s{DporConfig{}};
  s.begin_run();
  const std::vector<int> tags = {sim::Simulator::kNoCommuteTag,
                                 sim::Simulator::kNoCommuteTag};
  std::vector<std::size_t> order = {0, 1};
  s.on_round(0, tags, order);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(s.stats().choice_points, 0u);
  EXPECT_FALSE(s.advance());  // nothing to explore
  EXPECT_TRUE(s.stats().complete);
}

TEST(DporScheduler, ForcedPrefixReplaysTheRecordedSchedule) {
  DporConfig cfg;
  cfg.forced_prefix = {1};
  cfg.max_schedules = 1;
  DporScheduler s(cfg);
  s.begin_run();
  const std::vector<int> tags = {2, 2};
  std::vector<std::size_t> order = {0, 1};
  s.on_round(5, tags, order);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 0}));  // choice 1 = swapped
  EXPECT_EQ(s.choices(), (std::vector<std::uint64_t>{1}));
  EXPECT_FALSE(s.advance());  // budget of one schedule spent
}

TEST(DporDriver, ExploreSchedulesStopsWhenTheBodyAsks) {
  int runs = 0;
  const DporStats stats =
      explore_schedules(DporConfig{}, [&](DporScheduler&) {
        ++runs;
        return true;  // "violation found"
      });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(stats.schedules_executed, 1u);
  EXPECT_FALSE(stats.complete);
}

// ---------------------------------------------------------------------------
// Golden exhaustive enumeration on the tiny configurations. These counts are
// the explorer's contract: a change in the simulator's instant batching, the
// commute tagging, or the reduction shows up here as a count shift.
// ---------------------------------------------------------------------------

TEST(ExhaustiveMutex, GoldenTinyNtConfigEnumeratesExactScheduleCount) {
  MutexExploreConfig cfg;
  cfg.protocols = {MutexProtocol::kNaimiTrehel};
  cfg.num_sites = 3;
  cfg.requests_per_site = 2;
  const ExploreReport a = explore_mutex_exhaustive(cfg, DporConfig{});
  EXPECT_EQ(a.runs, 6u);
  EXPECT_EQ(a.schedules_executed, 6u);
  EXPECT_EQ(a.choice_points, 1u);
  EXPECT_EQ(a.orderings_pruned, 0u);
  EXPECT_TRUE(a.exhaustive_complete);
  EXPECT_FALSE(a.exhaustive_truncated);
  EXPECT_TRUE(a.found.empty());
  EXPECT_EQ(a.violating_runs, 0u);

  // Pure function of (config, dpor): bit-identical coverage on a re-run.
  const ExploreReport b = explore_mutex_exhaustive(cfg, DporConfig{});
  EXPECT_EQ(b.runs, a.runs);
  EXPECT_EQ(b.choice_points, a.choice_points);
  EXPECT_EQ(b.orderings_pruned, a.orderings_pruned);
}

TEST(ExhaustiveCmRing, GoldenRingEnumeratesCompletelyAndStaysClean) {
  CmRingExploreConfig cfg;
  cfg.num_sites = 4;
  cfg.requests_per_site = 2;
  const ExploreReport r = explore_cm_ring_exhaustive(cfg, DporConfig{});
  EXPECT_EQ(r.runs, 4u);
  EXPECT_EQ(r.choice_points, 3u);
  EXPECT_EQ(r.orderings_pruned, 66u);
  EXPECT_TRUE(r.exhaustive_complete);
  EXPECT_TRUE(r.found.empty());
}

TEST(ExhaustiveScenario, TinySpecCompletesDeterministically) {
  const scenario::ScenarioSpec spec = tiny_exhaustive_spec();
  const ExploreReport a = explore_scenario_exhaustive(
      spec, algo::Algorithm::kLassWithLoan, MonitorConfig{}, DporConfig{});
  EXPECT_EQ(a.schedules_executed, 16u);
  EXPECT_TRUE(a.exhaustive_complete);
  EXPECT_TRUE(a.found.empty());

  const ExploreReport b = explore_scenario_exhaustive(
      spec, algo::Algorithm::kLassWithLoan, MonitorConfig{}, DporConfig{});
  EXPECT_EQ(b.schedules_executed, a.schedules_executed);
  EXPECT_EQ(b.choice_points, a.choice_points);
  EXPECT_EQ(b.orderings_pruned, a.orderings_pruned);
}

TEST(ExhaustiveMutex, AllThreeProtocolsCleanUnderEnumeration) {
  for (MutexProtocol p : all_mutex_protocols()) {
    MutexExploreConfig cfg;
    cfg.protocols = {p};
    cfg.num_sites = 3;
    cfg.requests_per_site = 2;
    DporConfig dpor;
    dpor.max_schedules = 500;  // bound RA/SK's larger schedule spaces
    const ExploreReport r = explore_mutex_exhaustive(cfg, dpor);
    EXPECT_TRUE(r.found.empty()) << to_string(p);
    EXPECT_GE(r.runs, 1u) << to_string(p);
  }
}

TEST(ExhaustiveMutex, TakesExactlyOneProtocol) {
  // One schedule space per run: a second protocol would be ignored while
  // the report still claimed complete coverage.
  MutexExploreConfig cfg;
  cfg.num_sites = 3;
  cfg.requests_per_site = 2;
  cfg.protocols = {MutexProtocol::kNaimiTrehel, MutexProtocol::kSuzukiKasami};
  EXPECT_THROW((void)explore_mutex_exhaustive(cfg, DporConfig{}),
               std::invalid_argument);
  cfg.protocols.clear();
  EXPECT_THROW((void)explore_mutex_exhaustive(cfg, DporConfig{}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Thread-count invariance: the sweep is sharded in fixed waves scanned in
// case order, so the report is a pure function of the config.
// ---------------------------------------------------------------------------

TEST(ExplorerThreads, MutexFuzzReportIndependentOfThreadCount) {
  MutexExploreConfig cfg;
  cfg.protocols = all_mutex_protocols();
  cfg.num_sites = 5;
  cfg.requests_per_site = 8;
  cfg.seeds_per_case = 4;  // 12 cases: spans two waves
  cfg.threads = 1;
  const ExploreReport a = explore_mutex(cfg);
  cfg.threads = 4;
  const ExploreReport b = explore_mutex(cfg);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.violating_runs, b.violating_runs);
  EXPECT_EQ(a.found.size(), b.found.size());
}

TEST(ExplorerThreads, ScenarioFuzzReportIndependentOfThreadCount) {
  ExploreConfig cfg;
  cfg.scenarios = {tiny_exhaustive_spec()};
  cfg.algorithms = {algo::Algorithm::kLassWithLoan,
                    algo::Algorithm::kIncremental};
  cfg.seeds_per_case = 3;
  cfg.threads = 1;
  const ExploreReport a = explore(cfg);
  cfg.threads = 4;
  const ExploreReport b = explore(cfg);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.violating_runs, b.violating_runs);
  EXPECT_EQ(a.found.size(), b.found.size());
}

// ---------------------------------------------------------------------------
// A seeded bug is found in every run mode, with a self-contained repro.
// ---------------------------------------------------------------------------

class ExploreMutantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!mutants_compiled_in()) {
      GTEST_SKIP() << "build without MRA_CHECK_MUTANTS";
    }
  }
  void TearDown() override { set_active_mutant(Mutant::kNone); }
};

TEST_F(ExploreMutantTest, NtDropTokenFoundInEveryModeWithSelfContainedRepro) {
  set_active_mutant(Mutant::kMutexNtDropToken);
  MutexExploreConfig cfg;
  cfg.protocols = {MutexProtocol::kNaimiTrehel};
  cfg.num_sites = 3;
  cfg.requests_per_site = 2;
  cfg.seeds_per_case = 4;
  cfg.trace_dir = ::testing::TempDir();

  // Fuzz mode.
  const ExploreReport fuzz = explore_mutex(cfg);
  ASSERT_FALSE(fuzz.found.empty()) << "fuzz mode missed the dropped token";
  EXPECT_TRUE(has_oracle(fuzz.found.front().violations, "deadlock"));

  // Exhaustive mode: the canonical schedule already deadlocks, so the bug
  // is found in run #1 — deterministically.
  const ExploreReport ex = explore_mutex_exhaustive(cfg, DporConfig{});
  ASSERT_FALSE(ex.found.empty()) << "exhaustive mode missed it";
  EXPECT_EQ(ex.runs, 1u);
  const FoundViolation& f = ex.found.front();
  EXPECT_TRUE(has_oracle(f.violations, "deadlock"));

  // The saved trace is a *self-contained* v2 repro: algorithm and mutant in
  // the header, and the replay activates the mutant itself — deactivate the
  // global one to prove it.
  ASSERT_FALSE(f.trace_path.empty());
  const scenario::RequestTrace repro = scenario::load_trace(f.trace_path);
  EXPECT_EQ(repro.algorithm, "nt");
  EXPECT_EQ(repro.mutant, "mutex-nt-drop-token");
  set_active_mutant(Mutant::kNone);
  EXPECT_TRUE(has_oracle(check_replay(repro), "deadlock"))
      << "v2 repro trace alone did not re-trigger the deadlock";
}

// The exhaustive scenario and ring harnesses stop at the first violating
// schedule, keep its choice stack and save a repro that replays on its own.
TEST_F(ExploreMutantTest, LassPrematureEntryFoundExhaustivelyOnTinySpec) {
  set_active_mutant(Mutant::kLassPrematureEntry);
  const ExploreReport r = explore_scenario_exhaustive(
      tiny_exhaustive_spec(), algo::Algorithm::kLassWithoutLoan,
      MonitorConfig{}, DporConfig{}, ::testing::TempDir());
  ASSERT_EQ(r.found.size(), 1u);
  EXPECT_EQ(r.runs, 1u);
  EXPECT_EQ(r.violating_runs, 1u);
  EXPECT_EQ(r.choice_points, 0u);
  const FoundViolation& f = r.found.front();
  EXPECT_TRUE(has_oracle(f.violations, "mutual-exclusion"));
  // The canonical schedule already violates before its first choice
  // point, so the choice stack that forces it is empty.
  EXPECT_TRUE(f.commutation.empty());
  EXPECT_TRUE(f.replay_reproduces);
  EXPECT_EQ(f.trace_events, 3u);
  EXPECT_EQ(file_name(f.trace_path),
            "repro_tiny-exhaustive_lass-exhaustive_s1.mra");
  const scenario::RequestTrace repro = scenario::load_trace(f.trace_path);
  set_active_mutant(Mutant::kNone);
  EXPECT_TRUE(has_oracle(check_replay(repro), "mutual-exclusion"));
}

TEST_F(ExploreMutantTest, CmForkBottleConfusionFoundExhaustivelyOnTheRing) {
  set_active_mutant(Mutant::kCmForkBottleConfusion);
  CmRingExploreConfig cfg;
  cfg.num_sites = 4;
  cfg.trace_dir = ::testing::TempDir();
  const ExploreReport r = explore_cm_ring_exhaustive(cfg, DporConfig{});
  ASSERT_EQ(r.found.size(), 1u);
  EXPECT_EQ(r.runs, 1u);
  EXPECT_EQ(r.violating_runs, 1u);
  EXPECT_EQ(r.choice_points, 2u);
  EXPECT_EQ(r.orderings_pruned, 44u);
  const FoundViolation& f = r.found.front();
  EXPECT_TRUE(has_oracle(f.violations, "mutual-exclusion"));
  EXPECT_EQ(f.commutation, (std::vector<std::uint64_t>{0, 0}));
  EXPECT_TRUE(f.replay_reproduces);
  EXPECT_EQ(f.trace_events, 4u);
  EXPECT_EQ(file_name(f.trace_path), "repro_cm-ring-exhaustive_s1.mra");
  const scenario::RequestTrace repro = scenario::load_trace(f.trace_path);
  set_active_mutant(Mutant::kNone);
  EXPECT_TRUE(has_oracle(check_replay(repro), "mutual-exclusion"));
}

TEST_F(ExploreMutantTest, FuzzThreadInvarianceHoldsOnViolatingSweeps) {
  set_active_mutant(Mutant::kMutexNtDropToken);
  MutexExploreConfig cfg;
  cfg.protocols = {MutexProtocol::kNaimiTrehel};
  cfg.num_sites = 3;
  cfg.requests_per_site = 2;
  cfg.seeds_per_case = 4;
  cfg.stop_on_first = true;
  cfg.threads = 1;
  const ExploreReport a = explore_mutex(cfg);
  cfg.threads = 4;
  const ExploreReport b = explore_mutex(cfg);
  ASSERT_FALSE(a.found.empty());
  ASSERT_FALSE(b.found.empty());
  // Same first violation: seed, drawn bound, oracle — regardless of which
  // worker thread happened to execute the violating run.
  EXPECT_EQ(a.found.front().seed, b.found.front().seed);
  EXPECT_EQ(a.found.front().delay_bound, b.found.front().delay_bound);
  EXPECT_EQ(a.runs, b.runs);
}

}  // namespace
}  // namespace mra::check
