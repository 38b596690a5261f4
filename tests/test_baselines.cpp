// Baseline-specific behaviour: Bouabdallah-Laforest control-token variants,
// the central scheduler's policies, Maddi's broadcast pattern, Chandy-Misra
// on explicit conflict graphs, and the mark-function library.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "algo/chandy_misra.hpp"
#include "core/mark.hpp"
#include "experiment/experiment.hpp"
#include "harness.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"

namespace mra {
namespace {

// --- Bouabdallah-Laforest ---------------------------------------------------

TEST(BouabdallahLaforest, EarlyCtReleaseOutperformsGlobalLock) {
  auto run = [](bool early) {
    experiment::ExperimentConfig cfg;
    cfg.system.algorithm = algo::Algorithm::kBouabdallahLaforest;
    cfg.system.num_sites = 12;
    cfg.system.num_resources = 20;
    cfg.system.seed = 3;
    cfg.system.bl_release_control_token_early = early;
    cfg.workload = workload::high_load(4, 20);
    cfg.warmup = sim::from_ms(200);
    cfg.measure = sim::from_ms(4000);
    return experiment::run_experiment(cfg);
  };
  const auto early = run(true);
  const auto held = run(false);
  EXPECT_GT(early.requests_completed, 50u);
  EXPECT_GT(held.requests_completed, 50u);
  // Registration-only release overlaps acquisitions -> strictly better.
  EXPECT_GT(early.use_rate, held.use_rate);
  EXPECT_LT(early.waiting_mean_ms, held.waiting_mean_ms);
}

TEST(BouabdallahLaforest, BothVariantsPassStress) {
  for (bool early : {false, true}) {
    // run_stress uses the factory default; drive variant via a one-off
    // experiment for the early case instead.
    experiment::ExperimentConfig cfg;
    cfg.system.algorithm = algo::Algorithm::kBouabdallahLaforest;
    cfg.system.num_sites = 8;
    cfg.system.num_resources = 6;
    cfg.system.seed = 17;
    cfg.system.bl_release_control_token_early = early;
    cfg.workload = workload::high_load(6, 6);  // max conflicts
    cfg.warmup = sim::from_ms(100);
    cfg.measure = sim::from_ms(3000);
    const auto r = experiment::run_experiment(cfg);
    EXPECT_GT(r.requests_completed, 50u) << "variant early=" << early;
  }
}

// --- Central scheduler -------------------------------------------------------

TEST(CentralScheduler, BackfillBeatsStrictFifo) {
  auto run = [](bool strict) {
    experiment::ExperimentConfig cfg;
    cfg.system.algorithm = algo::Algorithm::kCentralSharedMemory;
    cfg.system.num_sites = 16;
    cfg.system.num_resources = 24;
    cfg.system.seed = 21;
    cfg.system.central_strict_fifo = strict;
    cfg.workload = workload::high_load(8, 24);
    cfg.warmup = sim::from_ms(100);
    cfg.measure = sim::from_ms(3000);
    return experiment::run_experiment(cfg);
  };
  const auto backfill = run(false);
  const auto fifo = run(true);
  EXPECT_GT(backfill.use_rate, fifo.use_rate)
      << "in-order backfill must dominate head-of-line blocking";
}

TEST(CentralScheduler, StrictFifoPreservesOrderUnderConflict) {
  // With a single resource, grants must follow submission order exactly.
  algo::CentralConfig cfg;
  cfg.num_sites = 4;
  cfg.num_resources = 1;
  cfg.strict_fifo = true;
  sim::Simulator sim;
  algo::CentralCoordinator coord(cfg, sim);
  std::vector<std::unique_ptr<algo::CentralNode>> nodes;
  std::vector<SiteId> grant_order;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<algo::CentralNode>(cfg, coord));
    // CentralNode never touches the network; assign ids manually via a tiny
    // trick: submission order below identifies them.
  }
  ResourceSet r0(1, {0});
  for (int i = 0; i < 4; ++i) {
    auto* node = nodes[static_cast<std::size_t>(i)].get();
    node->set_grant_callback([&grant_order, i, node, &sim](RequestId) {
      grant_order.push_back(static_cast<SiteId>(i));
      sim.schedule_in(10, [node]() { node->release(); });
    });
  }
  // Submit in reverse id order to make FIFO != id order.
  for (int i = 3; i >= 0; --i) {
    nodes[static_cast<std::size_t>(i)]->request(r0);
  }
  sim.run();
  EXPECT_EQ(grant_order, (std::vector<SiteId>{3, 2, 1, 0}));
}

// --- Maddi -------------------------------------------------------------------

TEST(Maddi, MessageCountScalesWithN) {
  auto msgs_per_cs = [](int n) {
    test::StressOptions opt;
    opt.algorithm = algo::Algorithm::kMaddi;
    opt.num_sites = n;
    opt.num_resources = 12;
    opt.phi = 3;
    opt.requests_per_site = 20;
    opt.seed = 9;
    const auto out = test::run_stress(opt);
    return static_cast<double>(out.messages) /
           static_cast<double>(out.completed);
  };
  const double small = msgs_per_cs(6);
  const double large = msgs_per_cs(24);
  // Broadcast: every request costs at least N-1 messages.
  EXPECT_GE(small, 5.0);
  EXPECT_GT(large, small * 2.5);
}

// --- Chandy-Misra -------------------------------------------------------------

struct CmRing {
  sim::Simulator sim;
  net::Network net{sim, net::make_fixed_latency(sim::from_ms(0.5)), 7};
  std::vector<std::unique_ptr<algo::ChandyMisraNode>> nodes;
  algo::ChandyMisraConfig cfg;

  explicit CmRing(int n) {
    cfg.num_sites = n;
    for (int i = 0; i < n; ++i) {
      cfg.sharers.emplace_back(static_cast<SiteId>(i),
                               static_cast<SiteId>((i + 1) % n));
    }
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<algo::ChandyMisraNode>(cfg));
      net.add_node(*nodes.back());
    }
    net.start();
  }
};

TEST(ChandyMisra, RingDrinkingSafetyAndLiveness) {
  const int n = 8;
  CmRing ring(n);
  sim::Rng rng(33);
  ResourceSet busy(n);
  std::vector<int> remaining(static_cast<std::size_t>(n), 25);
  int completed = 0;

  std::function<void(SiteId)> thirsty = [&](SiteId s) {
    if (remaining[static_cast<std::size_t>(s)]-- <= 0) return;
    const ResourceId left = static_cast<ResourceId>((s + n - 1) % n);
    const ResourceId right = static_cast<ResourceId>(s);
    ResourceSet want(n);
    switch (rng.uniform_int(0, 2)) {
      case 0: want.insert(left); break;
      case 1: want.insert(right); break;
      default: want.insert(left); want.insert(right);
    }
    ring.nodes[static_cast<std::size_t>(s)]->request(want);
  };

  for (SiteId s = 0; s < n; ++s) {
    auto* node = ring.nodes[static_cast<std::size_t>(s)].get();
    node->set_grant_callback([&, s, node](RequestId) {
      const ResourceSet& rs = node->current_request();
      EXPECT_FALSE(rs.intersects(busy)) << "two philosophers share a bottle";
      busy |= rs;
      ring.sim.schedule_in(sim::from_ms(1), [&, node]() {
        busy -= node->current_request();
        ++completed;
        node->release();
      });
    });
    ring.sim.schedule_in(
        static_cast<sim::SimDuration>(rng.uniform_int(0, 1'000'000)),
        [&, s]() { thirsty(s); });
  }
  // Refill: after each release, go thirsty again (drive from a poller).
  std::function<void()> refill = [&]() {
    for (SiteId s = 0; s < n; ++s) {
      auto* node = ring.nodes[static_cast<std::size_t>(s)].get();
      if (node->state() == ProcessState::kIdle &&
          remaining[static_cast<std::size_t>(s)] > 0) {
        thirsty(s);
      }
    }
    if (completed < 25 * n) ring.sim.schedule_in(sim::from_ms(2), refill);
  };
  ring.sim.schedule_in(sim::from_ms(2), refill);

  ring.sim.run();
  EXPECT_EQ(completed, 25 * n);
}

TEST(ChandyMisra, RejectsNonIncidentRequest) {
  CmRing ring(4);
  ResourceSet far(4);
  far.insert(2);  // resource 2 joins sites 2 and 3, not site 0
  EXPECT_THROW(ring.nodes[0]->request(far), std::invalid_argument);
}

TEST(ChandyMisra, InitialBottlePlacementAtLowerId) {
  CmRing ring(4);
  // Resource i is shared by (i, i+1): lower id holds the bottle initially.
  EXPECT_TRUE(ring.nodes[0]->holds_bottle(0));
  EXPECT_FALSE(ring.nodes[1]->holds_bottle(0));
  // Edge (3, 0): site 0 is the lower id.
  EXPECT_TRUE(ring.nodes[0]->holds_bottle(3));
  EXPECT_FALSE(ring.nodes[3]->holds_bottle(3));
}

TEST(ChandyMisra, BadConfigThrows) {
  algo::ChandyMisraConfig cfg;
  cfg.num_sites = 3;
  cfg.sharers = {{0, 0}};  // self-loop
  EXPECT_THROW(algo::ChandyMisraNode{cfg}, std::invalid_argument);
  cfg.sharers = {{0, 5}};  // out of range
  EXPECT_THROW(algo::ChandyMisraNode{cfg}, std::invalid_argument);
}

// --- mark functions -----------------------------------------------------------

TEST(MarkFunctions, AverageNonZeroMatchesPaper) {
  // A = average of the non-null counter values (§5).
  EXPECT_DOUBLE_EQ(average_non_zero({0, 4, 0, 8}), 6.0);
  EXPECT_DOUBLE_EQ(average_non_zero({0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(average_non_zero({5}), 5.0);
}

TEST(MarkFunctions, PolicyLibrary) {
  const CounterVector v = {0, 3, 9, 0, 6};
  EXPECT_DOUBLE_EQ(make_mark_function(MarkPolicy::kAverageNonZero)(v), 6.0);
  EXPECT_DOUBLE_EQ(make_mark_function(MarkPolicy::kMaxValue)(v), 9.0);
  EXPECT_DOUBLE_EQ(make_mark_function(MarkPolicy::kSumNonZero)(v), 18.0);
  EXPECT_DOUBLE_EQ(make_mark_function(MarkPolicy::kMinNonZero)(v), 3.0);
}

TEST(MarkFunctions, AccumulatorMatchesDenseLoopsForEveryPolicy) {
  // The nodes fold counters one at a time; these loops are the dense
  // definitions over the paper's MyVector, zeros meaning "not requested".
  const auto dense = [](MarkPolicy p, const CounterVector& v) {
    double sum = 0.0;
    CounterValue max = 0;
    CounterValue min = 0;
    int n = 0;
    for (CounterValue c : v) {
      if (c == 0) continue;
      sum += static_cast<double>(c);
      max = std::max(max, c);
      min = n == 0 ? c : std::min(min, c);
      ++n;
    }
    switch (p) {
      case MarkPolicy::kAverageNonZero: return n == 0 ? 0.0 : sum / n;
      case MarkPolicy::kMaxValue: return static_cast<double>(max);
      case MarkPolicy::kSumNonZero: return sum;
      case MarkPolicy::kMinNonZero: return static_cast<double>(min);
    }
    return -1.0;
  };
  sim::Rng rng(17);
  std::vector<CounterVector> vectors = {CounterVector(80, 0), {0}, {7}};
  for (int i = 0; i < 200; ++i) {
    CounterVector v(static_cast<std::size_t>(rng.uniform_int(1, 80)), 0);
    for (CounterValue& c : v) {
      // About half zeros; the rest up to 10^6, far from 2^53 when summed.
      if (rng.uniform_int(0, 1) == 1) c = rng.uniform_int(1, 1'000'000);
    }
    vectors.push_back(std::move(v));
  }
  for (MarkPolicy p : {MarkPolicy::kAverageNonZero, MarkPolicy::kMaxValue,
                       MarkPolicy::kSumNonZero, MarkPolicy::kMinNonZero}) {
    const MarkFunction f = make_mark_function(p);
    for (const CounterVector& v : vectors) {
      MarkAccumulator acc;
      for (CounterValue c : v) acc.add(c);
      const double want = dense(p, v);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(acc.mark(p)),
                std::bit_cast<std::uint64_t>(want))
          << to_string(p) << ": " << acc.mark(p) << " vs " << want;
      EXPECT_EQ(f(v), want) << to_string(p);
    }
    EXPECT_EQ(f(CounterVector(80, 0)), 0.0) << to_string(p);
    MarkAccumulator acc;
    acc.add(4);
    acc.reset();
    EXPECT_EQ(acc.mark(p), 0.0) << to_string(p) << " after reset";
  }
}

TEST(MarkFunctions, RequestPrecedesTotalOrder) {
  EXPECT_TRUE(request_precedes(1.0, 5, 2.0, 1));
  EXPECT_TRUE(request_precedes(2.0, 1, 2.0, 5));   // site breaks ties
  EXPECT_FALSE(request_precedes(2.0, 5, 2.0, 5));  // irreflexive
}

}  // namespace
}  // namespace mra
