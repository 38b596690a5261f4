// LASS-specific tests: the sorted request queue, the `/` total order, the
// counter mechanism, the Figure 3 walkthrough, the loan mechanism, and
// token-conservation invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algo/factory.hpp"
#include "algo/lass/node.hpp"
#include "check/event.hpp"
#include "check/fanout.hpp"
#include "check/monitor.hpp"
#include "experiment/experiment.hpp"
#include "harness.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"

namespace mra::algo::lass {
namespace {

ReqItem res_item(ResourceId r, SiteId s, RequestId id, double mark) {
  ReqItem item;
  item.type = ReqType::kRes;
  item.r = static_cast<std::uint16_t>(r);
  item.sinit = s;
  item.id = id;
  item.mark = mark;
  return item;
}

TEST(SortedRequestQueue, OrdersByMarkThenSite) {
  SortedRequestQueue q;
  q.insert(res_item(0, 3, 1, 5.0));
  q.insert(res_item(0, 1, 1, 7.0));
  q.insert(res_item(0, 2, 1, 5.0));  // same mark as site 3: site id breaks tie
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q.head().sinit, 2);
  EXPECT_EQ(q.pop_head().sinit, 2);
  EXPECT_EQ(q.pop_head().sinit, 3);
  EXPECT_EQ(q.pop_head().sinit, 1);
}

TEST(SortedRequestQueue, OneEntryPerSiteNewerIdWins) {
  SortedRequestQueue q;
  EXPECT_TRUE(q.insert(res_item(0, 1, 1, 5.0)));
  EXPECT_FALSE(q.insert(res_item(0, 1, 1, 9.0)));  // same id ignored
  EXPECT_EQ(q.head().mark, 5.0);
  EXPECT_TRUE(q.insert(res_item(0, 1, 2, 9.0)));  // newer id replaces
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.head().mark, 9.0);
  EXPECT_FALSE(q.insert(res_item(0, 1, 1, 1.0)));  // older id ignored
  EXPECT_EQ(q.head().id, 2);
}

TEST(SortedRequestQueue, RemoveSiteAndPrune) {
  SortedRequestQueue q;
  q.insert(res_item(0, 0, 3, 1.0));
  q.insert(res_item(0, 1, 5, 2.0));
  q.insert(res_item(0, 2, 1, 3.0));
  q.insert(res_item(0, 3, 4, 4.0));
  EXPECT_TRUE(q.remove_site(1));
  EXPECT_FALSE(q.remove_site(1));
  EXPECT_EQ(q.size(), 3u);
  // Site 0 is satisfied up to id 3 -> its entry (id 3) is obsolete. Site 3
  // had a ReqCnt served up to id 7 but no CS satisfied: pruning reads only
  // the CS id, so its entry (id 4) must survive.
  SiteRequestIds ids;
  ids[3].req_cnt = 7;
  ids[0].cs = 3;
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids.get(3).cs, 0);
  EXPECT_EQ(ids.get(0).req_cnt, 0);
  // Sparse map: unlisted sites read as {0, 0}.
  const SiteIds absent = ids.get(2);
  EXPECT_EQ(absent.req_cnt, 0);
  EXPECT_EQ(absent.cs, 0);
  q.prune_obsolete(ids);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.head().sinit, 2);
  EXPECT_TRUE(q.contains_site(3));
  EXPECT_FALSE(q.contains_site(0));
}

TEST(SortedRequestQueue, InsertionOrderDoesNotChangeTheQueue) {
  // A token fold inserts a history's ReqCnt-derived ReqRes records before
  // its ReqRes and ReqLoan records, not in arrival order. That is safe
  // because insert() is order-free as long as no two inserted records
  // share (sinit, id): the queue keeps, per site, the record with the
  // largest id, sorted by (mark, sinit), and sites are distinct. Histories
  // meet the precondition: a §4.6.1 single-resource ReqCnt never has a
  // ReqRes twin (single_res_registered_ stops its requester from sending
  // one), ReqLoan records go to the other queue, and copies of one record
  // carry equal fields, so they stay in one list and keep their order.
  sim::Rng rng(16);
  for (int batch = 0; batch < 40; ++batch) {
    const int n = static_cast<int>(rng.uniform_int(2, 6));
    std::vector<ReqItem> items;
    std::set<std::pair<SiteId, RequestId>> keys;
    while (static_cast<int>(items.size()) < n) {
      // Few sites and few marks: same-site records with newer and older
      // ids, and equal marks across sites.
      const auto s = static_cast<SiteId>(rng.uniform_int(0, 3));
      const RequestId id = rng.uniform_int(1, 4);
      if (!keys.emplace(s, id).second) continue;
      const auto mark = static_cast<double>(rng.uniform_int(1, 3));
      ReqItem item = res_item(3, s, id, mark);
      if (batch % 2 == 1) {
        item.type = ReqType::kLoan;
        item.missing = LoanSet(ResourceSet(8, {3}));
      }
      items.push_back(item);
    }
    // Permute indices: the records themselves are not totally ordered.
    std::vector<std::size_t> order(items.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::vector<std::tuple<SiteId, RequestId, double>> reference;
    do {
      SortedRequestQueue q;
      for (const std::size_t i : order) q.insert(items[i]);
      std::vector<std::tuple<SiteId, RequestId, double>> got;
      for (const ReqItem& it : q.items()) {
        got.emplace_back(it.sinit, it.id, it.mark);
      }
      if (reference.empty()) reference = got;
      ASSERT_EQ(got, reference) << "batch " << batch;
    } while (std::next_permutation(order.begin(), order.end()));
    // The reference holds one record per site, the newest.
    for (const auto& [s, id, mark] : reference) {
      for (const ReqItem& it : items) {
        if (it.sinit == s) {
          EXPECT_LE(it.id, id) << "batch " << batch;
        }
      }
    }
  }
}

TEST(ReqItem, WireSizeDoesNotDependOnLayout) {
  // net.bytes charges the logical encoding: 26 bytes per record plus, for a
  // ReqLoan, a bitmap over the resource universe (M = 80 -> 10 bytes).
  ReqItem loan = res_item(5, 1, 2, 3.0);
  loan.type = ReqType::kLoan;
  loan.missing = LoanSet(ResourceSet(80, {5, 9}));
  EXPECT_EQ(loan.wire_size(), 36u);
  EXPECT_EQ(res_item(5, 1, 2, 3.0).wire_size(), 26u);
  // Records are copied on every hop: the loan set is shared, not inline.
  EXPECT_EQ(sizeof(ReqItem), 32u);
}

TEST(ReqItem, SixteenBitResourceHoldsTheLargestId) {
  // LassNode accepts M <= 65535, so 65534 is the largest resource id.
  const ReqItem item = res_item(65534, 1, 2, 3.0);
  EXPECT_EQ(item.r, 65534);
  EXPECT_EQ(static_cast<ResourceId>(item.r), ResourceId{65534});
}

TEST(LoanSet, CopiesShareOneBlockAndTheLastOwnerFreesIt) {
  LoanSet empty;
  EXPECT_FALSE(empty);
  EXPECT_EQ(empty.use_count(), 0u);

  LoanSet a(ResourceSet(80, {5, 9}));
  ASSERT_TRUE(a);
  EXPECT_EQ(a.use_count(), 1u);
  const ResourceSet* block = &*a;

  // A copy shares the block.
  LoanSet b = a;
  EXPECT_EQ(&*b, block);
  EXPECT_EQ(a.use_count(), 2u);

  // A move hands the block over without touching the count.
  LoanSet c = std::move(b);
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(&*c, block);
  EXPECT_EQ(a.use_count(), 2u);

  const LoanSet& alias = c;
  // Self-assignment keeps the block.
  c = alias;
  EXPECT_EQ(&*c, block);
  EXPECT_EQ(c.use_count(), 2u);

  // Assignment over a live handle drops that handle's block.
  LoanSet other(ResourceSet(80, {1}));
  LoanSet d = other;
  EXPECT_EQ(other.use_count(), 2u);
  d = a;
  EXPECT_EQ(other.use_count(), 1u);
  EXPECT_EQ(a.use_count(), 3u);
  EXPECT_TRUE(d->contains(9));
  // Frees {1}; ASan reports a leak or a double free here.
  other = std::move(d);
  EXPECT_EQ(a.use_count(), 3u);
  EXPECT_TRUE(other->contains(5));

  a = LoanSet();
  c = LoanSet();
  // `other` is the last owner of {5, 9}.
  EXPECT_EQ(other.use_count(), 1u);
  EXPECT_EQ(other->size(), 2u);
}

TEST(TotalOrder, PrecedesIsStrictTotalOrder) {
  const ReqItem a = res_item(0, 1, 1, 2.0);
  const ReqItem b = res_item(0, 2, 1, 2.0);
  const ReqItem c = res_item(0, 1, 1, 3.0);
  EXPECT_TRUE(a.precedes(b));   // tie on mark: site order
  EXPECT_FALSE(b.precedes(a));
  EXPECT_TRUE(a.precedes(c));
  EXPECT_FALSE(a.precedes(a));  // irreflexive
}

// --- full-node scenario fixtures -------------------------------------------

struct LassFixture {
  sim::Simulator sim;
  net::Network net{sim, net::make_fixed_latency(sim::from_ms(0.6)), 9};
  std::vector<std::unique_ptr<LassNode>> nodes;
  LassConfig cfg;

  LassFixture(int n, int m, bool loan = true) {
    cfg.num_sites = n;
    cfg.num_resources = m;
    cfg.enable_loan = loan;
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<LassNode>(cfg));
      net.add_node(*nodes.back());
    }
    net.start();
  }

  LassNode& node(SiteId s) { return *nodes[static_cast<std::size_t>(s)]; }

  /// Sum of owned tokens across sites plus tokens in transit must equal M.
  void expect_token_conservation_at_quiescence() {
    ASSERT_TRUE(sim.idle());
    std::vector<int> holders(static_cast<std::size_t>(cfg.num_resources), 0);
    for (auto& n : nodes) {
      n->owned_tokens().for_each([&](ResourceId r) {
        ++holders[static_cast<std::size_t>(r)];
      });
    }
    for (ResourceId r = 0; r < cfg.num_resources; ++r) {
      EXPECT_EQ(holders[static_cast<std::size_t>(r)], 1)
          << "token multiplicity violated for r" << r;
    }
  }
};

TEST(LassNode, ElectedNodeStartsWithAllTokens) {
  LassFixture f(3, 2);
  EXPECT_EQ(f.node(0).owned_tokens().size(), 2u);
  EXPECT_EQ(f.node(1).owned_tokens().size(), 0u);
  EXPECT_EQ(f.node(0).state(), ProcessState::kIdle);
}

TEST(LassNode, Figure3Walkthrough) {
  // s1(=0) in CS on r_red(=0), s3(=2) in CS on r_blue(=1); s2(=1) asks both.
  LassFixture f(3, 2);
  const ResourceSet red(2, {0});
  const ResourceSet blue(2, {1});
  const ResourceSet both(2, {0, 1});

  int s1_granted = 0;
  int s2_granted = 0;
  int s3_granted = 0;
  f.node(0).set_grant_callback([&](RequestId) { ++s1_granted; });
  f.node(1).set_grant_callback([&](RequestId) { ++s2_granted; });
  f.node(2).set_grant_callback([&](RequestId) { ++s3_granted; });

  // Move r_blue's token to s3 first (s3 requests and enters CS).
  f.sim.schedule_in(0, [&]() { f.node(0).request(red); });
  f.sim.schedule_in(0, [&]() { f.node(2).request(blue); });
  f.sim.run();
  EXPECT_EQ(s1_granted, 1);  // held the token: synchronous grant
  EXPECT_EQ(s3_granted, 1);

  // s2 requests both while the others are in CS.
  f.sim.schedule_in(0, [&]() { f.node(1).request(both); });
  f.sim.run();
  EXPECT_EQ(s2_granted, 0) << "s2 must wait: both resources are in use";
  EXPECT_EQ(f.node(1).state(), ProcessState::kWaitCS);
  // s2 has collected both counter values by now.
  EXPECT_NE(f.node(1).counter_vector()[0], 0);
  EXPECT_NE(f.node(1).counter_vector()[1], 0);

  // Releases let s2 in; afterwards s2 is root of both trees (owns tokens).
  f.node(0).release();
  f.node(2).release();
  f.sim.run();
  EXPECT_EQ(s2_granted, 1);
  EXPECT_EQ(f.node(1).state(), ProcessState::kInCS);
  EXPECT_TRUE(f.node(1).owned_tokens().contains(0));
  EXPECT_TRUE(f.node(1).owned_tokens().contains(1));

  f.node(1).release();
  f.sim.run();
  f.expect_token_conservation_at_quiescence();
}

TEST(LassNode, SenderKeepsOnlyTheIdMapOfAShippedToken) {
  // s1 and s2 each use r0 once, so its id map records them. Then s3 holds
  // r0 in CS while s1 and s2 queue behind it, and s3's release ships the
  // token, its queue still holding one of them, to the other.
  LassFixture f(4, 1, /*loan=*/false);
  const ResourceSet r0(1, {0});
  for (SiteId s : {1, 2}) {
    f.node(s).request(r0);
    f.sim.run();
    f.node(s).release();
    f.sim.run();
  }
  f.node(3).request(r0);
  f.sim.run();
  ASSERT_EQ(f.node(3).state(), ProcessState::kInCS);
  f.node(1).request(r0);
  f.node(2).request(r0);
  f.sim.run();
  f.node(3).release();
  f.sim.run();

  // The receiver entered its CS and has not touched the id map since.
  SiteId holder = kNoSite;
  for (SiteId s : {1, 2}) {
    if (f.node(s).state() == ProcessState::kInCS) holder = s;
  }
  ASSERT_NE(holder, kNoSite);
  const LassToken shipped = f.node(holder).token_snapshot(0);
  EXPECT_EQ(shipped.wqueue.size(), 1u) << "the other waiter travels along";

  const LassToken kept = f.node(3).token_snapshot(0);
  EXPECT_FALSE(f.node(3).owned_tokens().contains(0));
  EXPECT_EQ(kept.ids.size(), shipped.ids.size());
  EXPECT_GE(kept.ids.size(), 3u);
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_EQ(kept.ids.get(s).req_cnt, shipped.ids.get(s).req_cnt) << s;
    EXPECT_EQ(kept.ids.get(s).cs, shipped.ids.get(s).cs) << s;
  }
  EXPECT_TRUE(kept.wqueue.empty());
  EXPECT_TRUE(kept.wloan.empty());
  EXPECT_EQ(kept.lender, kNoSite);
}

/// A site that only records the LASS messages it receives.
struct RecordingSite final : net::Node {
  std::vector<CounterItem> counters;
  std::vector<LassToken> tokens;

  void on_message(SiteId /*from*/, net::Message& msg) override {
    if (auto* c = dynamic_cast<CounterBundleMsg*>(&msg)) {
      counters.insert(counters.end(), c->items.begin(), c->items.end());
    } else if (auto* t = dynamic_cast<TokenBundleMsg*>(&msg)) {
      for (LassToken& tok : t->items) tokens.push_back(std::move(tok));
    }
  }
};

TEST(LassNode, HistoryFoldKeepsReqCntArrivalOrder) {
  // Site 1 runs LASS; every other site records what it receives. Site 1
  // does not hold r1, so requests for r1 park in its history: each bundle
  // lists site 0 (site 1's father) as visited, so none is forwarded.
  constexpr int kSites = 8;
  constexpr ResourceId kR = 1;
  sim::Simulator sim;
  net::Network net{sim, net::make_fixed_latency(sim::from_ms(0.6)), 9};
  std::vector<std::unique_ptr<RecordingSite>> sites;
  LassConfig cfg;
  cfg.num_sites = kSites;
  cfg.num_resources = 2;
  cfg.enable_loan = true;
  LassNode lass(cfg);
  for (SiteId s = 0; s < kSites; ++s) {
    if (s == 1) {
      net.add_node(lass);
      continue;
    }
    sites.push_back(std::make_unique<RecordingSite>());
    net.add_node(*sites.back());
  }
  net.start();
  auto site = [&](SiteId s) -> RecordingSite& {
    return *sites[static_cast<std::size_t>(s < 1 ? s : s - 1)];
  };

  auto cnt = [](SiteId s, RequestId id, bool single) {
    ReqItem item = res_item(kR, s, id, 0.0);
    item.type = ReqType::kCnt;
    item.single_resource = single;
    return item;
  };
  ReqItem loan = res_item(kR, 5, 1, 1.5);
  loan.type = ReqType::kLoan;
  loan.missing = LoanSet(ResourceSet(2, {kR}));

  // Arrival order interleaves the three kinds.
  const std::vector<ReqItem> arrivals = {
      cnt(2, 1, false),          // counter 10
      res_item(kR, 3, 4, 2.5),   // replaced by site 3's id 5 below
      cnt(4, 2, true),           // counter 11, queued with mark 11
      loan,                      // parked in wloan
      cnt(6, 5, false),          // counter 12
      cnt(2, 1, false),          // a second copy: already served
      res_item(kR, 7, 3, 0.5),   // site 7's CS 3 is done: obsolete
      res_item(kR, 5, 2, 11.0),  // mark ties site 4's; site id breaks it
      cnt(3, 5, true),           // counter 13, queued with mark 13
      cnt(7, 4, false),          // counter 14
  };
  RequestBundleMsg parked;
  parked.visited.push_back(0);
  for (const ReqItem& item : arrivals) parked.items.push_back(item);
  lass.on_message(0, parked);
  sim.run();
  for (SiteId s : {0, 2, 3, 4, 5, 6, 7}) {
    EXPECT_TRUE(site(s).counters.empty()) << "nothing served before the token";
  }

  TokenBundleMsg delivery;
  LassToken token(kR, kSites);
  token.counter = 10;
  token.ids[7].cs = 3;
  delivery.items.push_back(std::move(token));
  lass.on_message(0, delivery);
  sim.run();

  // Counters follow the ReqCnt arrival order.
  const std::vector<std::pair<SiteId, CounterValue>> expected = {
      {2, 10}, {4, 11}, {6, 12}, {3, 13}, {7, 14}};
  for (const auto& [s, value] : expected) {
    ASSERT_EQ(site(s).counters.size(), 1u) << "site " << s;
    EXPECT_EQ(site(s).counters[0].r, kR);
    EXPECT_EQ(site(s).counters[0].value, value) << "site " << s;
  }
  for (SiteId s : {0, 5}) EXPECT_TRUE(site(s).counters.empty()) << s;

  // Site 1 is idle: it ships the token to the queue's head, site 4 (mark 11
  // ties site 5's and the site id breaks it); the rest of both queues
  // travels along.
  ASSERT_EQ(site(4).tokens.size(), 1u);
  const LassToken& shipped = site(4).tokens[0];
  EXPECT_EQ(shipped.counter, 15);
  std::vector<std::tuple<SiteId, RequestId, double>> wqueue;
  for (const ReqItem& it : shipped.wqueue.items()) {
    wqueue.emplace_back(it.sinit, it.id, it.mark);
  }
  const std::vector<std::tuple<SiteId, RequestId, double>> want_wqueue = {
      {5, 2, 11.0}, {3, 5, 13.0}};
  EXPECT_EQ(wqueue, want_wqueue);
  ASSERT_EQ(shipped.wloan.size(), 1u);
  EXPECT_EQ(shipped.wloan.head().sinit, 5);
  EXPECT_EQ(shipped.wloan.head().id, 1);
  for (SiteId s : {0, 2, 3, 5, 6, 7}) EXPECT_TRUE(site(s).tokens.empty()) << s;
}

TEST(LassNode, CounterValuesAreUniquePerResource) {
  // Issue staggered requests from every site on one resource and check that
  // the counter values they observe never repeat (the core of the paper's
  // deadlock-freedom argument).
  LassFixture f(6, 1, /*loan=*/false);
  const ResourceSet r0(1, {0});
  std::vector<CounterValue> seen;
  int completed = 0;
  for (SiteId s = 0; s < 6; ++s) {
    f.node(s).set_grant_callback([&, s](RequestId) {
      f.sim.schedule_in(sim::from_ms(1), [&, s]() {
        ++completed;
        f.node(s).release();
      });
    });
    f.sim.schedule_in(sim::from_ms(s / 2), [&, s]() {
      f.node(s).request(r0);
      // The counter value lands in MyVector once known; sample it later.
    });
    f.sim.schedule_in(sim::from_ms(20 + s), [&, s]() {
      // After everything settled the value is gone (reset on release), so
      // sample during the run instead via token snapshot below.
    });
  }
  f.sim.run();
  EXPECT_EQ(completed, 6);
  // The token's counter ends at 1 (initial) + 6 assignments.
  SiteId holder = kNoSite;
  for (SiteId s = 0; s < 6; ++s) {
    if (f.node(s).owned_tokens().contains(0)) holder = s;
  }
  ASSERT_NE(holder, kNoSite);
  EXPECT_EQ(f.node(holder).token_snapshot(0).counter, 7);
  f.expect_token_conservation_at_quiescence();
}

TEST(LassNode, LoanCompletesStarvedRequest) {
  // s0 owns everything. s1 asks {0,1}; s2 asks {1,2}. After s1 enters CS
  // holding 0 and 1, s2 misses only 1 -> it may borrow from s1's successor
  // chain. Regardless of the exact path, liveness must hold and loans must
  // be returned (lender recovers its tokens).
  LassFixture f(4, 3, /*loan=*/true);
  const ResourceSet a(3, {0, 1});
  const ResourceSet b(3, {1, 2});

  int grants = 0;
  for (SiteId s : {1, 2}) {
    f.node(s).set_grant_callback([&, s](RequestId) {
      ++grants;
      f.sim.schedule_in(sim::from_ms(2), [&, s]() { f.node(s).release(); });
    });
  }
  f.sim.schedule_in(0, [&]() { f.node(1).request(a); });
  f.sim.schedule_in(sim::from_ms(0.1), [&]() { f.node(2).request(b); });
  f.sim.run();
  EXPECT_EQ(grants, 2);
  EXPECT_TRUE(f.node(1).lent_resources().empty());
  EXPECT_TRUE(f.node(2).lent_resources().empty());
  f.expect_token_conservation_at_quiescence();
}

TEST(LassNode, LoanMechanismActuallyFires) {
  // Statistical check: under sustained contention with threshold 1, at least
  // one loan completes a CS (the Fig. 5/6 "with loan" improvement exists).
  test::StressOptions opt;
  opt.algorithm = algo::Algorithm::kLassWithLoan;
  opt.num_sites = 10;
  opt.num_resources = 8;
  opt.phi = 5;
  opt.requests_per_site = 60;
  opt.max_think = 0;
  opt.seed = 5;
  const test::StressOutcome out = test::run_stress(opt);
  EXPECT_EQ(out.completed, 600u);
  // Loans-used counter lives on the nodes, which run_stress hides; instead
  // run a direct experiment and read the aggregated stats.
  experiment::ExperimentConfig cfg;
  cfg.system.algorithm = algo::Algorithm::kLassWithLoan;
  cfg.system.num_sites = 10;
  cfg.system.num_resources = 8;
  cfg.system.seed = 5;
  cfg.workload = workload::high_load(5, 8);
  cfg.warmup = sim::from_ms(100);
  cfg.measure = sim::from_ms(3000);
  const auto result = experiment::run_experiment(cfg);
  EXPECT_GT(result.loans_used, 0u);
}

TEST(LassNode, SingleResourceOptimizationSavesMessages) {
  // With only single-resource requests, the optimized variant must use
  // strictly fewer messages for the same schedule.
  auto run = [](bool opt) {
    experiment::ExperimentConfig cfg;
    cfg.system.algorithm = algo::Algorithm::kLassWithoutLoan;
    cfg.system.num_sites = 8;
    cfg.system.num_resources = 6;
    cfg.system.seed = 9;
    cfg.system.opt_single_resource = opt;
    cfg.workload = workload::high_load(1, 6);  // phi = 1: all single-resource
    cfg.warmup = sim::from_ms(100);
    cfg.measure = sim::from_ms(2000);
    return run_experiment(cfg);
  };
  const auto with = run(true);
  const auto without = run(false);
  EXPECT_GT(with.requests_completed, 100u);
  EXPECT_LT(with.messages_per_cs, without.messages_per_cs);
}

TEST(LassNode, MarkPolicyChangesSchedule) {
  auto run = [](MarkPolicy p) {
    experiment::ExperimentConfig cfg;
    cfg.system.algorithm = algo::Algorithm::kLassWithoutLoan;
    cfg.system.num_sites = 8;
    cfg.system.num_resources = 6;
    cfg.system.seed = 12;
    cfg.system.mark_policy = p;
    cfg.workload = workload::high_load(4, 6);
    cfg.warmup = sim::from_ms(100);
    cfg.measure = sim::from_ms(2000);
    return run_experiment(cfg);
  };
  const auto avg = run(MarkPolicy::kAverageNonZero);
  const auto sum = run(MarkPolicy::kSumNonZero);
  // Both live; schedules differ (different completion counts or waits).
  EXPECT_GT(avg.requests_completed, 50u);
  EXPECT_GT(sum.requests_completed, 50u);
  EXPECT_TRUE(avg.requests_completed != sum.requests_completed ||
              avg.waiting_mean_ms != sum.waiting_mean_ms);
}

/// Every site of a started LASS system, for probes and end-of-run checks.
std::vector<const LassNode*> lass_nodes(algo::AllocationSystem& system) {
  std::vector<const LassNode*> nodes;
  for (SiteId s = 0; s < system.network().node_count(); ++s) {
    nodes.push_back(&dynamic_cast<const LassNode&>(system.node(s)));
  }
  return nodes;
}

/// Drives every site of a started system through `requests_per_site`
/// requests of 1..phi resources drawn from [0, max_resource] out of
/// `num_resources`: 0.5 ms in CS, then up to 1 ms of think time. Runs the
/// simulation until it drains and returns the completed CS count.
std::uint64_t run_random_requests(algo::AllocationSystem& system,
                                  int num_resources, int phi,
                                  ResourceId max_resource,
                                  int requests_per_site, std::uint64_t seed) {
  sim::Simulator& sim = system.simulator();
  const int num_sites = system.network().node_count();
  sim::Rng rng(seed);
  std::vector<int> remaining(static_cast<std::size_t>(num_sites),
                             requests_per_site);
  std::uint64_t completed = 0;
  std::function<void(SiteId)> issue = [&](SiteId s) {
    if (remaining[static_cast<std::size_t>(s)]-- <= 0) return;
    ResourceSet want(num_resources);
    const auto size = static_cast<std::size_t>(rng.uniform_int(1, phi));
    while (want.size() < size) {
      want.insert(static_cast<ResourceId>(rng.uniform_int(0, max_resource)));
    }
    system.node(s).request(want);
  };
  for (SiteId s = 0; s < num_sites; ++s) {
    system.node(s).set_grant_callback([&, s](RequestId) {
      sim.schedule_in(sim::from_ms(0.5), [&, s]() {
        ++completed;
        system.node(s).release();
        sim.schedule_in(sim::from_ms(rng.uniform_real(0.0, 1.0)),
                        [&, s]() { issue(s); });
      });
    });
    sim.schedule_in(sim::from_ms(rng.uniform_real(0.0, 1.0)),
                    [&, s]() { issue(s); });
  }
  sim.run();
  return completed;
}

/// True when `t` is field-for-field the token a fresh LassToken(r, n) is.
bool is_initial_token(const LassToken& t, ResourceId r, int n) {
  return t.r == r && t.num_sites == n && t.counter == 1 && t.ids.empty() &&
         t.wqueue.empty() && t.wloan.empty() && t.lender == kNoSite;
}

/// At every observer hook (each send, delivery, request, grant, release and
/// clock advance), checks every node: the cached mark is bit-equal to A
/// recomputed from the dense counter vector, and a resource no request
/// names still reads as its initial token.
class MarkCacheProbe final : public check::Observer {
 public:
  MarkCacheProbe(std::vector<const LassNode*> nodes, MarkFunction mark,
                 ResourceId untouched, int num_sites)
      : nodes_(std::move(nodes)),
        mark_(std::move(mark)),
        untouched_(untouched),
        n_(num_sites) {}

  void on_event(const check::Event& /*event*/) override { check(); }
  void on_advance(sim::SimTime /*now*/) override { check(); }

  [[nodiscard]] std::uint64_t checks() const { return checks_; }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }

 private:
  void check() {
    ++checks_;
    for (std::size_t s = 0; s < nodes_.size(); ++s) {
      const LassNode& node = *nodes_[s];
      const double cached = node.current_mark();
      const double fresh = mark_(node.counter_vector());
      const bool mark_ok = std::bit_cast<std::uint64_t>(cached) ==
                           std::bit_cast<std::uint64_t>(fresh);
      const bool token_ok =
          is_initial_token(node.token_snapshot(untouched_), untouched_, n_);
      if (mark_ok && token_ok) continue;
      if (mismatches_++ == 0) {
        ADD_FAILURE() << "site " << s << " at check " << checks_
                      << ": cached mark " << cached << " vs A(v) " << fresh
                      << (token_ok ? "" : "; untouched token changed");
      }
    }
  }

  std::vector<const LassNode*> nodes_;
  MarkFunction mark_;
  ResourceId untouched_;
  int n_;
  std::uint64_t checks_ = 0;
  std::uint64_t mismatches_ = 0;
};

class MarkPolicyTest : public ::testing::TestWithParam<MarkPolicy> {};

TEST_P(MarkPolicyTest, CachedMarkMatchesCounterVectorAtEveryHook) {
  // LASS with loan, N=8, M=12, requests of 1..4 resources drawn from
  // [0, M-1): resource M-1 is never requested, so no site ever touches it.
  constexpr int kSites = 8;
  constexpr int kResources = 12;
  constexpr int kPhi = 4;
  constexpr int kRequestsPerSite = 40;
  algo::SystemConfig sys;
  sys.algorithm = algo::Algorithm::kLassWithLoan;
  sys.num_sites = kSites;
  sys.num_resources = kResources;
  sys.mark_policy = GetParam();
  sys.seed = 21;
  auto system = algo::AllocationSystem::create(sys);
  system->start();
  sim::Simulator& sim = system->simulator();

  const std::vector<const LassNode*> nodes = lass_nodes(*system);
  MarkCacheProbe probe(nodes, make_mark_function(sys.mark_policy),
                       kResources - 1, kSites);
  sim.set_observer(&probe);
  system->network().set_observer(&probe);
  for (SiteId s = 0; s < kSites; ++s) system->node(s).set_observer(&probe);

  const std::uint64_t completed = run_random_requests(
      *system, kResources, kPhi, kResources - 2, kRequestsPerSite, sys.seed);

  EXPECT_EQ(completed, static_cast<std::uint64_t>(kSites * kRequestsPerSite));
  EXPECT_GT(probe.checks(), 1000u);
  EXPECT_EQ(probe.mismatches(), 0u);
  std::uint64_t loans = 0;
  for (const LassNode* node : nodes) loans += node->loans_used();
  EXPECT_GT(loans, 0u) << "the loan path must be exercised too";
  for (const LassNode* node : nodes) {
    EXPECT_EQ(node->current_mark(), 0.0) << "idle sites hold no mark";
  }
}

INSTANTIATE_TEST_SUITE_P(
    LassNode, MarkPolicyTest,
    ::testing::Values(MarkPolicy::kAverageNonZero, MarkPolicy::kMaxValue,
                      MarkPolicy::kSumNonZero, MarkPolicy::kMinNonZero),
    [](const ::testing::TestParamInfo<MarkPolicy>& info) {
      std::string name = to_string(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

/// The widest loan (lent resource count) any site holds at an observer hook.
class LoanWidthProbe final : public check::Observer {
 public:
  explicit LoanWidthProbe(std::vector<const LassNode*> nodes)
      : nodes_(std::move(nodes)) {}

  void on_event(const check::Event& /*event*/) override { sample(); }
  void on_advance(sim::SimTime /*now*/) override { sample(); }

  [[nodiscard]] std::size_t widest() const { return widest_; }

 private:
  void sample() {
    for (const LassNode* node : nodes_) {
      widest_ = std::max(widest_, node->lent_resources().size());
    }
  }

  std::vector<const LassNode*> nodes_;
  std::size_t widest_ = 0;
};

TEST(LassNode, TwoResourceLoansKeepEveryOracleClean) {
  // loan_threshold = 2: a site missing two tokens asks one loan, and both
  // ReqLoan items share the same missing set. High load (N=8, M=6, up to
  // 4 resources per request, think <= 1 ms) under the mutual-exclusion,
  // deadlock and starvation oracles.
  constexpr int kSites = 8;
  constexpr int kResources = 6;
  algo::SystemConfig sys;
  sys.algorithm = algo::Algorithm::kLassWithLoan;
  sys.num_sites = kSites;
  sys.num_resources = kResources;
  sys.loan_threshold = 2;
  sys.seed = 3;
  auto system = algo::AllocationSystem::create(sys);
  system->start();

  check::MonitorConfig mc;
  mc.num_sites = kSites;
  mc.num_resources = kResources;
  check::Monitor monitor(mc);
  const std::vector<const LassNode*> nodes = lass_nodes(*system);
  LoanWidthProbe probe(nodes);
  check::ObserverMux mux;
  mux.add(monitor);
  mux.add(probe);
  mux.attach(*system);
  monitor.bind_simulator(system->simulator());

  constexpr int kRequestsPerSite = 60;
  const std::uint64_t completed = run_random_requests(
      *system, kResources, /*phi=*/4, kResources - 1, kRequestsPerSite,
      sys.seed);
  sim::Simulator& sim = system->simulator();
  ASSERT_TRUE(sim.idle()) << "the run must drain to quiescence";
  monitor.finalize(sim.now(), /*quiescent=*/true);

  EXPECT_EQ(completed, static_cast<std::uint64_t>(kSites * kRequestsPerSite));
  for (const check::Violation& v : monitor.violations()) {
    ADD_FAILURE() << v.oracle << ": " << v.detail;
  }
  EXPECT_EQ(probe.widest(), 2u) << "no two-resource loan was granted";
  for (const LassNode* node : nodes) {
    EXPECT_EQ(node->state(), ProcessState::kIdle);
    EXPECT_TRUE(node->lent_resources().empty());
  }
}

TEST(LassNode, InvalidConfigThrows) {
  LassConfig cfg;
  EXPECT_THROW(LassNode{cfg}, std::invalid_argument);
  cfg.num_sites = 2;
  EXPECT_THROW(LassNode{cfg}, std::invalid_argument);
  cfg.num_resources = 65536;  // beyond the 16-bit per-resource index
  EXPECT_THROW(LassNode{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace mra::algo::lass
