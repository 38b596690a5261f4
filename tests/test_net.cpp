// Network substrate tests: FIFO links, latency models, statistics, and the
// pooled message allocator.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/message_pool.hpp"
#include "net/network.hpp"

namespace mra::net {
namespace {

struct TestMsg final : Message {
  int payload = 0;
  explicit TestMsg(int p) : payload(p) {}
  [[nodiscard]] std::string_view kind() const override { return "Test"; }
  [[nodiscard]] std::size_t wire_size() const override { return 100; }
};

struct OtherMsg final : Message {
  [[nodiscard]] std::string_view kind() const override { return "Other"; }
  [[nodiscard]] std::size_t wire_size() const override { return 40; }
};

class RecorderNode final : public Node {
 public:
  struct Received {
    SiteId from;
    int payload;
    sim::SimTime at;
  };
  std::vector<Received> log;
  void on_message(SiteId from, Message& msg) override {
    const auto* test = dynamic_cast<const TestMsg*>(&msg);
    log.push_back({from, test != nullptr ? test->payload : -1,
                   network_->simulator().now()});
  }
};

struct Fixture {
  sim::Simulator sim;
  Network net;
  RecorderNode a, b, c;
  explicit Fixture(std::unique_ptr<LatencyModel> latency)
      : net(sim, std::move(latency), 1) {
    net.add_node(a);
    net.add_node(b);
    net.add_node(c);
    net.start();
  }
};

TEST(Network, DeliversWithFixedLatency) {
  Fixture f(make_fixed_latency(sim::from_ms(0.6)));
  f.net.send(0, 1, std::make_unique<TestMsg>(42));
  f.sim.run();
  ASSERT_EQ(f.b.log.size(), 1u);
  EXPECT_EQ(f.b.log[0].payload, 42);
  EXPECT_EQ(f.b.log[0].from, 0);
  EXPECT_EQ(f.b.log[0].at, sim::from_ms(0.6));
}

TEST(Network, FifoPerLinkEvenWithJitter) {
  // Heavy jitter would reorder messages; the network must prevent that on a
  // single ordered link (the paper's FIFO-channel assumption).
  Fixture f(make_uniform_jitter_latency(sim::from_ms(1.0), 0.9));
  for (int i = 0; i < 200; ++i) {
    f.sim.schedule_in(i * 10, [&f, i]() {
      f.net.send(0, 1, std::make_unique<TestMsg>(i));
    });
  }
  f.sim.run();
  ASSERT_EQ(f.b.log.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(f.b.log[static_cast<std::size_t>(i)].payload, i);
  }
  for (std::size_t i = 1; i < f.b.log.size(); ++i) {
    EXPECT_GT(f.b.log[i].at, f.b.log[i - 1].at);
  }
}

TEST(Network, IndependentLinksMayReorder) {
  // FIFO is per ordered pair only: a later message on a faster link may
  // arrive first. (Different-source messages to one destination.)
  struct StepLatency final : LatencyModel {
    sim::SimDuration sample(int src, int /*dst*/, sim::Rng&) override {
      return src == 0 ? sim::from_ms(5.0) : sim::from_ms(1.0);
    }
  };
  sim::Simulator sim;
  Network net(sim, std::make_unique<StepLatency>(), 1);
  RecorderNode a, b, c;
  net.add_node(a);
  net.add_node(b);
  net.add_node(c);
  net.start();
  net.send(0, 2, std::make_unique<TestMsg>(1));  // slow
  net.send(1, 2, std::make_unique<TestMsg>(2));  // fast, sent "later"
  sim.run();
  ASSERT_EQ(c.log.size(), 2u);
  EXPECT_EQ(c.log[0].payload, 2);
  EXPECT_EQ(c.log[1].payload, 1);
}

TEST(Network, SelfSendGoesThroughLatency) {
  Fixture f(make_fixed_latency(sim::from_ms(0.5)));
  f.net.send(0, 0, std::make_unique<TestMsg>(9));
  f.sim.run();
  ASSERT_EQ(f.a.log.size(), 1u);
  EXPECT_EQ(f.a.log[0].at, sim::from_ms(0.5));
}

TEST(Network, SendInstantDeliversAtCurrentInstant) {
  Fixture f(make_fixed_latency(sim::from_ms(5)));
  f.net.send_instant(0, 1, std::make_unique<TestMsg>(1));
  f.sim.run();
  ASSERT_EQ(f.b.log.size(), 1u);
  EXPECT_LE(f.b.log[0].at, 1);  // only the FIFO epsilon may apply
}

TEST(Network, CountsMessagesAndBytesByKind) {
  Fixture f(make_fixed_latency(1));
  f.net.send(0, 1, std::make_unique<TestMsg>(1));
  f.net.send(1, 2, std::make_unique<TestMsg>(2));
  f.sim.run();
  EXPECT_EQ(f.net.total_messages(), 2u);
  EXPECT_EQ(f.net.total_bytes(), 2 * (100 + Network::kEnvelopeBytes));
  const auto& stats = f.net.stats_by_kind();
  ASSERT_TRUE(stats.contains("Test"));
  EXPECT_EQ(stats.at("Test").count, 2u);
  f.net.reset_stats();
  EXPECT_EQ(f.net.total_messages(), 0u);
  EXPECT_TRUE(f.net.stats_by_kind().empty());

  // Alternating kinds must land in their own rows, and a reset in the
  // middle of a stream must restart every row from zero.
  constexpr std::uint64_t kTest = 100 + Network::kEnvelopeBytes;
  constexpr std::uint64_t kOther = 40 + Network::kEnvelopeBytes;
  for (int i = 0; i < 5; ++i) {
    f.net.send(0, 1, std::make_unique<TestMsg>(i));
    if (i < 4) f.net.send(1, 0, std::make_unique<OtherMsg>());
  }
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats.at("Test").count, 5u);
  EXPECT_EQ(stats.at("Test").bytes, 5 * kTest);
  EXPECT_EQ(stats.at("Other").count, 4u);
  EXPECT_EQ(stats.at("Other").bytes, 4 * kOther);

  // The last kind sent was "Test"; reset, then send it first again.
  f.net.reset_stats();
  f.net.send(0, 2, std::make_unique<TestMsg>(9));
  f.net.send(2, 0, std::make_unique<OtherMsg>());
  f.net.send(0, 2, std::make_unique<TestMsg>(10));
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats.at("Test").count, 2u);
  EXPECT_EQ(stats.at("Test").bytes, 2 * kTest);
  EXPECT_EQ(stats.at("Other").count, 1u);
  EXPECT_EQ(stats.at("Other").bytes, kOther);
  EXPECT_EQ(f.net.total_messages(), 3u);
  EXPECT_EQ(f.net.total_bytes(), 2 * kTest + kOther);
  f.sim.run();
  EXPECT_EQ(f.a.log.size(), 5u);  // every "Other" message
  EXPECT_EQ(f.b.log.size(), 1u + 5u);
  EXPECT_EQ(f.c.log.size(), 1u + 2u);
}

TEST(Network, HierarchicalLatencyDistinguishesClusters) {
  sim::Rng rng(1);
  HierarchicalLatency lat(/*cluster_size=*/4, sim::from_ms(0.1),
                          sim::from_ms(10.0));
  EXPECT_EQ(lat.sample(0, 3, rng), sim::from_ms(0.1));   // same cluster
  EXPECT_EQ(lat.sample(0, 4, rng), sim::from_ms(10.0));  // cross cluster
  EXPECT_EQ(lat.sample(5, 7, rng), sim::from_ms(0.1));
}

TEST(Network, AddNodeAfterStartThrows) {
  sim::Simulator sim;
  Network net(sim, make_fixed_latency(1), 1);
  RecorderNode a;
  net.add_node(a);
  net.start();
  RecorderNode b;
  EXPECT_THROW(net.add_node(b), std::logic_error);
}

TEST(Network, NullLatencyModelThrows) {
  sim::Simulator sim;
  EXPECT_THROW(Network(sim, nullptr, 1), std::invalid_argument);
}

// The pool recycles message storage in LIFO order: allocating after a free
// of the same size class must reuse the freed block instead of touching the
// system allocator. (Disabled under sanitizers, where the pool forwards to
// the system allocator so ASan keeps seeing message lifetimes.)
TEST(MessagePool, RecyclesFreedBlocksOfSameSizeClass) {
  if (!message_pool_stats().enabled) {
    GTEST_SKIP() << "message pool disabled (sanitizer build)";
  }
  auto first = std::make_unique<TestMsg>(1);
  void* first_addr = first.get();
  first.reset();
  auto second = std::make_unique<TestMsg>(2);
  EXPECT_EQ(static_cast<void*>(second.get()), first_addr);
}

TEST(MessagePool, CountsAllocationsAndReleases) {
  if (!message_pool_stats().enabled) {
    GTEST_SKIP() << "message pool disabled (sanitizer build)";
  }
  const MessagePoolStats before = message_pool_stats();
  {
    auto a = std::make_unique<TestMsg>(1);
    auto b = std::make_unique<TestMsg>(2);
  }
  const MessagePoolStats after = message_pool_stats();
  EXPECT_EQ(after.allocations, before.allocations + 2);
  EXPECT_EQ(after.deallocations, before.deallocations + 2);
  EXPECT_GT(after.bytes_reserved, 0u);
}

// End to end: a full simulated exchange must leave no message block behind
// (every operator new paired with an operator delete through the pool).
TEST(MessagePool, SimulationReturnsEveryMessageToThePool) {
  if (!message_pool_stats().enabled) {
    GTEST_SKIP() << "message pool disabled (sanitizer build)";
  }
  const MessagePoolStats before = message_pool_stats();
  {
    Fixture f(make_fixed_latency(sim::from_ms(0.6)));
    for (int i = 0; i < 50; ++i) {
      f.net.send(0, 1, std::make_unique<TestMsg>(i));
    }
    f.sim.run();
    EXPECT_EQ(f.b.log.size(), 50u);
  }
  const MessagePoolStats after = message_pool_stats();
  EXPECT_EQ(after.allocations - before.allocations,
            after.deallocations - before.deallocations);
}

}  // namespace
}  // namespace mra::net
