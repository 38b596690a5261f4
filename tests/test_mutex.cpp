// Single-resource mutual exclusion substrates: Naimi-Tréhel, Suzuki-Kasami,
// Ricart-Agrawala. Each is stress-tested for safety (one CS at a time) and
// liveness (every request served) and for its expected message complexity.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "mutex/naimi_trehel.hpp"
#include "mutex/ricart_agrawala.hpp"
#include "mutex/suzuki_kasami.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"

namespace mra::mutex {
namespace {

// Generic host: adapts one engine instance to a net::Node and runs a
// request/release loop driven from the outside.
template <typename Engine>
class Host final : public net::Node {
 public:
  std::function<void()> on_granted;
  std::unique_ptr<Engine> engine;

  void on_message(SiteId from, net::Message& msg) override {
    if constexpr (std::is_same_v<Engine, NaimiTrehelEngine<>>) {
      if (const auto* req = dynamic_cast<const NtRequestMsg*>(&msg)) {
        engine->on_request(*req);
        return;
      }
      if (const auto* tok =
              dynamic_cast<const NtTokenMsg<NoPayload>*>(&msg)) {
        engine->on_token(*tok);
        return;
      }
    } else if constexpr (std::is_same_v<Engine, SuzukiKasamiEngine>) {
      if (const auto* req = dynamic_cast<const SkRequestMsg*>(&msg)) {
        engine->on_request(*req);
        return;
      }
      if (const auto* tok = dynamic_cast<const SkTokenMsg*>(&msg)) {
        engine->on_token(*tok);
        return;
      }
    } else {
      if (const auto* req = dynamic_cast<const RaRequestMsg*>(&msg)) {
        engine->on_request(from, *req);
        return;
      }
      if (const auto* rep = dynamic_cast<const RaReplyMsg*>(&msg)) {
        engine->on_reply(*rep);
        return;
      }
    }
    FAIL() << "unexpected message " << msg.kind();
  }
};

template <typename Engine>
struct Cluster {
  sim::Simulator sim;
  net::Network net{sim, net::make_fixed_latency(sim::from_ms(0.6)), 3};
  std::vector<std::unique_ptr<Host<Engine>>> hosts;

  explicit Cluster(int n) {
    for (int i = 0; i < n; ++i) {
      hosts.push_back(std::make_unique<Host<Engine>>());
      net.add_node(*hosts.back());
    }
    for (int i = 0; i < n; ++i) {
      auto* host = hosts[static_cast<std::size_t>(i)].get();
      auto send = [host](SiteId dst, std::unique_ptr<net::Message> m) {
        host->network()->send(host->id(), dst, std::move(m));
      };
      auto granted = [host]() {
        if (host->on_granted) host->on_granted();
      };
      if constexpr (std::is_same_v<Engine, NaimiTrehelEngine<>>) {
        host->engine = std::make_unique<Engine>(i, /*elected=*/0,
                                                /*instance=*/0, send, granted);
      } else if constexpr (std::is_same_v<Engine, SuzukiKasamiEngine>) {
        host->engine = std::make_unique<Engine>(i, /*elected=*/0, n,
                                                /*instance=*/0, send, granted);
      } else {
        host->engine =
            std::make_unique<Engine>(i, n, /*instance=*/0, send, granted);
      }
    }
    net.start();
  }
};

// net::Node::network_ is protected; tiny accessor via friend-like helper.
// (Host inherits it, so expose through a method.)
template <typename Engine>
struct HostAccess : Host<Engine> {};

// Stress loop shared by all three algorithms.
template <typename Engine>
void stress(int n, int requests_per_site, std::uint64_t seed,
            std::uint64_t* messages_out = nullptr) {
  Cluster<Engine> cluster(n);
  sim::Rng rng(seed);
  int in_cs = 0;
  int completed = 0;
  std::vector<int> remaining(static_cast<std::size_t>(n), requests_per_site);

  std::function<void(SiteId)> issue = [&](SiteId s) {
    if (remaining[static_cast<std::size_t>(s)]-- <= 0) return;
    cluster.hosts[static_cast<std::size_t>(s)]->engine->request();
  };

  for (SiteId s = 0; s < n; ++s) {
    cluster.hosts[static_cast<std::size_t>(s)]->on_granted = [&, s]() {
      EXPECT_EQ(in_cs, 0) << "mutual exclusion violated";
      ++in_cs;
      cluster.sim.schedule_in(sim::from_ms(1), [&, s]() {
        --in_cs;
        ++completed;
        cluster.hosts[static_cast<std::size_t>(s)]->engine->release();
        cluster.sim.schedule_in(
            static_cast<sim::SimDuration>(rng.uniform_int(0, 2'000'000)),
            [&, s]() { issue(s); });
      });
    };
    cluster.sim.schedule_in(
        static_cast<sim::SimDuration>(rng.uniform_int(0, 2'000'000)),
        [&, s]() { issue(s); });
  }

  cluster.sim.run();
  EXPECT_EQ(completed, n * requests_per_site);
  EXPECT_TRUE(cluster.sim.idle());
  if (messages_out != nullptr) *messages_out = cluster.net.total_messages();
}

class MutexSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutexSeeds, NaimiTrehelSafetyLiveness) {
  stress<NaimiTrehelEngine<>>(8, 25, GetParam());
}
TEST_P(MutexSeeds, SuzukiKasamiSafetyLiveness) {
  stress<SuzukiKasamiEngine>(8, 25, GetParam());
}
TEST_P(MutexSeeds, RicartAgrawalaSafetyLiveness) {
  stress<RicartAgrawalaEngine>(8, 25, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutexSeeds,
                         ::testing::Values(1, 2, 3, 42, 9999));

TEST(MutexComplexity, BroadcastVsTree) {
  // Ricart-Agrawala needs 2(N-1) messages per CS; Suzuki-Kasami N-1 + 1;
  // Naimi-Tréhel averages O(log N). Verify the ordering empirically.
  const int n = 16;
  const int reqs = 20;
  std::uint64_t nt = 0;
  std::uint64_t sk = 0;
  std::uint64_t ra = 0;
  stress<NaimiTrehelEngine<>>(n, reqs, 5, &nt);
  stress<SuzukiKasamiEngine>(n, reqs, 5, &sk);
  stress<RicartAgrawalaEngine>(n, reqs, 5, &ra);
  const double total = n * reqs;
  EXPECT_LT(static_cast<double>(nt) / total, static_cast<double>(sk) / total);
  EXPECT_LT(static_cast<double>(sk) / total, static_cast<double>(ra) / total);
  // RA is exactly 2(N-1) per CS.
  EXPECT_EQ(ra, static_cast<std::uint64_t>(2 * (n - 1) * n * reqs));
}

TEST(NaimiTrehel, TokenStaysWithSoleRequester) {
  // A site that repeatedly requests with no competition keeps the token:
  // zero messages after the first acquisition.
  Cluster<NaimiTrehelEngine<>> cluster(4);
  auto& site1 = *cluster.hosts[1];
  int grants = 0;
  site1.on_granted = [&]() { ++grants; };

  site1.engine->request();
  cluster.sim.run();
  ASSERT_EQ(grants, 1);
  const auto messages_after_first = cluster.net.total_messages();
  site1.engine->release();
  for (int i = 0; i < 5; ++i) {
    site1.engine->request();
    cluster.sim.run();
    site1.engine->release();
  }
  EXPECT_EQ(grants, 6);
  EXPECT_EQ(cluster.net.total_messages(), messages_after_first);
}

TEST(NaimiTrehel, PayloadTravelsWithToken) {
  struct Counter {
    int value = 0;
    [[nodiscard]] std::size_t wire_size() const { return 4; }
  };
  sim::Simulator sim;
  net::Network net(sim, net::make_fixed_latency(1), 1);

  struct PayloadHost final : net::Node {
    std::unique_ptr<NaimiTrehelEngine<Counter>> engine;
    std::function<void()> on_granted;
    void on_message(SiteId, net::Message& msg) override {
      if (const auto* req = dynamic_cast<const NtRequestMsg*>(&msg)) {
        engine->on_request(*req);
      } else if (const auto* tok =
                     dynamic_cast<const NtTokenMsg<Counter>*>(&msg)) {
        engine->on_token(*tok);
      }
    }
  };

  std::vector<std::unique_ptr<PayloadHost>> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(std::make_unique<PayloadHost>());
    net.add_node(*hosts.back());
  }
  for (int i = 0; i < 3; ++i) {
    auto* host = hosts[static_cast<std::size_t>(i)].get();
    host->engine = std::make_unique<NaimiTrehelEngine<Counter>>(
        i, 0, 0,
        [host, &net](SiteId dst, std::unique_ptr<net::Message> m) {
          net.send(host->id(), dst, std::move(m));
        },
        [host]() {
          if (host->on_granted) host->on_granted();
        });
  }
  net.start();

  // Each site increments the payload once; the total must accumulate.
  int turn = 0;
  for (int i : {0, 1, 2, 1, 0}) {
    auto* host = hosts[static_cast<std::size_t>(i)].get();
    host->on_granted = [host, &turn]() {
      EXPECT_EQ(host->engine->payload().value, turn);
      ++host->engine->payload().value;
      ++turn;
      host->engine->release();
    };
    host->engine->request();
    sim.run();
    host->on_granted = nullptr;
  }
  EXPECT_EQ(turn, 5);
}

}  // namespace
}  // namespace mra::mutex
