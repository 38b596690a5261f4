// google-benchmark micro-benchmarks of the substrate: event queue, network
// delivery, request-queue operations, resource-set algebra. These guard the
// simulator's own performance (a slow substrate would silently cap the
// experiment sizes the figure benches can afford).
#include <benchmark/benchmark.h>

#include "algo/lass/token.hpp"
#include "core/resource_set.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace mra;

void BM_EventQueueScheduleDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(7);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(static_cast<sim::SimTime>(rng.uniform_int(0, 1'000'000)),
                 []() {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueScheduleDrain)->Arg(1 << 10)->Arg(1 << 14);

void BM_SimulatorSelfPost(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int remaining = 10'000;
    std::function<void()> tick = [&]() {
      if (--remaining > 0) sim.schedule_in(10, tick);
    };
    sim.schedule_in(0, tick);
    sim.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(10'000 * state.iterations());
}
BENCHMARK(BM_SimulatorSelfPost);

struct PingMsg final : net::Message {
  [[nodiscard]] std::string_view kind() const override { return "Ping"; }
};

class PingNode final : public net::Node {
 public:
  int received = 0;
  void on_message(SiteId from, net::Message& /*msg*/) override {
    ++received;
    if (received < 10'000) {
      network_->send(id(), from, std::make_unique<PingMsg>());
    }
  }
};

void BM_NetworkPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network net(sim, net::make_fixed_latency(sim::microseconds(600)), 1);
    PingNode a;
    PingNode b;
    net.add_node(a);
    net.add_node(b);
    net.start();
    net.send(0, 1, std::make_unique<PingMsg>());
    sim.run();
    benchmark::DoNotOptimize(b.received);
  }
  state.SetItemsProcessed(10'000 * state.iterations());
}
BENCHMARK(BM_NetworkPingPong);

void BM_SortedRequestQueueInsert(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  sim::Rng rng(3);
  for (auto _ : state) {
    algo::lass::SortedRequestQueue q;
    for (int i = 0; i < n; ++i) {
      algo::lass::ReqItem item;
      item.type = algo::lass::ReqType::kRes;
      item.r = 0;
      item.sinit = static_cast<SiteId>(i);
      item.id = 1;
      item.mark = rng.next_double() * 100.0;
      q.insert(item);
    }
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SortedRequestQueueInsert)->Arg(32)->Arg(256);

void BM_ResourceSetOps(benchmark::State& state) {
  ResourceSet a(1024);
  ResourceSet b(1024);
  sim::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    a.insert(static_cast<ResourceId>(rng.uniform_int(0, 1023)));
    b.insert(static_cast<ResourceId>(rng.uniform_int(0, 1023)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.subset_of(b));
    benchmark::DoNotOptimize(a.intersects(b));
    benchmark::DoNotOptimize(a.set_difference(b).size());
  }
}
BENCHMARK(BM_ResourceSetOps);

}  // namespace
