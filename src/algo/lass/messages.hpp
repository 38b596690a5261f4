// Message types of the paper's algorithm (Annex A, Figure 8).
//
// The five logical message types (ReqCnt, ReqRes, ReqLoan, Counter, Token)
// are carried inside three aggregated bundles, implementing the paper's
// aggregation mechanism (§4.2.2): same-type messages to the same destination
// produced while handling one event are combined into a single network
// message. Request bundles additionally carry the set of already-visited
// sites (§4.2.1, cycle suppression).
//
// The item lists are the same inline-capacity vectors the sender's
// aggregation buffers use, so a flush moves a buffer into its message and
// the common bundle (a few items, a short visited list) lives entirely in
// the pooled message block: no per-delivery heap allocation.
#pragma once

#include <string_view>

#include "algo/lass/token.hpp"
#include "core/small_vector.hpp"
#include "core/types.hpp"
#include "net/message.hpp"

namespace mra::algo::lass {

using ReqItems = core::SmallVector<ReqItem, 2>;

/// Request messages: forwarded hop-by-hop along the resource tree.
struct RequestBundleMsg final : net::Message {
  core::SmallVector<SiteId, 6> visited;  ///< sites already traversed
  ReqItems items;

  [[nodiscard]] std::string_view kind() const override { return "Lass.Req"; }
  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t s = 4 + visited.size() * 4;
    for (const auto& it : items) s += it.wire_size();
    return s;
  }
};

/// One counter value (reply to a ReqCnt).
struct CounterItem {
  ResourceId r = kNoResource;
  CounterValue value = 0;
};

using CounterItems = core::SmallVector<CounterItem, 2>;

/// Counter replies: sent directly to the requester.
struct CounterBundleMsg final : net::Message {
  CounterItems items;

  [[nodiscard]] std::string_view kind() const override { return "Lass.Counter"; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 4 + items.size() * 12;
  }
};

using TokenItems = core::SmallVector<LassToken, 1>;

/// Tokens: sent directly to their next holder.
struct TokenBundleMsg final : net::Message {
  TokenItems items;

  [[nodiscard]] std::string_view kind() const override { return "Lass.Token"; }
  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t s = 4;
    for (const auto& t : items) s += t.wire_size();
    return s;
  }
};

}  // namespace mra::algo::lass
