// Base class for protocol participants.
#pragma once

#include <stdexcept>
#include <utility>

#include "core/types.hpp"
#include "net/message.hpp"

namespace mra::net {

class Network;

/// A site in the distributed system. Concrete protocols subclass this and
/// implement on_message(). Nodes are registered with a Network, which routes
/// messages and injects the latency model.
class Node {
 public:
  virtual ~Node() = default;

  [[nodiscard]] SiteId id() const { return id_; }

  /// The network this node is registered with (null before registration).
  [[nodiscard]] Network* network() const { return network_; }

  /// Called by the network when a message addressed to this node arrives.
  /// The network owns `msg` and destroys it as soon as this returns, so a
  /// node may move payload out of it (LASS takes its tokens this way).
  /// The default forwards to the read-only overload below.
  virtual void on_message(SiteId from, Message& msg) {
    on_message(from, std::as_const(msg));
  }

  /// Read-only receive hook for nodes that never take payload out of a
  /// message. Override exactly one of the two overloads.
  virtual void on_message(SiteId /*from*/, const Message& /*msg*/) {
    throw std::logic_error("net::Node: on_message is not overridden");
  }

  /// Called once after every node is registered, before the first event.
  virtual void on_start() {}

 protected:
  friend class Network;
  Network* network_ = nullptr;
  SiteId id_ = kNoSite;
};

}  // namespace mra::net
