#include "algo/central.hpp"

#include <cassert>
#include <stdexcept>

namespace mra::algo {

CentralCoordinator::CentralCoordinator(const CentralConfig& config,
                                       sim::Simulator& simulator)
    : cfg_(config), sim_(simulator), busy_(config.num_resources) {
  if (config.num_sites <= 0 || config.num_resources <= 0) {
    throw std::invalid_argument(
        "CentralConfig: num_sites and num_resources must be positive");
  }
}

void CentralCoordinator::submit(CentralNode& node,
                                const ResourceSet& resources) {
  queue_.push_back(Waiting{&node, resources});
  try_grant();
}

void CentralCoordinator::release(CentralNode& node,
                                 const ResourceSet& resources) {
  (void)node;
  busy_ -= resources;
  try_grant();
}

void CentralCoordinator::try_grant() {
  // Scan in arrival order; grant whatever fits. Grants are delivered as
  // zero-delay events so a grant callback never runs inside submit()/
  // release() of another node (same-instant, deterministic order).
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->resources.intersects(busy_)) {
      if (cfg_.strict_fifo) break;  // head blocks everyone behind it
      ++it;
      continue;
    }
    busy_ |= it->resources;
    CentralNode* node = it->node;
    it = queue_.erase(it);
    sim_.schedule_in(0, [node]() { node->granted(); });
  }
}

CentralNode::CentralNode(const CentralConfig& config,
                         CentralCoordinator& coordinator)
    : coordinator_(coordinator) {
  current_ = ResourceSet(config.num_resources);
}

void CentralNode::do_request(const ResourceSet& resources) {
  assert(state_ == ProcessState::kIdle && "request while not idle");
  assert(!resources.empty());
  ++request_seq_;
  current_ = resources;
  state_ = ProcessState::kWaitCS;
  coordinator_.submit(*this, resources);
}

void CentralNode::granted() {
  assert(state_ == ProcessState::kWaitCS);
  state_ = ProcessState::kInCS;
  notify_granted();
}

void CentralNode::do_release() {
  assert(state_ == ProcessState::kInCS && "release outside CS");
  state_ = ProcessState::kIdle;
  coordinator_.release(*this, current_);
  current_.clear();
}

void CentralNode::on_message(SiteId /*from*/, net::Message& /*msg*/) {
  assert(false && "CentralNode communicates via the coordinator, not messages");
}

}  // namespace mra::algo
