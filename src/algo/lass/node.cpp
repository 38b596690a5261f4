#include "algo/lass/node.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "check/mutant.hpp"
#include "net/network.hpp"

namespace mra::algo::lass {

LassNode::LassNode(const LassConfig& config, Trace* trace)
    : cfg_(config),
      trace_(trace),
      t_required_(config.num_resources),
      t_owned_(config.num_resources),
      cnt_needed_(config.num_resources),
      t_lent_(config.num_resources) {
  if (config.num_sites <= 0 || config.num_resources <= 0) {
    throw std::invalid_argument("LassConfig: num_sites and num_resources must be positive");
  }
  if (config.num_resources > UINT16_MAX) {
    // The per-resource index stores 16-bit slots (DESIGN.md §13).
    throw std::invalid_argument(
        "LassConfig: num_resources must be at most 65535");
  }
  current_ = ResourceSet(config.num_resources);
}

void LassNode::on_start() {
  // Initialization (Annex A, lines 45-67): the elected node owns every
  // token; everyone else points its father at the elected node. Only the
  // elected node materializes token state up front (its copies are the
  // authoritative ones); every other site starts with zero token snapshots
  // and materializes them lazily via tok() — a fresh LassToken(r, N) equals
  // the initial state, so the lazy path is behavior-identical (§13).
  tok_dir_.assign(static_cast<std::size_t>(cfg_.num_resources),
                  id() == cfg_.elected_node ? kNoSite : cfg_.elected_node);
  slots_.clear();
  toks_.clear();
  pending_.clear();
  if (id() == cfg_.elected_node) {
    for (ResourceId r = 0; r < cfg_.num_resources; ++r) {
      (void)tok(r);
      t_owned_.insert(r);
    }
  }
}

CounterVector LassNode::counter_vector() const {
  CounterVector v(static_cast<std::size_t>(cfg_.num_resources), 0);
  for (const CounterItem& c : my_counters_) {
    v[static_cast<std::size_t>(c.r)] = c.value;
  }
  return v;
}

void LassNode::trace(const std::string& what) {
  assert(tracing() && "format trace lines only when tracing()");
  trace_->log(network_->simulator().now(), id(), what);
}

ReqItem LassNode::my_res_request(ResourceId r) const {
  ReqItem item;
  item.type = ReqType::kRes;
  item.r = static_cast<std::uint16_t>(r);
  item.sinit = id();
  item.id = request_seq_;
  item.mark = mark_;
  return item;
}

bool LassNode::is_obsolete(const ReqItem& req) const {
  // §4.2.1: a request is obsolete when the (locally known) token state shows
  // it has already been served. The recorded ids only grow, so a stale
  // local snapshot can only under-approximate obsolescence — safe. An
  // unmaterialized token reads all-zero and ids start at 1: never obsolete.
  const LassToken* t = find_tok(req.r);
  if (t == nullptr) return false;
  const SiteIds ids = t->ids.get(req.sinit);
  return req.id <= ids.cs ||
         (req.type == ReqType::kCnt && req.id <= ids.req_cnt);
}

// ---------------------------------------------------------------------------
// Request_CS (Annex A, lines 68-84)
// ---------------------------------------------------------------------------
void LassNode::do_request(const ResourceSet& resources) {
  assert(state_ == ProcessState::kIdle && "request while not idle");
  assert(!resources.empty() && "empty resource request");
  ++request_seq_;
  t_required_ = resources;
  current_ = resources;
  state_ = ProcessState::kWaitS;
  cnt_needed_.clear();
  single_res_registered_ = false;
  if (tracing()) trace("Request_CS " + resources.to_string());

  const bool single_res_opt =
      cfg_.opt_single_resource && resources.size() == 1;

  resources.for_each([&](ResourceId r) {
    if (owns(r)) {
      // We hold the token: reserve and increment the counter locally.
      set_counter(r, tok(r).counter++);
    } else {
      cnt_needed_.insert(r);
      ReqItem item;
      item.type = ReqType::kCnt;
      item.r = static_cast<std::uint16_t>(r);
      item.sinit = id();
      item.id = request_seq_;
      if (single_res_opt) {
        // §4.6.1: the holder will treat this ReqCnt as a ReqRes as well, so
        // we must not send a separate ReqRes when the counter arrives.
        item.single_resource = true;
        single_res_registered_ = true;
      }
      buffer_request(tok_dir(r), item);
    }
  });
  update_mark();
  flush_own_requests();

  if (t_required_.subset_of(t_owned_)) {
    enter_cs();
  }
}

// ---------------------------------------------------------------------------
// Release_CS (Annex A, lines 85-101)
// ---------------------------------------------------------------------------
void LassNode::do_release() {
  assert(state_ == ProcessState::kInCS && "release outside CS");
  if (tracing()) trace("Release_CS " + t_required_.to_string());
  state_ = ProcessState::kIdle;
  loan_asked_ = false;

  t_required_.for_each([&](ResourceId r) {
    assert(owns(r));
    LassToken& t = tok(r);
    t.ids[id()].cs = request_seq_;
    const SiteId lender = t.lender;
    if (lender != kNoSite && lender != id()) {
      // Borrowed token: return it straight to the lender (line 95-98). Any
      // queued request from the lender is dropped — it gets the token itself.
      t.wqueue.remove_site(lender);
      t.lender = kNoSite;
      send_token(lender, r);
    } else if (!t.wqueue.empty()) {
      if (check::mutant_enabled(check::Mutant::kLassDropRelease)) {
        // Seeded bug: keep the token instead of serving the queue — the
        // queued requester starves (deadlock/starvation oracles).
        return;
      }
      t.lender = kNoSite;
      const ReqItem head = t.wqueue.pop_head();
      send_token(head.sinit, r);
    }
    // else: keep the token (we stay root of r's tree).
  });

  t_required_.clear();
  current_.clear();
  my_counters_.clear();
  mark_acc_.reset();
  update_mark();
  flush_responses();
}

void LassNode::enter_cs() {
  assert(t_required_.subset_of(t_owned_) ||
         check::mutant_enabled(check::Mutant::kLassPrematureEntry));
  state_ = ProcessState::kInCS;
  bool via_loan = false;
  t_required_.for_each([&](ResourceId r) {
    if (tok(r).lender != kNoSite && tok(r).lender != id()) via_loan = true;
  });
  if (via_loan) ++loans_used_;
  if (tracing()) {
    trace("enter CS " + t_required_.to_string() + (via_loan ? " (loan)" : ""));
  }
  notify_granted();
}

// ---------------------------------------------------------------------------
// SendToken (Annex A, lines 102-107)
// ---------------------------------------------------------------------------
void LassNode::send_token(SiteId dst, ResourceId r) {
  assert(owns(r));
  assert(dst != id() && "token sent to self");
  // The authoritative token travels. The site keeps only what its later
  // obsolescence tests read (§4.2.1): an exact-size copy of the id map, with
  // empty queues and no lender. Every other read of tok(r) happens while r
  // is owned, and process_update overwrites the snapshot when r comes back.
  LassToken& held = tok(r);
  LassToken snapshot(r, cfg_.num_sites);
  snapshot.counter = held.counter;
  snapshot.ids = held.ids;
  tok_buf_[dst].push_back(std::move(held));
  held = std::move(snapshot);
  tok_dir(r) = dst;
  t_owned_.erase(r);
}

// ---------------------------------------------------------------------------
// processCntNeededEmpty (Annex A, lines 108-116)
// ---------------------------------------------------------------------------
void LassNode::process_cnt_needed_empty() {
  assert(state_ == ProcessState::kWaitS && cnt_needed_.empty());
  state_ = ProcessState::kWaitCS;
  if (tracing()) trace("waitCS mark=" + std::to_string(mark_));
  t_required_.for_each([&](ResourceId r) {
    if (!owns(r)) {
      if (single_res_registered_) return;  // §4.6.1: already registered
      buffer_request(tok_dir(r), my_res_request(r));
    }
  });
  flush_own_requests();
}

// ---------------------------------------------------------------------------
// canLend (Annex A, lines 117-132)
// ---------------------------------------------------------------------------
bool LassNode::can_lend(const ReqItem& req) const {
  if (!req.missing->subset_of(t_owned_)) return false;
  // None of our owned tokens may itself be borrowed. Owned tokens are
  // always materialized (ownership is only gained in on_start/process_update,
  // both of which materialize), so a missing snapshot means not borrowed.
  bool borrowed = false;
  t_owned_.for_each([&](ResourceId r) {
    const LassToken* t = find_tok(r);
    if (t != nullptr && t->lender != kNoSite && t->lender != id()) {
      borrowed = true;
    }
  });
  if (borrowed) return false;
  if (!t_lent_.empty()) return false;          // one borrower at a time
  if (state_ == ProcessState::kInCS) return false;
  if (state_ == ProcessState::kWaitCS) {
    if (loan_asked_) {
      // Both want a loan: priority decides.
      ReqItem mine = my_res_request(req.r);
      return req.precedes(mine);
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// processReqLoan (Annex A, lines 190-207)
// ---------------------------------------------------------------------------
void LassNode::process_req_loan(const ReqItem& req) {
  assert(owns(req.r));
  if (is_obsolete(req)) return;
  if (req.sinit == id()) return;  // our own loan request came home
  if (can_lend(req)) {
    if (tracing()) {
      trace("lend " + req.missing->to_string() + " to s" +
            std::to_string(req.sinit));
    }
    t_lent_ = *req.missing;
    req.missing->for_each([&](ResourceId rp) {
      tok(rp).lender = id();
      tok(rp).wqueue.remove_site(req.sinit);  // it gets the token directly
      send_token(req.sinit, rp);
    });
  } else {
    if (!t_required_.contains(req.r) || state_ == ProcessState::kWaitS) {
      send_token(req.sinit, req.r);
    } else {
      tok(req.r).wloan.insert(req);
    }
  }
}

// ---------------------------------------------------------------------------
// processUpdate (Annex A, lines 133-158)
// ---------------------------------------------------------------------------
void LassNode::process_update(LassToken&& t) {
  const ResourceId r = t.r;
  LassToken& mine = tok(r);
  mine = std::move(t);
  t_owned_.insert(r);
  tok_dir(r) = kNoSite;

  if (cnt_needed_.contains(r)) {
    set_counter(r, mine.counter++);
    cnt_needed_.erase(r);
    update_mark();
  }
  if (t_lent_.contains(r)) {
    t_lent_.erase(r);
  }
  if (mine.lender == id()) {
    // Our own lent token came home; it is ordinary property again.
    mine.lender = kNoSite;
  }

  // Drop queue entries that were satisfied in the meantime, including our
  // own: receiving the token satisfies whatever claim we had queued in it
  // (a stale self-entry would otherwise be "served" by sending to self).
  mine.wqueue.prune_obsolete(mine.ids);
  mine.wloan.prune_obsolete(mine.ids);
  mine.wqueue.remove_site(id());
  mine.wloan.remove_site(id());

  // Fold the local request history into the token (lines 145-158), the
  // ReqCnt records first. Each list keeps arrival order, and the result
  // equals the single list's fold (DESIGN.md §13): counters depend only on
  // the ReqCnt order, the fold never writes the CS ids that a ReqRes or
  // ReqLoan obsolescence test reads, and the queues are sorted sets.
  History history;
  if (const std::uint16_t s = slot(r).pending; s != 0) {
    history = std::move(pending_[s - 1U]);
  }
  for (const ReqCntRecord& rec : history.cnt) {
    const ReqItem req = rec.item(r);
    if (is_obsolete(req)) continue;
    if (req.sinit == id()) continue;  // [deviation 2] self-request, satisfied
    reply_counter(req);
  }
  for (const ReqItem& req : history.other) {
    if (is_obsolete(req)) continue;
    if (req.sinit == id()) continue;  // [deviation 2]
    (req.type == ReqType::kRes ? mine.wqueue : mine.wloan).insert(req);
  }
}

CounterValue LassNode::assign_counter(const ReqItem& req) {
  LassToken& t = tok(req.r);
  t.ids[req.sinit].req_cnt = req.id;
  if (!check::mutant_enabled(check::Mutant::kLassSkipCounterReply)) {
    // Seeded bug (when skipped): the counter-update reply never leaves, so
    // the requester waits in waitS forever (deadlock/starvation oracles).
    buffer_counter(req.sinit, req.r, t.counter);
  }
  return t.counter++;
}

void LassNode::reply_counter(const ReqItem& req) {
  const CounterValue value = assign_counter(req);
  if (req.single_resource) {
    // §4.6.1: this ReqCnt also acts as the ReqRes; the mark of a
    // single-resource request is A([v]) = v, known right here. The request
    // joins the queue; the caller's serve loop applies the waitS yield rule.
    ReqItem res = req;
    res.type = ReqType::kRes;
    res.mark = static_cast<double>(value);
    tok(req.r).wqueue.insert(res);
  }
}

// ---------------------------------------------------------------------------
// Receive Request (Annex A, lines 159-189)
// ---------------------------------------------------------------------------
void LassNode::process_request_item(const ReqItem& req,
                                    const Visited& visited) {
  const ResourceId r = req.r;
  if (is_obsolete(req)) return;

  if (owns(r)) {
    if (req.sinit == id()) return;  // [deviation 2] our own echo; we own r
    if (req.type == ReqType::kLoan) {
      process_req_loan(req);
    } else if (!t_required_.contains(r) ||
               (state_ == ProcessState::kWaitS && req.type != ReqType::kCnt)) {
      // No conflict (or our own mark is not fixed yet): hand the token over.
      send_token(req.sinit, r);
    } else if (req.type == ReqType::kCnt) {
      const CounterValue value = assign_counter(req);
      if (req.single_resource) {
        // §4.6.1: double as ReqRes. Apply the same rules a plain ReqRes
        // would meet here: in waitS yield the token (our own mark is not
        // fixed yet — queueing instead could create a wait cycle); in
        // waitCS/inCS run the usual priority arbitration.
        ReqItem res = req;
        res.type = ReqType::kRes;
        res.mark = static_cast<double>(value);
        if (state_ == ProcessState::kWaitS) {
          send_token(req.sinit, r);
        } else {
          handle_res_request_as_owner(res);
        }
      }
    } else {  // ReqRes, conflicting
      handle_res_request_as_owner(req);
    }
    return;
  }

  // Not the holder: forward along the tree unless the father was already
  // visited (cycle) — the token is then in transit towards a site that has
  // this request in its history.
  const SiteId father = tok_dir(r);

  // §4.6.2 second bullet: stop forwarding when we are certain to obtain the
  // token before the requester.
  if (cfg_.opt_stop_forwarding && req.type == ReqType::kRes) {
    const bool we_precede =
        state_ == ProcessState::kWaitCS && t_required_.contains(r) &&
        my_res_request(r).precedes(req);
    if (we_precede || t_lent_.contains(r)) {
      pending(r).push(req);
      return;
    }
  }

  pending(r).push(req);
  // [deviation 1] Forwarding stops at a visited father; the request stays
  // in the local history so a future token visit serves it (lemma 6).
  if (!visited.contains(father)) buffer_request(father, req);
}

void LassNode::handle_res_request_as_owner(const ReqItem& req) {
  // Lines 176-184: we own the token, we require r, and our mark is fixed
  // (state is waitCS or inCS — waitS was handled by the caller).
  LassToken& t = tok(req.r);
  if (t.wqueue.contains_site(req.sinit)) {
    t.wqueue.insert(req);  // refresh (newer id wins); no further action
    return;
  }
  ReqItem mine = my_res_request(req.r);
  if (state_ == ProcessState::kWaitCS && req.precedes(mine)) {
    t.wqueue.insert(mine);
    send_token(req.sinit, req.r);
  } else {
    t.wqueue.insert(req);
  }
}

// ---------------------------------------------------------------------------
// Receive Token (Annex A, lines 208-254)
// ---------------------------------------------------------------------------
void LassNode::serve_queues_after_token() {
  // Lines 226-240: yield owned tokens according to the `/` order. Sending
  // only erases from t_owned_, and for_each reads each word when it gets
  // there, so this visits exactly the members a snapshot would, minus the
  // ones already sent — which the snapshot loop skipped via owns(r).
  t_owned_.for_each([&](ResourceId r) {
    if (!owns(r)) return;  // sent in an earlier iteration
    LassToken& t = tok(r);
    if (t.wqueue.empty()) return;
    if (state_ == ProcessState::kWaitS || state_ == ProcessState::kIdle ||
        !t_required_.contains(r)) {
      // waitS: our mark is not fixed, always yield (lines 230-232).
      // Idle / not required: we have no claim on r (e.g. a lent token came
      // home carrying queued requests) — serve the head unconditionally.
      const ReqItem head = t.wqueue.pop_head();
      send_token(head.sinit, r);
    } else if (state_ == ProcessState::kWaitCS) {
      ReqItem mine = my_res_request(r);
      if (t.wqueue.head().precedes(mine)) {
        const ReqItem head = t.wqueue.pop_head();
        t.wqueue.insert(mine);
        send_token(head.sinit, r);
      }
    }
  });

  // Lines 241-247: retry pending loan requests on every owned token.
  t_owned_.for_each([&](ResourceId r) {
    if (!owns(r)) return;
    LassToken& t = tok(r);
    if (t.wloan.empty()) return;
    const SortedRequestQueue::Items queued = t.wloan.take_items();
    for (const ReqItem& req : queued) {
      // Serving one loan request can ship this very token (grant or
      // fallback); later entries then find it gone. Dropping them is safe:
      // loans are opportunistic, the requester's ReqRes guarantees progress.
      if (!owns(req.r)) break;
      process_req_loan(req);
    }
  });
}

void LassNode::maybe_initiate_loan() {
  // Lines 248-252. The paper tests |missing| == threshold with threshold 1;
  // we use 1 <= |missing| <= threshold so the ablation can widen it.
  if (!cfg_.enable_loan || state_ != ProcessState::kWaitCS || loan_asked_) {
    return;
  }
  // Count first: the set itself is only built when a loan is asked.
  std::size_t num_missing = 0;
  t_required_.for_each([&](ResourceId r) {
    if (!owns(r)) ++num_missing;
  });
  if (num_missing == 0 ||
      num_missing > static_cast<std::size_t>(cfg_.loan_threshold)) {
    return;
  }
  // One set per ask, shared by the ReqLoan items sent for it.
  const LoanSet missing(t_required_.set_difference(t_owned_));
  loan_asked_ = true;
  if (tracing()) trace("ask loan for " + missing->to_string());
  missing->for_each([&](ResourceId r) {
    ReqItem item;
    item.type = ReqType::kLoan;
    item.r = static_cast<std::uint16_t>(r);
    item.sinit = id();
    item.id = request_seq_;
    item.mark = mark_;
    item.missing = missing;
    buffer_request(tok_dir(r), item);
  });
  flush_own_requests();
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------
void LassNode::on_message(SiteId from, net::Message& msg) {
  if (const auto* reqs = dynamic_cast<const RequestBundleMsg*>(&msg)) {
    const Visited received{reqs->visited};
    for (const ReqItem& item : reqs->items) {
      process_request_item(item, received);
    }
    // Forwarded bundles list this site too (once).
    const SiteId extra = received.contains(id()) ? kNoSite : id();
    flush_requests(Visited{reqs->visited, extra});
    flush_responses();
    return;
  }

  if (const auto* cnts = dynamic_cast<const CounterBundleMsg*>(&msg)) {
    // Receive Counter (lines 255-262).
    for (const CounterItem& c : cnts->items) {
      if (!cnt_needed_.contains(c.r)) continue;  // duplicate/stale reply
      set_counter(c.r, c.value);
      cnt_needed_.erase(c.r);
      tok_dir(c.r) = from;  // line 260: the replier held the token
    }
    update_mark();
    if (state_ == ProcessState::kWaitS && cnt_needed_.empty()) {
      process_cnt_needed_empty();
    }
    flush_responses();
    return;
  }

  if (auto* toks = dynamic_cast<TokenBundleMsg*>(&msg)) {
    // The network destroys the message after delivery: take the tokens.
    for (LassToken& t : toks->items) process_update(std::move(t));

    if (state_ == ProcessState::kWaitS || state_ == ProcessState::kWaitCS) {
      const bool premature =
          check::mutant_enabled(check::Mutant::kLassPrematureEntry) &&
          t_owned_.intersects(t_required_);
      if (t_required_.subset_of(t_owned_) || premature) {
        // Seeded bug (`premature`): enter the CS as soon as one required
        // token arrived — the mutual-exclusion oracle must flag the overlap.
        enter_cs();
      } else {
        // Failed loan: give borrowed tokens back immediately (lines 216-223).
        // Only r itself leaves t_owned_ here, so in-place iteration is safe.
        t_owned_.for_each([&](ResourceId r) {
          LassToken& t = tok(r);
          if (t.lender != kNoSite && t.lender != id()) {
            const SiteId lender = t.lender;
            t.lender = kNoSite;
            // [deviation 3] keep our regular claim on r alive: the lender
            // removed our ReqRes from the queue when granting the loan.
            if (t_required_.contains(r) && state_ == ProcessState::kWaitCS) {
              t.wqueue.insert(my_res_request(r));
            }
            send_token(lender, r);
            loan_asked_ = false;
            ++loans_failed_;
            if (tracing()) trace("loan failed, return r" + std::to_string(r));
          }
        });
        if (state_ == ProcessState::kWaitS && cnt_needed_.empty()) {
          process_cnt_needed_empty();
        }
        serve_queues_after_token();
        maybe_initiate_loan();
      }
    } else {
      // Idle lender receiving returned tokens: serve whatever queued up.
      serve_queues_after_token();
    }
    flush_own_requests();
    flush_responses();
    return;
  }

  assert(false && "LassNode: unknown message type");
}

// ---------------------------------------------------------------------------
// Aggregation buffers (§4.2.2)
// ---------------------------------------------------------------------------
void LassNode::buffer_request(SiteId dst, ReqItem item) {
  assert(dst != kNoSite);
  req_buf_[dst].push_back(std::move(item));
}

void LassNode::buffer_counter(SiteId dst, ResourceId r, CounterValue value) {
  cnt_buf_[dst].push_back(CounterItem{r, value});
}

bool LassNode::Visited::contains(SiteId s) const {
  return (extra != kNoSite && s == extra) ||
         std::find(received.begin(), received.end(), s) != received.end();
}

void LassNode::flush_requests(const Visited& visited) {
  // Local processing (dst == self) can buffer further requests; drain until
  // a fixed point. Termination: each pass either sends on the network or
  // shortens a forwarding path, and paths are bounded by |visited| <= N.
  while (!req_buf_.empty()) {
    auto bufs = std::move(req_buf_);
    req_buf_.clear();
    for (auto& [dst, items] : bufs) {
      if (dst == id()) {
        // A father pointer may legitimately point at ourselves transiently;
        // process locally instead of looping through the network.
        for (const ReqItem& item : items) process_request_item(item, visited);
        continue;
      }
      auto msg = std::make_unique<RequestBundleMsg>();
      msg->visited.reserve(visited.received.size() + 1);
      for (const SiteId s : visited.received) msg->visited.push_back(s);
      if (visited.extra != kNoSite) msg->visited.push_back(visited.extra);
      msg->items = std::move(items);
      network_->send(id(), dst, std::move(msg));
    }
  }
}

void LassNode::flush_responses() {
  if (!cnt_buf_.empty()) {
    auto bufs = std::move(cnt_buf_);
    cnt_buf_.clear();
    for (auto& [dst, items] : bufs) {
      auto msg = std::make_unique<CounterBundleMsg>();
      msg->items = std::move(items);
      network_->send(id(), dst, std::move(msg));
    }
  }
  if (!tok_buf_.empty()) {
    auto bufs = std::move(tok_buf_);
    tok_buf_.clear();
    for (auto& [dst, items] : bufs) {
      auto msg = std::make_unique<TokenBundleMsg>();
      msg->items = std::move(items);
      network_->send(id(), dst, std::move(msg));
    }
  }
}

}  // namespace mra::algo::lass
