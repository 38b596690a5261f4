// The paper's algorithm: decentralized multi-resource allocation with
// per-resource counter tokens, the `/` total order, dynamic re-scheduling and
// the loan mechanism (§3, §4, Annex A).
//
// This class is a line-faithful translation of the Annex A pseudo-code; the
// few deviations (all defensive) are marked `// [deviation N]` in node.cpp
// and listed in DESIGN.md §5.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "algo/lass/messages.hpp"
#include "algo/lass/token.hpp"
#include "core/allocator.hpp"
#include "core/flat_map.hpp"
#include "core/mark.hpp"
#include "core/small_vector.hpp"
#include "core/trace.hpp"

namespace mra::algo::lass {

/// Tuning knobs of the algorithm.
struct LassConfig {
  int num_sites = 0;
  int num_resources = 0;

  /// Scheduling policy A (§3.3.2). Paper's evaluation: average of non-zero.
  MarkPolicy mark_policy = MarkPolicy::kAverageNonZero;

  /// Loan mechanism (§3.4, §4.5). The paper's "with loan" variant uses
  /// threshold 1: ask a loan when exactly one resource is missing. We
  /// generalise to "at most loan_threshold missing" for the §6 ablation.
  bool enable_loan = false;
  int loan_threshold = 1;

  /// §4.6.1: single-resource requests skip the counter round-trip.
  bool opt_single_resource = true;

  /// §4.6.2: stop forwarding a ReqRes at a site that is certain to obtain
  /// the token before the requester.
  bool opt_stop_forwarding = true;

  /// Site initially holding every token (the paper's elected_node).
  SiteId elected_node = 0;
};

/// One site running the algorithm.
class LassNode final : public AllocatorNode {
 public:
  LassNode(const LassConfig& config, Trace* trace = nullptr);

  // AllocatorNode interface -------------------------------------------------
  void do_request(const ResourceSet& resources) override;
  void do_release() override;
  [[nodiscard]] ProcessState state() const override { return state_; }

  void on_start() override;
  void on_message(SiteId from, net::Message& msg) override;

  // Introspection for tests / invariant checks ------------------------------
  [[nodiscard]] const ResourceSet& owned_tokens() const { return t_owned_; }
  [[nodiscard]] const ResourceSet& lent_resources() const { return t_lent_; }
  /// The site's view of r's token. Tokens materialize lazily (§13); a
  /// never-seen token reads as the initial state, so a copy is returned.
  /// Only at the holder is it the whole token: a site that shipped r keeps
  /// just the id map (what its obsolescence tests read), with empty queues
  /// and no lender.
  [[nodiscard]] LassToken token_snapshot(ResourceId r) const {
    const LassToken* t = find_tok(r);
    return t != nullptr ? *t : LassToken(r, cfg_.num_sites);
  }
  [[nodiscard]] bool loan_asked() const { return loan_asked_; }
  /// The current request's counters as the paper's dense vector MyVector
  /// (entry r = the counter obtained for r, 0 if none yet), built on demand.
  [[nodiscard]] CounterVector counter_vector() const;
  /// A(counter_vector()): the mark of the current request, cached whenever
  /// a counter arrives (0 when idle under every built-in policy).
  [[nodiscard]] double current_mark() const { return mark_; }
  /// Number of CS entries that completed via a loan.
  [[nodiscard]] std::uint64_t loans_used() const { return loans_used_; }
  [[nodiscard]] std::uint64_t loans_failed() const { return loans_failed_; }

 private:
  // -- helpers mirroring the pseudo-code procedures --------------------------
  [[nodiscard]] bool owns(ResourceId r) const { return t_owned_.contains(r); }

  /// r's local request history (Annex A pendingReq[r]), kept as two lists
  /// in arrival order: ReqCnt records, nearly all of them, in 16 bytes, and
  /// the ReqRes and ReqLoan records whole. Folding one list after the other
  /// gives the token the single list's result (DESIGN.md §13).
  struct History {
    core::SmallVector<ReqCntRecord, 1> cnt;
    std::vector<ReqItem> other;

    /// Appends `req`. The ReqCnt list grows by 1.25x, not 2x: it is only
    /// appended to until the token visits, and most of it is never read.
    void push(const ReqItem& req) {
      if (req.type != ReqType::kCnt) {
        other.push_back(req);
        return;
      }
      if (cnt.size() == cnt.capacity()) {
        cnt.reserve(cnt.size() + cnt.size() / 4 + 1);
      }
      cnt.push_back(ReqCntRecord{req.id, req.sinit, req.single_resource});
    }
  };
  /// One slot of the per-resource index (see the members below): 1-based
  /// positions of r's token snapshot in toks_ and of its history in
  /// pending_, 0 = not materialized.
  struct Slot {
    std::uint16_t tok = 0;
    std::uint16_t pending = 0;
  };
  /// r's slot; the site's first touch of any resource allocates the index.
  [[nodiscard]] Slot& slot(ResourceId r) {
    if (slots_.empty()) {
      slots_.resize(static_cast<std::size_t>(cfg_.num_resources));
    }
    return slots_[static_cast<std::size_t>(r)];
  }
  /// Materializes r's token snapshot on first touch. A fresh
  /// LassToken(r, N) is exactly the pre-refactor eagerly-initialized state
  /// (counter 1, all ids 0, empty queues, no lender), so lazy creation is
  /// behavior-identical while an untouched site pays 0 bytes for r.
  [[nodiscard]] LassToken& tok(ResourceId r) {
    std::uint16_t& s = slot(r).tok;
    if (s == 0) {
      toks_.emplace_back(r, cfg_.num_sites);
      s = static_cast<std::uint16_t>(toks_.size());
    }
    return toks_[s - 1U];
  }
  /// Read-only lookup; nullptr means "still in the initial state".
  [[nodiscard]] const LassToken* find_tok(ResourceId r) const {
    if (slots_.empty()) return nullptr;
    const std::uint16_t s = slots_[static_cast<std::size_t>(r)].tok;
    return s == 0 ? nullptr : &toks_[s - 1U];
  }
  /// r's request history, created on first use.
  [[nodiscard]] History& pending(ResourceId r) {
    std::uint16_t& s = slot(r).pending;
    if (s == 0) {
      pending_.emplace_back();
      s = static_cast<std::uint16_t>(pending_.size());
    }
    return pending_[s - 1U];
  }
  [[nodiscard]] SiteId& tok_dir(ResourceId r) {
    return tok_dir_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] ReqItem my_res_request(ResourceId r) const;
  [[nodiscard]] bool is_obsolete(const ReqItem& req) const;

  /// Sites a request bundle has traversed (§4.2.1): a received list plus
  /// at most one more site, viewed in place so no list is copied per
  /// delivery. The bundle built from it lists `received`, then `extra`.
  struct Visited {
    std::span<const SiteId> received;
    SiteId extra = kNoSite;
    [[nodiscard]] bool contains(SiteId s) const;
  };

  void process_request_item(const ReqItem& req, const Visited& visited);
  void handle_res_request_as_owner(const ReqItem& req);
  CounterValue assign_counter(const ReqItem& req);
  void reply_counter(const ReqItem& req);
  void process_req_loan(const ReqItem& req);
  [[nodiscard]] bool can_lend(const ReqItem& req) const;
  void process_update(LassToken&& t);
  void process_cnt_needed_empty();
  void serve_queues_after_token();
  void maybe_initiate_loan();
  void enter_cs();
  void send_token(SiteId dst, ResourceId r);

  // -- buffered sends (aggregation mechanism, §4.2.2) ------------------------
  void buffer_request(SiteId dst, ReqItem item);
  void buffer_counter(SiteId dst, ResourceId r, CounterValue value);
  void flush_requests(const Visited& visited);
  /// Drains requests this site originated: the bundle lists only itself.
  void flush_own_requests() { flush_requests(Visited{{}, id()}); }
  void flush_responses();

  /// Trace lines are formatted only when this is true (tracing is off in
  /// every measured run, so the hot path builds no strings).
  [[nodiscard]] bool tracing() const {
    return trace_ != nullptr && trace_->enabled() && network_ != nullptr;
  }
  /// Precondition: tracing().
  void trace(const std::string& what);
  /// Records the counter obtained for r (MyVector[r] := value).
  void set_counter(ResourceId r, CounterValue value) {
    my_counters_.push_back(CounterItem{r, value});
    mark_acc_.add(value);
  }
  /// Recomputes the cached mark; call after the counters change.
  void update_mark() { mark_ = mark_acc_.mark(cfg_.mark_policy); }

  // -- configuration ----------------------------------------------------------
  LassConfig cfg_;
  Trace* trace_ = nullptr;

  // -- local variables (Annex A, Figure 9) ------------------------------------
  // Per-site memory budget (DESIGN.md §13): tok_dir_ stays dense O(M) — M
  // is the paper-fixed resource count (80), independent of N. Everything
  // that used to be O(N) or O(M x heavy) is sparse: token snapshots and
  // request histories materialize on first touch, the aggregation buffers
  // only hold live entries, and MyVector is the list of counters obtained.
  ProcessState state_ = ProcessState::kIdle;
  std::vector<SiteId> tok_dir_;        // father per resource; kNoSite = root
  // MyVector: the counters the current request has obtained (its non-zero
  // entries), kept as a list and folded into mark_acc_ as they arrive.
  core::SmallVector<CounterItem, 1> my_counters_;
  MarkAccumulator mark_acc_;
  double mark_ = 0.0;                  // A(MyVector), kept current
  ResourceSet t_required_;             // current request (== current_)
  ResourceSet t_owned_;                // owned tokens
  ResourceSet cnt_needed_;             // counters not yet received
  ResourceSet t_lent_;                 // resources lent out
  bool loan_asked_ = false;
  bool single_res_registered_ = false;  // §4.6.1 bookkeeping

  // -- per-resource index (DESIGN.md §13) ------------------------------------
  // One Slot per resource, allocated on the site's first touch of any
  // resource; a site that never touches one pays three empty vectors. The
  // pools only grow (at most M entries each), so a lookup is two array
  // reads and nothing ever shifts. 16-bit slots keep a touched site's index
  // at 4·M bytes.
  std::vector<Slot> slots_;
  std::vector<LassToken> toks_;   // token snapshots
  std::vector<History> pending_;  // request histories

  // -- aggregation buffers (sorted by destination = std::map send order) ------
  core::FlatMap<SiteId, ReqItems, 2> req_buf_;
  core::FlatMap<SiteId, CounterItems, 2> cnt_buf_;
  core::FlatMap<SiteId, TokenItems, 1> tok_buf_;

  // -- stats -------------------------------------------------------------------
  std::uint64_t loans_used_ = 0;
  std::uint64_t loans_failed_ = 0;
};

}  // namespace mra::algo::lass
