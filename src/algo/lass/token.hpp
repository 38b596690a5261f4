// The per-resource token of the paper's algorithm (Annex A, Figure 8, Token)
// and the request records stored in its queues.
//
// Memory layout (DESIGN.md §13): the paper's token carries two per-site id
// vectors (last ReqCnt served, last CS satisfied). Stored densely that is
// 16 bytes x N sites x M resources per site — the ~1.3 MB/site blocker at
// N = 1024. Both vectors start all-zero and only the handful of sites that
// ever touched this token get non-zero entries, so they are stored as one
// sparse sorted map from site to both ids: an absent site reads as {0, 0},
// exactly the dense initial value (request ids start at 1, so obsolescence
// tests on absent sites are always false). `wire_size()` still charges the
// dense encoding — the simulated message-byte accounting must not depend on
// the in-memory representation.
#pragma once

#include <cstdint>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "core/flat_map.hpp"
#include "core/mark.hpp"
#include "core/resource_set.hpp"
#include "core/small_vector.hpp"
#include "core/types.hpp"

namespace mra::algo::lass {

/// The two Annex A ids a token records for one site.
struct SiteIds {
  RequestId req_cnt = 0;  ///< last ReqCnt id served
  RequestId cs = 0;       ///< last satisfied CS id
};

/// Sparse per-site id map; sites never recorded read as {0, 0}, matching
/// the dense vectors' initial state. Sites and id pairs sit in two parallel
/// arrays sorted by site, so one obsolescence test binary-searches packed
/// 4-byte site ids once and reads both ids of the hit.
class SiteRequestIds {
 public:
  [[nodiscard]] bool empty() const { return sites_.empty(); }
  [[nodiscard]] std::size_t size() const { return sites_.size(); }

  /// The ids recorded for `site`, {0, 0} when none are.
  [[nodiscard]] SiteIds get(SiteId site) const {
    const std::size_t i = index(site);
    return i < sites_.size() && sites_[i] == site ? ids_[i] : SiteIds{};
  }

  /// std::map semantics: records {0, 0} for `site` on first access.
  SiteIds& operator[](SiteId site) {
    const std::size_t i = index(site);
    if (i == sites_.size() || sites_[i] != site) {
      sites_.insert(sites_.begin() + i, site);
      ids_.insert(ids_.begin() + i, SiteIds{});
    }
    return ids_[i];
  }

 private:
  [[nodiscard]] std::size_t index(SiteId site) const {
    return core::branchless_lower_bound(
        sites_.data(), sites_.size(), [site](SiteId s) { return s < site; });
  }

  core::SmallVector<SiteId, 2> sites_;
  core::SmallVector<SiteIds, 2> ids_;
};

/// The three request message types (§4.2).
enum class ReqType : std::uint8_t {
  kCnt,   ///< ReqCnt: ask the current counter value
  kRes,   ///< ReqRes: ask the right to access the resource
  kLoan,  ///< ReqLoan: ask to borrow the missing resources
};

[[nodiscard]] constexpr const char* to_string(ReqType t) {
  switch (t) {
    case ReqType::kCnt: return "ReqCnt";
    case ReqType::kRes: return "ReqRes";
    case ReqType::kLoan: return "ReqLoan";
  }
  return "?";
}

/// The resources one ReqLoan ask misses, shared by the ask's items: an
/// 8-byte handle to one {refs, set} block. Copies share the block and the
/// last owner frees it. The count is not atomic: one simulation runs on one
/// thread, and a request record never leaves it.
class LoanSet {
 public:
  LoanSet() = default;
  explicit LoanSet(ResourceSet set) : block_(new Block{1, std::move(set)}) {}
  LoanSet(const LoanSet& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) ++block_->refs;
  }
  LoanSet(LoanSet&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  LoanSet& operator=(LoanSet other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~LoanSet() {
    if (block_ != nullptr && --block_->refs == 0) delete block_;
  }

  [[nodiscard]] explicit operator bool() const { return block_ != nullptr; }
  /// Precondition: *this holds a set.
  [[nodiscard]] const ResourceSet& operator*() const { return block_->set; }
  [[nodiscard]] const ResourceSet* operator->() const { return &block_->set; }
  /// Handles sharing the block (0 for an empty handle); for tests.
  [[nodiscard]] std::size_t use_count() const {
    return block_ != nullptr ? block_->refs : 0;
  }

 private:
  struct Block {
    std::size_t refs;
    ResourceSet set;
  };
  Block* block_ = nullptr;
};

/// One request record; doubles as the entry type of wQueue/wLoan.
///
/// Records are copied on every hop (history, queues, aggregation buffers),
/// so the layout is kept at 32 bytes: the ReqLoan-only `missing` set is an
/// 8-byte handle shared by the items of one loan ask, and the resource is
/// 16 bits wide (LassNode rejects M > 65535).
struct ReqItem {
  double mark = 0.0;        ///< A(counter vector); meaningful for Res/Loan
  RequestId id = 0;         ///< requester's CS request number
  LoanSet missing;          ///< ReqLoan only: resources the requester misses
  SiteId sinit = kNoSite;   ///< original requester
  std::uint16_t r = 0;      ///< the requested resource
  ReqType type = ReqType::kCnt;
  bool single_resource = false;  ///< §4.6.1: ReqCnt doubling as ReqRes

  /// Total order `/` (§3.3.2): (mark, site id) lexicographic.
  [[nodiscard]] bool precedes(const ReqItem& other) const {
    return request_precedes(mark, sinit, other.mark, other.sinit);
  }

  [[nodiscard]] std::size_t wire_size() const {
    return 26 +
           (type == ReqType::kLoan ? (missing->universe_size() + 7) / 8 : 0);
  }
};
static_assert(sizeof(ReqItem) == 32, "request records are copied per hop");

/// A ReqCnt record in a site's request history (Annex A pendingReq[r]).
/// Nearly every history record is a ReqCnt, and it needs neither the
/// resource (the history is per resource), nor a mark (always 0), nor a loan
/// set: 16 bytes instead of ReqItem's 32.
struct ReqCntRecord {
  RequestId id = 0;
  SiteId sinit = kNoSite;
  bool single_resource = false;

  /// The ReqItem this record was made from.
  [[nodiscard]] ReqItem item(ResourceId r) const {
    ReqItem req;
    req.id = id;
    req.sinit = sinit;
    req.r = static_cast<std::uint16_t>(r);
    req.single_resource = single_resource;
    return req;
  }
};
static_assert(sizeof(ReqCntRecord) == 16, "request histories hold millions");

/// Queue of requests kept sorted by the `/` total order.
///
/// At most one live entry per site (hypothesis 4: one outstanding request per
/// process); insertion replaces an older entry from the same site.
class SortedRequestQueue {
 public:
  using Items = core::SmallVector<ReqItem, 1>;

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] const ReqItem& head() const { return items_.front(); }
  [[nodiscard]] const Items& items() const { return items_; }

  /// Inserts keeping `/` order. If an entry from the same site exists:
  /// a newer id replaces it, an older or equal id is ignored.
  /// Returns true when the queue changed.
  bool insert(const ReqItem& item);

  /// Removes and returns the head. Precondition: !empty().
  ReqItem pop_head();

  /// Removes any entry from `site`; returns true if one was removed.
  bool remove_site(SiteId site);

  /// Drops entries already satisfied according to `ids` (id <= the last
  /// satisfied CS id of their site). Used to prune stale records when a
  /// token is received.
  void prune_obsolete(const SiteRequestIds& ids);

  [[nodiscard]] bool contains_site(SiteId site) const;

  /// Moves every entry out, leaving the queue empty.
  [[nodiscard]] Items take_items() { return std::move(items_); }

  [[nodiscard]] std::size_t wire_size() const {
    std::size_t s = 4;
    for (const auto& it : items_) s += it.wire_size();
    return s;
  }

 private:
  Items items_;  // sorted by (mark, sinit)
};

/// The token associated with one resource (unique system-wide).
struct LassToken {
  ResourceId r = kNoResource;
  int num_sites = 0;             ///< dense extent, kept for wire accounting
  CounterValue counter = 1;      ///< next value to hand out
  SiteRequestIds ids;            ///< sparse: last ReqCnt / CS ids per site
  SortedRequestQueue wqueue;     ///< pending ReqRes, `/`-ordered
  SortedRequestQueue wloan;      ///< pending ReqLoan, `/`-ordered
  SiteId lender = kNoSite;       ///< set while the token is lent

  LassToken() = default;
  LassToken(ResourceId resource, int sites) : r(resource), num_sites(sites) {}

  /// Wire bytes of the dense encoding (header + two full per-site id
  /// vectors + both queues) — identical to the pre-sparse layout.
  [[nodiscard]] std::size_t wire_size() const {
    return 16 + static_cast<std::size_t>(num_sites) * 16 +
           wqueue.wire_size() + wloan.wire_size();
  }
};
// Nodes pool token snapshots in a std::vector: growth must move, not copy.
static_assert(std::is_nothrow_move_constructible_v<LassToken>);

}  // namespace mra::algo::lass
