// The paper's scheduling-policy function A : IN^M -> IR (§3.3.2).
//
// A transforms a request's counter vector into a real "mark"; requests are
// totally ordered by (mark, site id). A is a parameter of the algorithm and
// effectively selects the scheduling policy; liveness requires that every
// pending request eventually has the smallest mark (hypothesis 6). The
// paper's evaluation uses the average of the non-zero entries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace mra {

/// Counter vector of one request: entry r is the counter value obtained for
/// resource r, or 0 when r was not requested (the paper's convention).
using CounterVector = std::vector<CounterValue>;

/// Signature of the paper's function A.
using MarkFunction = std::function<double(const CounterVector&)>;

/// Built-in mark functions (all starvation-free except where noted).
enum class MarkPolicy {
  kAverageNonZero,  ///< paper's choice: mean of non-zero entries
  kMaxValue,        ///< max entry: favours requests that queued early on all
  kSumNonZero,      ///< sum of entries: biases against large requests
  kMinNonZero,      ///< min non-zero entry: biases toward large requests
};

[[nodiscard]] const char* to_string(MarkPolicy policy);

/// The mark of a request, folded one counter at a time. Every built-in
/// policy ranges over the non-zero entries, so a fold keeps their sum,
/// count, max and min and skips zeros (resources not requested): feeding it
/// each counter once, in any order, gives exactly what the policy computes
/// over the dense vector. The average divides the integer sum, which equals
/// an in-order sum of doubles while every partial sum is below 2^53.
struct MarkAccumulator {
  CounterValue sum = 0;
  std::int64_t n = 0;
  CounterValue max = 0;
  CounterValue min = 0;

  void add(CounterValue c) {
    if (c == 0) return;
    sum += c;
    max = std::max(max, c);
    min = n == 0 ? c : std::min(min, c);
    ++n;
  }
  void reset() { *this = MarkAccumulator{}; }
  /// A under `policy`; 0 when no counter was fed.
  [[nodiscard]] double mark(MarkPolicy policy) const;
};

/// Returns the function implementing `policy`.
[[nodiscard]] MarkFunction make_mark_function(MarkPolicy policy);

/// Applies the paper's default A (average of non-zero entries).
[[nodiscard]] double average_non_zero(const CounterVector& v);

/// The paper's total order `/` over requests: (mark, site) lexicographic.
/// Returns true when request (mark_a, site_a) precedes (mark_b, site_b).
[[nodiscard]] constexpr bool request_precedes(double mark_a, SiteId site_a,
                                              double mark_b, SiteId site_b) {
  if (mark_a != mark_b) return mark_a < mark_b;
  return site_a < site_b;
}

}  // namespace mra
