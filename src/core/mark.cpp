#include "core/mark.hpp"

#include <stdexcept>

namespace mra {

namespace {

MarkAccumulator fold(const CounterVector& v) {
  MarkAccumulator acc;
  for (CounterValue c : v) acc.add(c);
  return acc;
}

}  // namespace

double MarkAccumulator::mark(MarkPolicy policy) const {
  switch (policy) {
    case MarkPolicy::kAverageNonZero:
      return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
    case MarkPolicy::kMaxValue: return static_cast<double>(max);
    case MarkPolicy::kSumNonZero: return static_cast<double>(sum);
    case MarkPolicy::kMinNonZero: return static_cast<double>(min);
  }
  throw std::invalid_argument("unknown MarkPolicy");
}

double average_non_zero(const CounterVector& v) {
  return fold(v).mark(MarkPolicy::kAverageNonZero);
}

const char* to_string(MarkPolicy policy) {
  switch (policy) {
    case MarkPolicy::kAverageNonZero: return "avg-nonzero";
    case MarkPolicy::kMaxValue: return "max";
    case MarkPolicy::kSumNonZero: return "sum";
    case MarkPolicy::kMinNonZero: return "min-nonzero";
  }
  return "?";
}

MarkFunction make_mark_function(MarkPolicy policy) {
  return [policy](const CounterVector& v) { return fold(v).mark(policy); };
}

}  // namespace mra
