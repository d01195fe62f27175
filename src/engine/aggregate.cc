#include "engine/aggregate.h"

#include <utility>

#include "common/strings.h"

namespace sphere::engine {

AggKind AggKindOf(std::string_view name) {
  static constexpr std::pair<std::string_view, AggKind> kNames[] = {
      {"COUNT", AggKind::kCount}, {"SUM", AggKind::kSum},
      {"MIN", AggKind::kMin},     {"MAX", AggKind::kMax},
      {"AVG", AggKind::kAvg},
  };
  for (const auto& [text, kind] : kNames) {
    if (EqualsIgnoreCase(text, name)) return kind;
  }
  return AggKind::kCount;
}

void Aggregator::Add(const Value& v) {
  if (v.is_null()) return;
  if (distinct_ && !seen_.insert(v).second) return;
  ++count_;
  Accumulate(v);
}

void Aggregator::Combine(const Value& partial) {
  if (partial.is_null()) return;
  if (kind_ == AggKind::kCount) {
    count_ += partial.ToInt();
    return;
  }
  ++count_;
  Accumulate(partial);
}

void Aggregator::Accumulate(const Value& v) {
  switch (kind_) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      if (v.is_int()) {
        isum_ += v.AsInt();
        sum_ += static_cast<double>(v.AsInt());
      } else if (v.is_double()) {
        sum_is_int_ = false;
        sum_ += v.AsDouble();
      }
      break;
    case AggKind::kMin:
      if (extreme_.is_null() || v.Compare(extreme_) < 0) extreme_ = v;
      break;
    case AggKind::kMax:
      if (extreme_.is_null() || v.Compare(extreme_) > 0) extreme_ = v;
      break;
  }
}

Value Aggregator::Finish() const {
  switch (kind_) {
    case AggKind::kCount:
      return Value(count_);
    case AggKind::kSum:
      if (count_ == 0) return Value::Null();
      return sum_is_int_ ? Value(isum_) : Value(sum_);
    case AggKind::kMin:
    case AggKind::kMax:
      return extreme_;
    case AggKind::kAvg:
      return Average(Value(sum_), Value(count_));
  }
  return Value::Null();
}

Value Aggregator::Average(const Value& sum, const Value& count) {
  double n = count.ToDouble();
  if (n <= 0) return Value::Null();
  return Value(sum.ToDouble() / n);
}

}  // namespace sphere::engine
