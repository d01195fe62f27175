#ifndef SPHERE_ENGINE_AGGREGATE_H_
#define SPHERE_ENGINE_AGGREGATE_H_

#include <cstdint>
#include <set>
#include <string_view>

#include "common/value.h"

namespace sphere::engine {

/// The five aggregate functions.
enum class AggKind { kCount, kSum, kMin, kMax, kAvg };

/// The kind an aggregate function name denotes (case-insensitive).
/// Precondition: `name` is one of COUNT, SUM, MIN, MAX, AVG
/// (sql::FuncCallExpr::IsAggregate()).
AggKind AggKindOf(std::string_view name);

/// The aggregate kernel, shared by the node's GROUP BY and the result
/// merger (paper §VI-E), so the two cannot disagree about an answer. A node
/// feeds source values through Add(); the merger feeds each shard's finished
/// partial through Combine(). Finish() applies the same rules either way:
///  - NULL inputs are skipped; COUNT of nothing is 0, every other kind NULL;
///  - SUM is an integer until a double arrives, then a double; a string
///    counts (for COUNT and AVG) but adds nothing;
///  - MIN/MAX order by Value::Compare (numbers before strings);
///  - AVG is Average(SUM, COUNT).
class Aggregator {
 public:
  /// `distinct` makes Add() skip values it has seen (Value::Compare
  /// equality). Combine() ignores it: a DISTINCT partial is de-duplicated
  /// within its shard only.
  explicit Aggregator(AggKind kind, bool distinct = false)
      : kind_(kind), distinct_(distinct) {}

  /// Folds one source value.
  void Add(const Value& v);
  /// Folds one shard's finished value of the same aggregate: COUNT partials
  /// add up, SUM partials sum, MIN/MAX partials compare. An AVG partial
  /// cannot be combined; the merger derives AVG from SUM and COUNT partials.
  void Combine(const Value& partial);
  Value Finish() const;

  /// AVG from a finished SUM and COUNT: a double, NULL when COUNT is 0.
  static Value Average(const Value& sum, const Value& count);

 private:
  void Accumulate(const Value& v);

  AggKind kind_;
  bool distinct_;
  int64_t count_ = 0;
  int64_t isum_ = 0;
  double sum_ = 0;
  bool sum_is_int_ = true;
  Value extreme_;  ///< MIN/MAX so far
  std::set<Value> seen_;  ///< DISTINCT values so far
};

}  // namespace sphere::engine

#endif  // SPHERE_ENGINE_AGGREGATE_H_
