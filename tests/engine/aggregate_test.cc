#include "engine/aggregate.h"

#include <gtest/gtest.h>

#include <vector>

namespace sphere::engine {
namespace {

Value AddAll(AggKind kind, const std::vector<Value>& values,
             bool distinct = false) {
  Aggregator agg(kind, distinct);
  for (const Value& v : values) agg.Add(v);
  return agg.Finish();
}

Value CombineAll(AggKind kind, const std::vector<Value>& partials) {
  Aggregator agg(kind);
  for (const Value& v : partials) agg.Combine(v);
  return agg.Finish();
}

TEST(AggregateTest, KindOfNameIsCaseInsensitive) {
  EXPECT_EQ(AggKindOf("COUNT"), AggKind::kCount);
  EXPECT_EQ(AggKindOf("sum"), AggKind::kSum);
  EXPECT_EQ(AggKindOf("Min"), AggKind::kMin);
  EXPECT_EQ(AggKindOf("max"), AggKind::kMax);
  EXPECT_EQ(AggKindOf("AVG"), AggKind::kAvg);
}

TEST(AggregateTest, EmptyInput) {
  for (bool combine : {false, true}) {
    auto finish = [combine](AggKind kind) {
      return combine ? CombineAll(kind, {}) : AddAll(kind, {});
    };
    EXPECT_TRUE(finish(AggKind::kCount).is_int());
    EXPECT_EQ(finish(AggKind::kCount), Value(0));
    EXPECT_TRUE(finish(AggKind::kSum).is_null());
    EXPECT_TRUE(finish(AggKind::kMin).is_null());
    EXPECT_TRUE(finish(AggKind::kMax).is_null());
  }
  EXPECT_TRUE(AddAll(AggKind::kAvg, {}).is_null());
}

TEST(AggregateTest, NullsAreSkipped) {
  const std::vector<Value> values = {Value::Null(), Value(4), Value::Null(),
                                     Value(2)};
  EXPECT_EQ(AddAll(AggKind::kCount, values), Value(2));
  EXPECT_EQ(AddAll(AggKind::kSum, values), Value(6));
  EXPECT_EQ(AddAll(AggKind::kMin, values), Value(2));
  EXPECT_EQ(AddAll(AggKind::kMax, values), Value(4));
  EXPECT_EQ(AddAll(AggKind::kAvg, values), Value(3.0));
  // Only NULLs: COUNT 0, the rest NULL.
  const std::vector<Value> nulls = {Value::Null(), Value::Null()};
  EXPECT_EQ(AddAll(AggKind::kCount, nulls), Value(0));
  EXPECT_TRUE(AddAll(AggKind::kSum, nulls).is_null());
  EXPECT_TRUE(AddAll(AggKind::kAvg, nulls).is_null());
  // A shard with no rows reports COUNT 0 and SUM/MIN/MAX NULL.
  EXPECT_EQ(CombineAll(AggKind::kCount, {Value(3), Value(0), Value(5)}),
            Value(8));
  EXPECT_EQ(CombineAll(AggKind::kSum, {Value::Null(), Value(7)}), Value(7));
  EXPECT_EQ(CombineAll(AggKind::kMin, {Value::Null(), Value(7), Value(9)}),
            Value(7));
  EXPECT_EQ(CombineAll(AggKind::kMax, {Value(7), Value::Null()}), Value(7));
  EXPECT_TRUE(CombineAll(AggKind::kSum, {Value::Null(), Value::Null()}).is_null());
}

TEST(AggregateTest, IntegerSumStaysInteger) {
  Value added = AddAll(AggKind::kSum, {Value(1), Value(2), Value(3)});
  EXPECT_TRUE(added.is_int());
  EXPECT_EQ(added.AsInt(), 6);
  Value combined = CombineAll(AggKind::kSum, {Value(40), Value(2)});
  EXPECT_TRUE(combined.is_int());
  EXPECT_EQ(combined.AsInt(), 42);
  Value count = CombineAll(AggKind::kCount, {Value(40), Value(2)});
  EXPECT_TRUE(count.is_int());
  EXPECT_EQ(count.AsInt(), 42);
}

TEST(AggregateTest, MixedIntAndDoublePromotesToDouble) {
  for (bool combine : {false, true}) {
    const std::vector<Value> values = {Value(1), Value(2.5), Value(3)};
    Value sum = combine ? CombineAll(AggKind::kSum, values)
                        : AddAll(AggKind::kSum, values);
    EXPECT_TRUE(sum.is_double());
    EXPECT_DOUBLE_EQ(sum.AsDouble(), 6.5);
    // MIN/MAX compare across int and double, keeping the winner's type.
    Value min = combine ? CombineAll(AggKind::kMin, values)
                        : AddAll(AggKind::kMin, values);
    EXPECT_TRUE(min.is_int());
    EXPECT_EQ(min.AsInt(), 1);
    Value max = combine ? CombineAll(AggKind::kMax, values)
                        : AddAll(AggKind::kMax, values);
    EXPECT_TRUE(max.is_int());
    EXPECT_EQ(max.AsInt(), 3);
  }
  Value avg = AddAll(AggKind::kAvg, {Value(1), Value(2)});
  EXPECT_TRUE(avg.is_double());
  EXPECT_DOUBLE_EQ(avg.AsDouble(), 1.5);
}

TEST(AggregateTest, StringsUnderMinMaxSum) {
  const std::vector<Value> values = {Value("pear"), Value(7), Value("apple")};
  // Numbers order before strings.
  EXPECT_EQ(AddAll(AggKind::kMin, values), Value(7));
  EXPECT_EQ(AddAll(AggKind::kMax, values), Value("pear"));
  EXPECT_EQ(CombineAll(AggKind::kMin, {Value("pear"), Value("apple")}),
            Value("apple"));
  EXPECT_EQ(CombineAll(AggKind::kMax, {Value("pear"), Value("apple")}),
            Value("pear"));
  // A string counts but adds nothing to SUM and AVG.
  EXPECT_EQ(AddAll(AggKind::kCount, values), Value(3));
  Value sum = AddAll(AggKind::kSum, values);
  EXPECT_TRUE(sum.is_int());
  EXPECT_EQ(sum.AsInt(), 7);
  Value only_strings = AddAll(AggKind::kSum, {Value("a"), Value("b")});
  EXPECT_TRUE(only_strings.is_int());
  EXPECT_EQ(only_strings.AsInt(), 0);
  EXPECT_DOUBLE_EQ(AddAll(AggKind::kAvg, values).AsDouble(), 7.0 / 3.0);
}

TEST(AggregateTest, DistinctSkipsRepeats) {
  // 2 and 2.0 are one value under Value::Compare.
  const std::vector<Value> values = {Value(2), Value(3), Value(2.0),
                                     Value::Null(), Value(3), Value(5)};
  EXPECT_EQ(AddAll(AggKind::kCount, values, true), Value(3));
  EXPECT_EQ(AddAll(AggKind::kSum, values, true), Value(10));
  EXPECT_DOUBLE_EQ(AddAll(AggKind::kAvg, values, true).AsDouble(), 10.0 / 3.0);
  EXPECT_EQ(AddAll(AggKind::kMin, values, true), Value(2));
  EXPECT_EQ(AddAll(AggKind::kMax, values, true), Value(5));
  EXPECT_EQ(AddAll(AggKind::kCount, values, false), Value(5));
  // Combine adds DISTINCT partials as they come: each shard de-duplicated
  // its own values.
  Aggregator count(AggKind::kCount, true);
  count.Combine(Value(3));
  count.Combine(Value(3));
  EXPECT_EQ(count.Finish(), Value(6));
}

TEST(AggregateTest, AverageOfSumAndCount) {
  EXPECT_DOUBLE_EQ(Aggregator::Average(Value(7), Value(2)).AsDouble(), 3.5);
  EXPECT_DOUBLE_EQ(Aggregator::Average(Value(7.5), Value(3)).AsDouble(), 2.5);
  EXPECT_TRUE(Aggregator::Average(Value::Null(), Value(0)).is_null());
  EXPECT_TRUE(Aggregator::Average(Value(0), Value(0)).is_null());
  // AVG combined from per-shard SUM/COUNT partials equals the single-pass
  // AVG, not the average of averages.
  Aggregator sum(AggKind::kSum), count(AggKind::kCount);
  sum.Combine(Value(1));  // shard 0: {1}
  count.Combine(Value(1));
  sum.Combine(Value(5));  // shard 1: {2, 3}
  count.Combine(Value(2));
  EXPECT_EQ(Aggregator::Average(sum.Finish(), count.Finish()),
            AddAll(AggKind::kAvg, {Value(1), Value(2), Value(3)}));
}

}  // namespace
}  // namespace sphere::engine
