#include "core/rewrite.h"

#include <gtest/gtest.h>

#include "core/route.h"
#include "sql/parser.h"

namespace sphere::core {
namespace {

/// Minimal two-unit route for t_user -> t_user_0@ds_0, t_user_1@ds_1.
RouteResult TwoUnitRoute() {
  RouteResult r;
  r.type = RouteType::kStandard;
  r.units.push_back(RouteUnit{"ds_0", {{"t_user", "t_user_0"}}, {}});
  r.units.push_back(RouteUnit{"ds_1", {{"t_user", "t_user_1"}}, {}});
  return r;
}

RouteResult OneUnitRoute() {
  RouteResult r;
  r.type = RouteType::kStandard;
  r.units.push_back(RouteUnit{"ds_0", {{"t_user", "t_user_0"}}, {}});
  return r;
}

RewriteResult MustRewrite(const std::string& sql_text, const RouteResult& route,
                          std::vector<Value> params = {}) {
  auto stmt = sql::ParseSQL(sql_text);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  RewriteEngine engine;
  auto r = engine.Rewrite(**stmt, route, params);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << sql_text;
  return r.ok() ? std::move(r).value() : RewriteResult{};
}

TEST(RewriteTest, RenamesTablePerUnit) {
  auto r = MustRewrite("SELECT * FROM t_user WHERE uid = 1", TwoUnitRoute());
  ASSERT_EQ(r.units.size(), 2u);
  EXPECT_NE(r.units[0].sql.find("t_user_0"), std::string::npos);
  EXPECT_NE(r.units[1].sql.find("t_user_1"), std::string::npos);
  EXPECT_EQ(r.units[0].sql.find("t_user "), std::string::npos);
}

TEST(RewriteTest, RenamesQualifiersOfUnaliasedTable) {
  auto r = MustRewrite("SELECT t_user.name FROM t_user WHERE t_user.uid = 1",
                       TwoUnitRoute());
  // Qualifier t_user must become t_user_0 so the physical SQL resolves.
  EXPECT_EQ(r.units[0].sql.find("t_user."), std::string::npos);
  EXPECT_NE(r.units[0].sql.find("t_user_0."), std::string::npos);
}

TEST(RewriteTest, AliasQualifiersUntouched) {
  auto r = MustRewrite("SELECT u.name FROM t_user u WHERE u.uid = 1",
                       TwoUnitRoute());
  EXPECT_NE(r.units[0].sql.find("u."), std::string::npos);
  EXPECT_NE(r.units[0].sql.find("t_user_0"), std::string::npos);
}

TEST(RewriteTest, SingleUnitPassThrough) {
  auto r = MustRewrite("SELECT AVG(score) FROM t_user LIMIT 10, 5",
                       OneUnitRoute());
  ASSERT_EQ(r.units.size(), 1u);
  EXPECT_TRUE(r.merge.pass_through);
  // No derivation, pagination kept as-is.
  EXPECT_EQ(r.units[0].sql.find("AVG_DERIVED"), std::string::npos);
  EXPECT_NE(r.units[0].sql.find("LIMIT 10, 5"), std::string::npos);
}

TEST(RewriteTest, AvgDerivesCountAndSum) {
  auto r = MustRewrite("SELECT AVG(score) FROM t_user", TwoUnitRoute());
  // The AVG plus its hidden COUNT and SUM partners.
  ASSERT_EQ(r.merge.aggregations.size(), 3u);
  const AggDesc& d = r.merge.aggregations[0];
  EXPECT_EQ(d.kind, engine::AggKind::kAvg);
  EXPECT_EQ(d.count_index, 1);
  EXPECT_EQ(d.sum_index, 2);
  EXPECT_EQ(r.merge.aggregations[1].kind, engine::AggKind::kCount);
  EXPECT_EQ(r.merge.aggregations[1].index, 1u);
  EXPECT_EQ(r.merge.aggregations[2].kind, engine::AggKind::kSum);
  EXPECT_EQ(r.merge.aggregations[2].index, 2u);
  EXPECT_NE(r.units[0].sql.find("AVG_DERIVED_COUNT_0"), std::string::npos);
  EXPECT_NE(r.units[0].sql.find("AVG_DERIVED_SUM_0"), std::string::npos);
  EXPECT_EQ(r.merge.visible_columns, 1u);
  EXPECT_EQ(r.merge.labels.size(), 3u);
}

TEST(RewriteTest, OrderByColumnNotInSelectDerived) {
  // Paper §VI-C example: "SELECT oid FROM t_order ORDER BY uid".
  auto r = MustRewrite("SELECT name FROM t_user ORDER BY uid", TwoUnitRoute());
  ASSERT_EQ(r.merge.order_by.size(), 1u);
  EXPECT_EQ(r.merge.order_by[0].index, 1);
  EXPECT_NE(r.units[0].sql.find("ORDER_BY_DERIVED_0"), std::string::npos);
  EXPECT_EQ(r.merge.visible_columns, 1u);
}

TEST(RewriteTest, OrderByInSelectNotDerived) {
  auto r = MustRewrite("SELECT uid, name FROM t_user ORDER BY uid DESC",
                       TwoUnitRoute());
  ASSERT_EQ(r.merge.order_by.size(), 1u);
  EXPECT_EQ(r.merge.order_by[0].index, 0);
  EXPECT_TRUE(r.merge.order_by[0].desc);
  EXPECT_EQ(r.units[0].sql.find("DERIVED"), std::string::npos);
}

TEST(RewriteTest, AvgDistinctDerivesDistinctCountAndSum) {
  auto r = MustRewrite("SELECT AVG(DISTINCT score) FROM t_user", TwoUnitRoute());
  ASSERT_EQ(r.merge.aggregations.size(), 3u);
  for (const AggDesc& d : r.merge.aggregations) EXPECT_TRUE(d.distinct);
  EXPECT_NE(r.units[0].sql.find("COUNT(DISTINCT score)"), std::string::npos)
      << r.units[0].sql;
  EXPECT_NE(r.units[0].sql.find("SUM(DISTINCT score)"), std::string::npos)
      << r.units[0].sql;
}

TEST(RewriteTest, GroupByUnitCarriesNoOrderBy) {
  // The merger hash-folds groups, so no ORDER BY is injected for it.
  auto r = MustRewrite("SELECT name, SUM(score) FROM t_user GROUP BY name",
                       TwoUnitRoute());
  EXPECT_EQ(r.units[0].sql.find("ORDER BY"), std::string::npos)
      << r.units[0].sql;
  ASSERT_EQ(r.merge.group_by.size(), 1u);
  EXPECT_EQ(r.merge.group_by[0].index, 0);
  EXPECT_TRUE(r.merge.order_by.empty());
}

TEST(RewriteTest, GroupByOrderedByGroupKeyKeepsPushedLimit) {
  // Ordered by group keys (either direction), a node's first offset+count
  // rows are whole groups in the global order.
  for (const char* sql_text :
       {"SELECT name, SUM(score) FROM t_user GROUP BY name ORDER BY name "
        "LIMIT 2, 3",
        "SELECT name, SUM(score) FROM t_user GROUP BY name ORDER BY name DESC "
        "LIMIT 2, 3",
        "SELECT name, SUM(score) FROM t_user GROUP BY name LIMIT 2, 3"}) {
    auto r = MustRewrite(sql_text, TwoUnitRoute());
    EXPECT_NE(r.units[0].sql.find("LIMIT 5"), std::string::npos)
        << r.units[0].sql;
    ASSERT_TRUE(r.merge.limit.has_value());
    EXPECT_EQ(r.merge.limit->offset, 2);
    EXPECT_EQ(r.merge.limit->count, 3);
  }
}

TEST(RewriteTest, GroupByOrderedByAggregateDropsPushedLimit) {
  // Ordered by an aggregate (or any non-key column), a shard's top rows rank
  // its partial groups: the nodes must return every group.
  for (const char* sql_text :
       {"SELECT name, SUM(score) s FROM t_user GROUP BY name ORDER BY s DESC "
        "LIMIT 3",
        "SELECT name, COUNT(*) c FROM t_user GROUP BY name ORDER BY c, name "
        "LIMIT 3",
        "SELECT name, SUM(score) FROM t_user GROUP BY name ORDER BY age "
        "LIMIT 3"}) {
    auto r = MustRewrite(sql_text, TwoUnitRoute());
    EXPECT_EQ(r.units[0].sql.find("LIMIT"), std::string::npos)
        << r.units[0].sql;
    ASSERT_TRUE(r.merge.limit.has_value());
    EXPECT_EQ(r.merge.limit->count, 3);
  }
}

TEST(RewriteTest, PaginationRevised) {
  // Paper §VI-C: each node returns offset+count rows; merger skips globally.
  auto r = MustRewrite("SELECT uid FROM t_user ORDER BY uid LIMIT 10, 5",
                       TwoUnitRoute());
  EXPECT_NE(r.units[0].sql.find("LIMIT 15"), std::string::npos);
  ASSERT_TRUE(r.merge.limit.has_value());
  EXPECT_EQ(r.merge.limit->offset, 10);
  EXPECT_EQ(r.merge.limit->count, 5);
}

RouteResult InsertSplitRoute() {
  RouteResult route;
  route.type = RouteType::kStandard;
  route.units.push_back(RouteUnit{"ds_0", {{"t_user", "t_user_0"}}, {0, 2}});
  route.units.push_back(RouteUnit{"ds_1", {{"t_user", "t_user_1"}}, {1}});
  return route;
}

TEST(RewriteTest, InsertSplitByRows) {
  // Rows split per unit. The rewriter renders no INSERT text (see
  // InsertStructuredByDefault); RenderSQL shows what each unit carries.
  auto r = MustRewrite(
      "INSERT INTO t_user (uid, name) VALUES (0, 'a'), (1, 'b'), (2, 'c')",
      InsertSplitRoute());
  ASSERT_EQ(r.units.size(), 2u);
  const auto& dialect = sql::Dialect::Get(sql::DialectType::kMySQL);
  EXPECT_NE(r.units[0].RenderSQL(dialect).find("(0, 'a'), (2, 'c')"),
            std::string::npos);
  EXPECT_NE(r.units[1].RenderSQL(dialect).find("(1, 'b')"), std::string::npos);
  EXPECT_NE(r.units[1].RenderSQL(dialect).find("t_user_1"), std::string::npos);
}

TEST(RewriteTest, InsertStructuredByDefault) {
  // No text is rendered; the rewritten AST plus a compact per-unit
  // parameter slice travel instead.
  auto r = MustRewrite(
      "INSERT INTO t_user (uid, name) VALUES (?, ?), (?, ?), (?, ?)",
      InsertSplitRoute(),
      {Value(0), Value("a"), Value(1), Value("b"), Value(2), Value("c")});
  ASSERT_EQ(r.units.size(), 2u);
  for (const auto& unit : r.units) {
    EXPECT_TRUE(unit.sql.empty());
    ASSERT_NE(unit.stmt, nullptr);
  }
  // Unit 0 got rows 0 and 2; its slice is renumbered to slots 0..3.
  ASSERT_EQ(r.units[0].params.size(), 4u);
  EXPECT_EQ(r.units[0].params[0], Value(0));
  EXPECT_EQ(r.units[0].params[1], Value("a"));
  EXPECT_EQ(r.units[0].params[2], Value(2));
  EXPECT_EQ(r.units[0].params[3], Value("c"));
  ASSERT_EQ(r.units[1].params.size(), 2u);
  EXPECT_EQ(r.units[1].params[0], Value(1));
  EXPECT_EQ(r.units[1].params[1], Value("b"));
  // RenderSQL materializes text on demand for the remote/preview path.
  const auto& dialect = sql::Dialect::Get(sql::DialectType::kMySQL);
  std::string rendered = r.units[1].RenderSQL(dialect);
  EXPECT_NE(rendered.find("t_user_1"), std::string::npos);
  EXPECT_NE(rendered.find("(?, ?)"), std::string::npos);
}

TEST(RewriteTest, SelectParamsPreserved) {
  auto r = MustRewrite("SELECT * FROM t_user WHERE uid > ?", TwoUnitRoute(),
                       {Value(5)});
  ASSERT_EQ(r.units.size(), 2u);
  ASSERT_EQ(r.units[0].params.size(), 1u);
  EXPECT_EQ(r.units[0].params[0], Value(5));
  EXPECT_NE(r.units[0].sql.find("?"), std::string::npos);
}

TEST(RewriteTest, StarWithAggregationRejected) {
  auto stmt = sql::ParseSQL("SELECT *, COUNT(*) FROM t_user");
  ASSERT_TRUE(stmt.ok());
  RewriteEngine engine;
  EXPECT_FALSE(engine.Rewrite(**stmt, TwoUnitRoute(), {}).ok());
}

TEST(RewriteTest, UpdateRenamed) {
  auto r = MustRewrite("UPDATE t_user SET name = 'x' WHERE uid = 1",
                       TwoUnitRoute());
  const auto& dialect = sql::Dialect::Get(sql::DialectType::kMySQL);
  EXPECT_NE(r.units[0].RenderSQL(dialect).find("UPDATE t_user_0"),
            std::string::npos);
  EXPECT_NE(r.units[0].stmt, nullptr);
  EXPECT_FALSE(r.merge.is_select);
}

TEST(RewriteTest, UpdateStructuredByDefault) {
  auto r = MustRewrite("UPDATE t_user SET name = ? WHERE uid = ?",
                       TwoUnitRoute(), {Value("x"), Value(7)});
  ASSERT_EQ(r.units.size(), 2u);
  for (const auto& unit : r.units) {
    EXPECT_TRUE(unit.sql.empty());
    ASSERT_NE(unit.stmt, nullptr);
    // UPDATE/DELETE are not row-split, so the full parameter vector ships.
    ASSERT_EQ(unit.params.size(), 2u);
    EXPECT_EQ(unit.params[0], Value("x"));
    EXPECT_EQ(unit.params[1], Value(7));
  }
  const auto& dialect = sql::Dialect::Get(sql::DialectType::kMySQL);
  EXPECT_NE(r.units[0].RenderSQL(dialect).find("UPDATE t_user_0"),
            std::string::npos);
}

}  // namespace
}  // namespace sphere::core
