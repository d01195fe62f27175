#include "engine/executor.h"

#include <gtest/gtest.h>

#include "engine/storage_node.h"

namespace sphere::engine {
namespace {

/// Fixture with a populated node: t_user(uid pk, name, score), t_order(oid pk,
/// uid, amount).
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    node_ = std::make_unique<StorageNode>("ds0");
    session_ = node_->OpenSession();
    Exec("CREATE TABLE t_user (uid BIGINT PRIMARY KEY, name VARCHAR(64), score DOUBLE)");
    Exec("CREATE TABLE t_order (oid BIGINT PRIMARY KEY, uid BIGINT, amount DOUBLE)");
    Exec("INSERT INTO t_user (uid, name, score) VALUES "
         "(1, 'ann', 9.5), (2, 'bob', 7.0), (3, 'carol', 9.5), (4, 'dave', 3.25)");
    Exec("INSERT INTO t_order (oid, uid, amount) VALUES "
         "(100, 1, 10.0), (101, 1, 20.0), (102, 2, 5.0), (103, 9, 1.0)");
  }

  ExecResult Exec(std::string_view sql, std::vector<Value> params = {}) {
    auto r = session_->Execute(sql, params);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << sql;
    return r.ok() ? std::move(r).value() : ExecResult{};
  }

  std::vector<Row> Query(std::string_view sql, std::vector<Value> params = {}) {
    ExecResult r = Exec(sql, std::move(params));
    EXPECT_TRUE(r.is_query);
    return r.result_set ? DrainResultSet(r.result_set.get()) : std::vector<Row>{};
  }

  std::unique_ptr<StorageNode> node_;
  std::unique_ptr<StorageNode::Session> session_;
};

TEST_F(ExecutorTest, PointSelectByPk) {
  auto rows = Query("SELECT name FROM t_user WHERE uid = 2");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value("bob"));
}

TEST_F(ExecutorTest, SelectStarColumnsNamed) {
  ExecResult r = Exec("SELECT * FROM t_user WHERE uid = 1");
  EXPECT_EQ(r.result_set->columns(),
            (std::vector<std::string>{"uid", "name", "score"}));
}

TEST_F(ExecutorTest, InPredicate) {
  auto rows = Query("SELECT uid FROM t_user WHERE uid IN (1, 3, 99)");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(ExecutorTest, RangeScanOnPk) {
  auto rows = Query("SELECT uid FROM t_user WHERE uid BETWEEN 2 AND 3 ORDER BY uid");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value(2));
  EXPECT_EQ(rows[1][0], Value(3));
}

TEST_F(ExecutorTest, ExclusiveRange) {
  auto rows = Query("SELECT uid FROM t_user WHERE uid > 1 AND uid < 4 ORDER BY uid");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value(2));
}

TEST_F(ExecutorTest, ParamBinding) {
  auto rows = Query("SELECT name FROM t_user WHERE uid = ?", {Value(3)});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value("carol"));
}

TEST_F(ExecutorTest, OrderByDescAndLimit) {
  auto rows = Query("SELECT uid FROM t_user ORDER BY score DESC, uid ASC LIMIT 2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value(1));  // score 9.5, lower uid first
  EXPECT_EQ(rows[1][0], Value(3));
}

TEST_F(ExecutorTest, LimitOffset) {
  auto rows = Query("SELECT uid FROM t_user ORDER BY uid LIMIT 1, 2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value(2));
  EXPECT_EQ(rows[1][0], Value(3));
}

TEST_F(ExecutorTest, OffsetPastEnd) {
  auto rows = Query("SELECT uid FROM t_user ORDER BY uid LIMIT 100, 5");
  EXPECT_TRUE(rows.empty());
}

TEST_F(ExecutorTest, GlobalAggregates) {
  auto rows = Query("SELECT COUNT(*), SUM(score), MIN(score), MAX(score), AVG(score) FROM t_user");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(4));
  EXPECT_EQ(rows[0][1], Value(29.25));
  EXPECT_EQ(rows[0][2], Value(3.25));
  EXPECT_EQ(rows[0][3], Value(9.5));
  EXPECT_EQ(rows[0][4], Value(29.25 / 4));
}

TEST_F(ExecutorTest, AggregateOverEmptyInput) {
  auto rows = Query("SELECT COUNT(*), SUM(score) FROM t_user WHERE uid > 100");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(0));
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST_F(ExecutorTest, GroupByWithHaving) {
  auto rows = Query(
      "SELECT score, COUNT(*) c FROM t_user GROUP BY score "
      "HAVING COUNT(*) > 1 ORDER BY score");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(9.5));
  EXPECT_EQ(rows[0][1], Value(2));
}

TEST_F(ExecutorTest, CountDistinct) {
  auto rows = Query("SELECT COUNT(DISTINCT score) FROM t_user");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(3));
}

TEST_F(ExecutorTest, InnerJoinHashPath) {
  auto rows = Query(
      "SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid "
      "ORDER BY o.amount");
  ASSERT_EQ(rows.size(), 3u);  // order 103 has uid 9 with no user
  EXPECT_EQ(rows[0][0], Value("bob"));
  EXPECT_EQ(rows[2][1], Value(20.0));
}

TEST_F(ExecutorTest, LeftJoinPadsNulls) {
  auto rows = Query(
      "SELECT o.oid, u.name FROM t_order o LEFT JOIN t_user u ON o.uid = u.uid "
      "ORDER BY o.oid");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_TRUE(rows[3][1].is_null());  // order 103
}

TEST_F(ExecutorTest, CommaJoinWithWhereEquality) {
  auto rows = Query(
      "SELECT u.name FROM t_user u, t_order o WHERE u.uid = o.uid AND o.amount = 5.0");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value("bob"));
}

TEST_F(ExecutorTest, JoinAggregation) {
  auto rows = Query(
      "SELECT u.name, SUM(o.amount) FROM t_user u JOIN t_order o ON u.uid = o.uid "
      "GROUP BY u.name ORDER BY u.name");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value("ann"));
  EXPECT_EQ(rows[0][1], Value(30.0));
}

TEST_F(ExecutorTest, DistinctRows) {
  auto rows = Query("SELECT DISTINCT score FROM t_user ORDER BY score");
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(ExecutorTest, ScalarFunctions) {
  auto rows = Query(
      "SELECT UPPER(name), LENGTH(name), ABS(0 - uid), SUBSTR(name, 1, 2) "
      "FROM t_user WHERE uid = 1");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value("ANN"));
  EXPECT_EQ(rows[0][1], Value(3));
  EXPECT_EQ(rows[0][2], Value(1));
  EXPECT_EQ(rows[0][3], Value("an"));
}

TEST_F(ExecutorTest, CaseExpression) {
  auto rows = Query(
      "SELECT CASE WHEN score > 8 THEN 'high' ELSE 'low' END FROM t_user "
      "WHERE uid IN (1, 4) ORDER BY uid");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value("high"));
  EXPECT_EQ(rows[1][0], Value("low"));
}

TEST_F(ExecutorTest, LikePredicate) {
  auto rows = Query("SELECT name FROM t_user WHERE name LIKE '%a%' ORDER BY name");
  ASSERT_EQ(rows.size(), 3u);  // ann, carol, dave
}

TEST_F(ExecutorTest, UpdateWithExpression) {
  ExecResult r = Exec("UPDATE t_user SET score = score + 1 WHERE uid <= 2");
  EXPECT_EQ(r.affected_rows, 2);
  auto rows = Query("SELECT score FROM t_user WHERE uid = 1");
  EXPECT_EQ(rows[0][0], Value(10.5));
}

TEST_F(ExecutorTest, DeleteAffectedCount) {
  ExecResult r = Exec("DELETE FROM t_order WHERE uid = 1");
  EXPECT_EQ(r.affected_rows, 2);
  EXPECT_EQ(Query("SELECT * FROM t_order").size(), 2u);
}

TEST_F(ExecutorTest, InsertArityMismatchFails) {
  auto r = session_->Execute("INSERT INTO t_user (uid, name) VALUES (7)");
  EXPECT_FALSE(r.ok());
}

TEST_F(ExecutorTest, MultiRowInsertIsAtomic) {
  // Regression: a mid-statement failure (second row conflicts with uid=2)
  // used to leave the first row committed in auto-commit mode. The statement
  // must apply all rows or none.
  auto r = session_->Execute(
      "INSERT INTO t_user (uid, name, score) VALUES "
      "(10, 'x', 1.0), (2, 'dup', 2.0), (11, 'y', 3.0)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(Query("SELECT * FROM t_user WHERE uid IN (10, 11)").size(), 0u);
  EXPECT_EQ(Query("SELECT * FROM t_user").size(), 4u);
  auto rows = Query("SELECT name FROM t_user WHERE uid = 2");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value("bob"));
}

TEST_F(ExecutorTest, MultiRowInsertAtomicInTransaction) {
  // The failed statement must not leave stale insert-undo records behind:
  // after it rolls itself back, the transaction's later rollback has to
  // restore exactly the pre-transaction state, nothing less.
  Exec("BEGIN");
  auto r = session_->Execute(
      "INSERT INTO t_user (uid, name, score) VALUES (12, 'p', 1.0), (1, 'dup', 2.0)");
  EXPECT_FALSE(r.ok());
  Exec("INSERT INTO t_user (uid, name, score) VALUES (13, 'q', 4.0)");
  EXPECT_EQ(Query("SELECT * FROM t_user").size(), 5u);
  Exec("ROLLBACK");
  EXPECT_EQ(Query("SELECT * FROM t_user").size(), 4u);
  EXPECT_EQ(Query("SELECT * FROM t_user WHERE uid IN (12, 13)").size(), 0u);
}

TEST_F(ExecutorTest, UnknownTableFails) {
  EXPECT_FALSE(session_->Execute("SELECT * FROM nope").ok());
  EXPECT_FALSE(session_->Execute("INSERT INTO nope (a) VALUES (1)").ok());
}

TEST_F(ExecutorTest, UnknownColumnFails) {
  EXPECT_FALSE(session_->Execute("SELECT ghost FROM t_user").ok());
}

TEST_F(ExecutorTest, SecondaryIndexLookup) {
  Exec("CREATE INDEX idx_uid ON t_order (uid)");
  auto rows = Query("SELECT oid FROM t_order WHERE uid = 1 ORDER BY oid");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value(100));
}

TEST_F(ExecutorTest, PointUpdateViaIndexMatchesScan) {
  // The scan reference is an unindexed twin of t_order: the same UPDATE
  // there finds no pk/idx condition and takes the scan path.
  Exec("CREATE INDEX idx_uid ON t_order (uid)");
  Exec("CREATE TABLE t_twin (oid BIGINT PRIMARY KEY, uid BIGINT, amount DOUBLE)");
  Exec("INSERT INTO t_twin (oid, uid, amount) VALUES "
       "(100, 1, 10.0), (101, 1, 20.0), (102, 2, 5.0), (103, 9, 1.0)");
  for (int round = 0; round < 2; ++round) {
    ExecResult fast =
        Exec("UPDATE t_order SET amount = amount + 1 WHERE uid = 1");
    ExecResult slow = Exec("UPDATE t_twin SET amount = amount + 1 WHERE uid = 1");
    EXPECT_EQ(fast.affected_rows, 2);
    EXPECT_EQ(slow.affected_rows, fast.affected_rows);
  }
  auto rows = Query("SELECT amount FROM t_order WHERE uid = 1 ORDER BY oid");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value(12.0));
  EXPECT_EQ(rows[1][0], Value(22.0));
  EXPECT_EQ(Query("SELECT * FROM t_order ORDER BY oid"),
            Query("SELECT * FROM t_twin ORDER BY oid"));
}

TEST_F(ExecutorTest, PointDeleteViaPkAndIndex) {
  ExecResult by_pk = Exec("DELETE FROM t_order WHERE oid = 100");
  EXPECT_EQ(by_pk.affected_rows, 1);
  Exec("CREATE INDEX idx_uid ON t_order (uid)");
  ExecResult by_idx = Exec("DELETE FROM t_order WHERE uid = 2");
  EXPECT_EQ(by_idx.affected_rows, 1);
  EXPECT_EQ(Query("SELECT * FROM t_order").size(), 2u);
}

TEST_F(ExecutorTest, PointDmlRollsBackThroughUndo) {
  Exec("CREATE INDEX idx_uid ON t_order (uid)");
  Exec("BEGIN");
  EXPECT_EQ(Exec("UPDATE t_order SET amount = 0 WHERE uid = 1").affected_rows, 2);
  EXPECT_EQ(Exec("DELETE FROM t_order WHERE oid = 102").affected_rows, 1);
  Exec("ROLLBACK");
  auto rows = Query("SELECT amount FROM t_order ORDER BY oid");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][0], Value(10.0));
  EXPECT_EQ(rows[2][0], Value(5.0));
}

TEST_F(ExecutorTest, TruncateAndDrop) {
  Exec("TRUNCATE TABLE t_order");
  EXPECT_EQ(Query("SELECT * FROM t_order").size(), 0u);
  Exec("DROP TABLE t_order");
  EXPECT_FALSE(session_->Execute("SELECT * FROM t_order").ok());
}

TEST_F(ExecutorTest, SelectWithoutFrom) {
  auto rows = Query("SELECT 1 + 2, 'x'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(3));
  EXPECT_EQ(rows[0][1], Value("x"));
}

TEST_F(ExecutorTest, WhereAppliesWithoutFrom) {
  EXPECT_EQ(Query("SELECT 1 WHERE 1 = 1").size(), 1u);
  EXPECT_TRUE(Query("SELECT 1 WHERE 1 = 0").empty());
}

/// The fixture's t_user scores, for answers computed from the data.
const double kScores[] = {9.5, 7.0, 9.5, 3.25};

TEST_F(ExecutorTest, AggregatesNestedInExpressions) {
  double sum = 0;
  for (double s : kScores) sum += s;
  auto rows = Query(
      "SELECT SUM(score) + 1, -SUM(uid), ABS(0 - SUM(uid)), "
      "CASE WHEN COUNT(*) > 1 THEN 'many' ELSE 'one' END, "
      "MAX(score) - MIN(score) FROM t_user");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(sum + 1));
  EXPECT_EQ(rows[0][1], Value(-(1 + 2 + 3 + 4)));
  EXPECT_EQ(rows[0][2], Value(1 + 2 + 3 + 4));
  EXPECT_EQ(rows[0][3], Value("many"));
  EXPECT_EQ(rows[0][4], Value(9.5 - 3.25));
}

TEST_F(ExecutorTest, HavingNestsAggregatesUnderAnyOperator) {
  // Scores 9.5 (twice), 7.0 and 3.25: one group of two, two groups of one.
  auto singles = [](const std::vector<Row>& rows) {
    return rows.size() == 2 && rows[0][0] == Value(3.25) &&
           rows[1][0] == Value(7.0);
  };
  EXPECT_TRUE(singles(Query("SELECT score FROM t_user GROUP BY score "
                            "HAVING NOT (COUNT(*) > 1) ORDER BY score")));
  EXPECT_TRUE(singles(Query("SELECT score FROM t_user GROUP BY score "
                            "HAVING COUNT(*) IN (1) ORDER BY score")));
  auto pair = Query(
      "SELECT score, SUM(uid) * 10 FROM t_user GROUP BY score "
      "HAVING COUNT(*) BETWEEN 2 AND 3");
  ASSERT_EQ(pair.size(), 1u);
  EXPECT_EQ(pair[0][0], Value(9.5));
  EXPECT_EQ(pair[0][1], Value((1 + 3) * 10));
}

TEST_F(ExecutorTest, OrderByAliasOfComputedItem) {
  auto rows = Query("SELECT uid, score * 2 AS dbl FROM t_user ORDER BY dbl DESC LIMIT 1");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value(19.0));
}

}  // namespace
}  // namespace sphere::engine
