#include "engine/storage_node.h"

#include <gtest/gtest.h>

#include <string>

namespace sphere::engine {
namespace {

class StorageNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    node_ = std::make_unique<StorageNode>("ds0");
    auto s = node_->OpenSession();
    ASSERT_TRUE(s->Execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
    ASSERT_TRUE(s->Execute("INSERT INTO t (id, v) VALUES (1, 10)").ok());
  }

  int64_t ValueOf(int id) {
    auto s = node_->OpenSession();
    auto r = s->Execute("SELECT v FROM t WHERE id = " + std::to_string(id));
    EXPECT_TRUE(r.ok());
    Row row;
    if (!r->result_set->Next(&row)) return -1;
    return row[0].ToInt();
  }

  std::unique_ptr<StorageNode> node_;
};

TEST_F(StorageNodeTest, ParseCacheKeepsRecentTextPastCapacity) {
  // More distinct texts than the cache holds, with one hot text re-run
  // throughout: LRU eviction keeps the hot text resident, so each of its
  // re-runs hits and only the distinct texts miss.
  auto s = node_->OpenSession();
  const std::string hot = "SELECT v FROM t WHERE id = 1";
  ASSERT_TRUE(s->Execute(hot).ok());
  const int64_t hits0 = node_->parse_cache_hits();
  const int64_t misses0 = node_->parse_cache_misses();
  const int distinct =
      static_cast<int>(StorageNode::kParseCacheCapacity) + 1024;
  int hot_runs = 0;
  for (int i = 0; i < distinct; ++i) {
    ASSERT_TRUE(
        s->Execute("SELECT v FROM t WHERE id = " + std::to_string(1000 + i))
            .ok());
    if (i % 64 == 63) {
      ASSERT_TRUE(s->Execute(hot).ok());
      ++hot_runs;
    }
  }
  EXPECT_EQ(node_->parse_cache_misses() - misses0, distinct);
  EXPECT_EQ(node_->parse_cache_hits() - hits0, hot_runs);
}

TEST_F(StorageNodeTest, AutoCommitVisibleImmediately) {
  auto s = node_->OpenSession();
  ASSERT_TRUE(s->Execute("UPDATE t SET v = 20 WHERE id = 1").ok());
  EXPECT_EQ(ValueOf(1), 20);
}

TEST_F(StorageNodeTest, TransactionCommit) {
  auto s = node_->OpenSession();
  ASSERT_TRUE(s->Execute("BEGIN").ok());
  ASSERT_TRUE(s->Execute("UPDATE t SET v = 30 WHERE id = 1").ok());
  ASSERT_TRUE(s->Execute("COMMIT").ok());
  EXPECT_EQ(ValueOf(1), 30);
}

TEST_F(StorageNodeTest, TransactionRollback) {
  auto s = node_->OpenSession();
  ASSERT_TRUE(s->Execute("BEGIN").ok());
  ASSERT_TRUE(s->Execute("UPDATE t SET v = 99 WHERE id = 1").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t (id, v) VALUES (2, 20)").ok());
  ASSERT_TRUE(s->Execute("ROLLBACK").ok());
  EXPECT_EQ(ValueOf(1), 10);
  EXPECT_EQ(ValueOf(2), -1);
}

TEST_F(StorageNodeTest, SessionDestructorRollsBack) {
  {
    auto s = node_->OpenSession();
    ASSERT_TRUE(s->Execute("BEGIN").ok());
    ASSERT_TRUE(s->Execute("UPDATE t SET v = 77 WHERE id = 1").ok());
  }
  EXPECT_EQ(ValueOf(1), 10);
}

TEST_F(StorageNodeTest, BeginImplicitlyCommitsPrevious) {
  auto s = node_->OpenSession();
  ASSERT_TRUE(s->Execute("BEGIN").ok());
  ASSERT_TRUE(s->Execute("UPDATE t SET v = 40 WHERE id = 1").ok());
  ASSERT_TRUE(s->Execute("BEGIN").ok());  // MySQL-style implicit commit
  ASSERT_TRUE(s->Execute("ROLLBACK").ok());
  EXPECT_EQ(ValueOf(1), 40);
}

TEST_F(StorageNodeTest, XaPrepareCommitFlow) {
  auto s = node_->OpenSession();
  ASSERT_TRUE(s->Begin("gtx-1").ok());
  ASSERT_TRUE(s->Execute("UPDATE t SET v = 50 WHERE id = 1").ok());
  ASSERT_TRUE(s->Prepare().ok());
  EXPECT_FALSE(s->in_transaction());
  // Visible already (prepare does not hide writes in this engine) but
  // resolvable either way:
  ASSERT_TRUE(node_->CommitPrepared("gtx-1").ok());
  EXPECT_EQ(ValueOf(1), 50);
}

TEST_F(StorageNodeTest, XaPrepareRollbackRestores) {
  auto s = node_->OpenSession();
  ASSERT_TRUE(s->Begin("gtx-2").ok());
  ASSERT_TRUE(s->Execute("UPDATE t SET v = 60 WHERE id = 1").ok());
  ASSERT_TRUE(s->Prepare().ok());
  ASSERT_TRUE(node_->RollbackPrepared("gtx-2").ok());
  EXPECT_EQ(ValueOf(1), 10);
}

TEST_F(StorageNodeTest, InjectedPrepareFailureVotesNo) {
  node_->InjectPrepareFailure();
  auto s = node_->OpenSession();
  ASSERT_TRUE(s->Begin("gtx-3").ok());
  ASSERT_TRUE(s->Execute("UPDATE t SET v = 70 WHERE id = 1").ok());
  EXPECT_FALSE(s->Prepare().ok());
  // The branch rolled itself back (paper: RM answers NO and undoes its work).
  EXPECT_EQ(ValueOf(1), 10);
  EXPECT_TRUE(node_->InDoubtXids().empty());
}

TEST_F(StorageNodeTest, InjectedCommitFailureRollsBack) {
  node_->InjectCommitFailure();
  auto s = node_->OpenSession();
  ASSERT_TRUE(s->Execute("BEGIN").ok());
  ASSERT_TRUE(s->Execute("UPDATE t SET v = 80 WHERE id = 1").ok());
  EXPECT_FALSE(s->Execute("COMMIT").ok());
  EXPECT_EQ(ValueOf(1), 10);
}

TEST_F(StorageNodeTest, CrashRecoveryPath) {
  auto s = node_->OpenSession();
  ASSERT_TRUE(s->Begin("gtx-4").ok());
  ASSERT_TRUE(s->Execute("UPDATE t SET v = 90 WHERE id = 1").ok());
  ASSERT_TRUE(s->Prepare().ok());
  node_->SimulateCrash();
  auto xids = node_->InDoubtXids();
  ASSERT_EQ(xids.size(), 1u);
  EXPECT_EQ(xids[0], "gtx-4");
  ASSERT_TRUE(node_->CommitPrepared("gtx-4").ok());
  EXPECT_EQ(ValueOf(1), 90);
}

TEST_F(StorageNodeTest, DialectAffectsParsing) {
  StorageNode pg("pg0", sql::DialectType::kPostgreSQL);
  auto s = pg.OpenSession();
  ASSERT_TRUE(s->Execute("CREATE TABLE t (id INT PRIMARY KEY)").ok());
  // MySQL comma-limit is invalid in the PostgreSQL dialect.
  EXPECT_FALSE(s->Execute("SELECT * FROM t LIMIT 1, 2").ok());
  EXPECT_TRUE(s->Execute("SELECT * FROM t LIMIT 2 OFFSET 1").ok());
}

TEST_F(StorageNodeTest, StatementCounter) {
  int64_t before = node_->statements_executed();
  auto s = node_->OpenSession();
  ASSERT_TRUE(s->Execute("SELECT * FROM t").ok());
  EXPECT_EQ(node_->statements_executed(), before + 1);
}

}  // namespace
}  // namespace sphere::engine
