#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "tests/core/test_cluster.h"

namespace sphere::core {
namespace {

using testing::TestCluster;

/// Cross-shard merge pipeline: every query fans out over 4 shards on 2 nodes
/// and flows through the k-way merge / decorator stack. Tests compare the
/// streamed result against an independently computed expectation and against
/// the row-at-a-time drain of the same query.
class MergeStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<TestCluster>(2);
    ASSERT_TRUE(cluster_->InstallModRule(4, /*bind=*/true).ok());
    ASSERT_TRUE(cluster_->CreateUserOrderSchemas().ok());
    // Ages collide (uid % 7) so ORDER BY/DISTINCT/GROUP BY see ties that
    // span shard boundaries.
    for (int uid = 0; uid < 40; ++uid) {
      Exec(StrFormat(
          "INSERT INTO t_user (uid, name, age, score) VALUES "
          "(%d, 'u%d', %d, %d.5)",
          uid, uid, 20 + uid % 7, uid % 11));
    }
  }

  void Exec(const std::string& sql) {
    auto r = cluster_->runtime()->Execute(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << " for " << sql;
  }

  std::vector<Row> Query(const std::string& sql) {
    auto r = cluster_->runtime()->Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << sql;
    if (!r.ok() || !r->is_query || r->result_set == nullptr) return {};
    return engine::DrainResultSet(r.value().result_set.get());
  }

  /// Same query, pulled one row at a time through ResultSet::Next.
  std::vector<Row> QueryRowAtATime(const std::string& sql) {
    auto r = cluster_->runtime()->Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << sql;
    if (!r.ok() || !r->is_query || r->result_set == nullptr) return {};
    std::vector<Row> rows;
    Row row;
    while (r->result_set->Next(&row)) rows.push_back(std::move(row));
    return rows;
  }

  std::unique_ptr<TestCluster> cluster_;
};

TEST_F(MergeStreamTest, KWayMergeGloballySortedWithTies) {
  auto rows = Query("SELECT age, uid FROM t_user ORDER BY age");
  ASSERT_EQ(rows.size(), 40u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1][0].AsInt(), rows[i][0].AsInt()) << "at " << i;
  }
}

TEST_F(MergeStreamTest, StreamedEqualsRowAtATimeDrain) {
  const std::vector<std::string> catalog = {
      "SELECT uid FROM t_user",
      "SELECT age, uid FROM t_user ORDER BY age DESC",
      "SELECT uid FROM t_user ORDER BY uid LIMIT 7, 9",
      "SELECT DISTINCT age FROM t_user ORDER BY age",
      "SELECT age, COUNT(*) FROM t_user GROUP BY age",
      "SELECT uid, age FROM t_user ORDER BY age, uid",
      "SELECT uid FROM t_user WHERE age > 22 ORDER BY uid LIMIT 5, 6",
      "SELECT DISTINCT score FROM t_user ORDER BY score DESC",
      "SELECT age, MIN(score), MAX(score) FROM t_user GROUP BY age",
      "SELECT uid FROM t_user WHERE uid IN (1, 5, 9, 13, 26) ORDER BY uid DESC",
  };
  for (const auto& sql : catalog) {
    auto batched = Query(sql);
    auto single = QueryRowAtATime(sql);
    ASSERT_EQ(batched.size(), single.size()) << sql;
    for (size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(batched[i], single[i]) << sql << " row " << i;
    }
  }
}

TEST_F(MergeStreamTest, LimitOffsetSpansShardBoundaries) {
  auto all = Query("SELECT uid FROM t_user ORDER BY uid");
  ASSERT_EQ(all.size(), 40u);
  // Windows chosen to start/end mid-shard (shards hold uid % 4 classes).
  for (auto [off, cnt] : {std::pair<int, int>{3, 10}, {17, 5}, {38, 10}}) {
    auto rows = Query(StrFormat(
        "SELECT uid FROM t_user ORDER BY uid LIMIT %d, %d", off, cnt));
    size_t expect =
        std::min(static_cast<size_t>(cnt), all.size() - static_cast<size_t>(off));
    ASSERT_EQ(rows.size(), expect) << off << "," << cnt;
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i][0], all[static_cast<size_t>(off) + i][0]);
    }
  }
}

TEST_F(MergeStreamTest, OffsetWithoutCountReturnsTail) {
  // `OFFSET n` with no count: the rewriter strips the shard LIMIT entirely
  // (count < 0) and the merge layer applies the global offset.
  auto all = Query("SELECT uid FROM t_user ORDER BY uid");
  auto rows = Query("SELECT uid FROM t_user ORDER BY uid OFFSET 33");
  ASSERT_EQ(rows.size(), 7u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0], all[33 + i][0]);
  }
  EXPECT_TRUE(Query("SELECT uid FROM t_user ORDER BY uid OFFSET 40").empty());
}

TEST_F(MergeStreamTest, DistinctWithLimitAcrossShards) {
  // 7 distinct ages spread over every shard.
  auto rows = Query("SELECT DISTINCT age FROM t_user ORDER BY age LIMIT 4");
  ASSERT_EQ(rows.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rows[static_cast<size_t>(i)][0], Value(20 + i));
  auto offset_rows =
      Query("SELECT DISTINCT age FROM t_user ORDER BY age LIMIT 3, 10");
  ASSERT_EQ(offset_rows.size(), 4u);
  EXPECT_EQ(offset_rows[0][0], Value(23));
}

TEST_F(MergeStreamTest, MemoryGroupByIsDeterministicAndKeyOrdered) {
  // The group-by merger hash-folds the groups; its output must come back
  // deterministically ordered by the user's ORDER BY.
  const std::string sql =
      "SELECT age, COUNT(*), SUM(score) FROM t_user GROUP BY age ORDER BY age DESC";
  auto first = Query(sql);
  ASSERT_EQ(first.size(), 7u);
  for (size_t i = 1; i < first.size(); ++i) {
    EXPECT_GT(first[i - 1][0].AsInt(), first[i][0].AsInt());
  }
  for (int round = 0; round < 3; ++round) {
    auto again = Query(sql);
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < again.size(); ++i) EXPECT_EQ(again[i], first[i]);
  }
}

TEST_F(MergeStreamTest, AvgRecombinesAcrossShards) {
  auto rows = Query("SELECT AVG(score) FROM t_user");
  ASSERT_EQ(rows.size(), 1u);
  double expected = 0;
  for (int uid = 0; uid < 40; ++uid) expected += (uid % 11) + 0.5;
  expected /= 40.0;
  EXPECT_NEAR(rows[0][0].ToDouble(), expected, 1e-9);
}

/// The four shards hold kBatchSize-1, kBatchSize, kBatchSize+1 and
/// 2*kBatchSize+1 rows, so each source's batches end before, on and after a
/// boundary while the merge interleaves them. Every query is drained in
/// NextBatch steps of 1, 3, 17 and kBatchSize; answers come from the data.
TEST(MergeBatchBoundaryTest, PerShardRowCountsAroundBatchSize) {
  TestCluster cluster(2);
  ASSERT_TRUE(cluster.InstallModRule(4, /*bind=*/true).ok());
  ASSERT_TRUE(cluster.CreateUserOrderSchemas().ok());
  const int64_t b = static_cast<int64_t>(engine::kBatchSize);
  const int64_t per_shard[4] = {b - 1, b, b + 1, 2 * b + 1};
  std::vector<int64_t> uids;  // uid % 4 picks the shard
  for (int64_t shard = 0; shard < 4; ++shard) {
    for (int64_t j = 0; j < per_shard[shard]; ++j) uids.push_back(shard + 4 * j);
  }
  std::sort(uids.begin(), uids.end());
  std::map<int64_t, int64_t> per_age;  // age = 20 + uid % 7
  std::string insert;
  for (size_t i = 0; i < uids.size(); ++i) {
    ++per_age[20 + uids[i] % 7];
    insert += StrFormat("%s(%d, 'u', %d, 0.5)", insert.empty() ? "" : ", ",
                        static_cast<int>(uids[i]),
                        static_cast<int>(20 + uids[i] % 7));
    if (i % 64 == 63 || i + 1 == uids.size()) {
      auto r = cluster.runtime()->Execute(
          "INSERT INTO t_user (uid, name, age, score) VALUES " + insert);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      insert.clear();
    }
  }
  for (int shard = 0; shard < 4; ++shard) {
    ASSERT_EQ(cluster.RowsOn(shard % 2, "t_user_" + std::to_string(shard)),
              static_cast<size_t>(per_shard[shard]));
  }
  const int64_t total = static_cast<int64_t>(uids.size());
  // Rows of uids[first], uids[first + step], ... (up to `count`).
  auto uid_rows = [&](int64_t first, int64_t count, int64_t step) {
    std::vector<Row> rows;
    for (int64_t i = first; i >= 0 && i < total &&
                            static_cast<int64_t>(rows.size()) < count;
         i += step) {
      rows.push_back(Row{Value(uids[static_cast<size_t>(i)])});
    }
    return rows;
  };
  std::vector<Row> age_counts;
  for (auto [age, count] : per_age) age_counts.push_back({Value(age), Value(count)});

  for (size_t step : {size_t{1}, size_t{3}, size_t{17}, engine::kBatchSize}) {
    SCOPED_TRACE("step=" + std::to_string(step));
    auto query = [&](const std::string& sql) {
      auto r = cluster.runtime()->Execute(sql);
      std::vector<Row> rows;
      EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << sql;
      while (r.ok() && r->result_set->NextBatch(&rows, step) > 0) {
      }
      return rows;
    };
    EXPECT_EQ(query("SELECT uid FROM t_user ORDER BY uid"),
              uid_rows(0, total, 1));
    std::vector<Row> unordered = query("SELECT uid FROM t_user");
    std::sort(unordered.begin(), unordered.end());
    EXPECT_EQ(unordered, uid_rows(0, total, 1));
    // Windows straddling the first and second batch boundaries and the end.
    for (int64_t offset : {b - 2, b - 1, 2 * b - 1, total - 3}) {
      EXPECT_EQ(query(StrFormat("SELECT uid FROM t_user ORDER BY uid LIMIT %d, 5",
                                static_cast<int>(offset))),
                uid_rows(offset, 5, 1));
    }
    EXPECT_EQ(query(StrFormat("SELECT uid FROM t_user ORDER BY uid DESC "
                              "LIMIT %d, 3",
                              static_cast<int>(b))),
              uid_rows(total - 1 - b, 3, -1));
    EXPECT_EQ(query("SELECT age, COUNT(*) FROM t_user GROUP BY age ORDER BY age"),
              age_counts);
    EXPECT_EQ(query("SELECT COUNT(*) FROM t_user"),
              std::vector<Row>{{Value(total)}});
  }
}

}  // namespace
}  // namespace sphere::core
