// Single-node SELECT paths (DESIGN.md §9): the bounded top-k helper, then
// golden replays of the streaming fast path, then row counts around the
// pipeline batch size.
//
// Every query in the golden suites is compared with
// tests/engine/streaming_select_golden.txt byte for byte. The records were
// taken while a process-wide switch could still force each query onto the
// materializing executor: the streaming and materializing runs agreed, at
// batch sizes 1, 3, 256 and 100000 and under both concurrency-control
// modes. The one path that is left must reproduce them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "engine/row_batch.h"
#include "engine/storage_node.h"
#include "engine/topk.h"
#include "tests/golden_file.h"

namespace sphere::engine {
namespace {

// ---------------------------------------------------------------------------
// TopKStable: byte-identical to stable_sort + truncate
// ---------------------------------------------------------------------------

TEST(TopKStableTest, MatchesStableSortTruncateOnTiedKeys) {
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    // Few distinct keys → many ties, the case where stability is visible.
    std::vector<std::pair<int64_t, int64_t>> items;  // (key, arrival id)
    size_t n = static_cast<size_t>(rng.Uniform(0, 200));
    items.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      items.emplace_back(rng.Uniform(0, 5), static_cast<int64_t>(i));
    }
    auto less = [](const std::pair<int64_t, int64_t>& a,
                   const std::pair<int64_t, int64_t>& b) {
      return a.first < b.first;
    };
    std::vector<std::pair<int64_t, int64_t>> expected = items;
    std::stable_sort(expected.begin(), expected.end(), less);
    size_t k = static_cast<size_t>(rng.Uniform(0, 250));
    if (k < expected.size()) expected.resize(k);

    std::vector<std::pair<int64_t, int64_t>> actual = items;
    TopKStable(&actual, k, less);
    EXPECT_EQ(actual, expected) << "n=" << n << " k=" << k;
  }
}

TEST(TopKStableTest, ZeroKeepsNothing) {
  std::vector<int> v{3, 1, 2};
  TopKStable(&v, 0, std::less<int>());
  EXPECT_TRUE(v.empty());
}

// ---------------------------------------------------------------------------
// Golden replays
// ---------------------------------------------------------------------------

/// Typed cell form, so an int and an equal double do not compare equal.
std::string SerializeValue(const Value& v) {
  if (v.is_null()) return "null";
  if (v.is_int()) return "i:" + std::to_string(v.AsInt());
  if (v.is_double()) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "d:%.17g", v.AsDouble());
    return buf;
  }
  return "s:" + v.AsString();
}

/// A single node whose queries must reproduce their golden records, keyed
/// "<test suite>: <sql>". The record form is a `labels` line, then one line
/// per row of `|`-separated typed cells ("ERR" for a failed statement).
class GoldenNodeTest : public ::testing::Test {
 protected:
  void Exec(const std::string& sql) {
    auto r = session_->Execute(sql, {});
    ASSERT_TRUE(r.ok()) << r.status().ToString() << " for " << sql;
  }

  void ExpectMatchesGolden(const std::string& sql) {
    std::string out = "ERR\n";
    auto r = session_->Execute(sql, {});
    if (r.ok()) {
      const std::vector<std::string>& labels = r->result_set->columns();
      out = "labels";
      for (size_t i = 0; i < labels.size(); ++i) {
        out += (i == 0 ? " " : "|") + labels[i];
      }
      out += "\n";
      for (const Row& row : DrainResultSet(r->result_set.get())) {
        for (size_t i = 0; i < row.size(); ++i) {
          out += (i == 0 ? "" : "|") + SerializeValue(row[i]);
        }
        out += "\n";
      }
    }
    const char* suite =
        ::testing::UnitTest::GetInstance()->current_test_info()->test_suite_name();
    golden::ExpectMatchesRecord(SPHERE_STREAMING_GOLDEN,
                                std::string(suite) + ": " + sql, out);
  }

  std::unique_ptr<StorageNode> node_;
  std::unique_ptr<StorageNode::Session> session_;
};

/// Populated single node for the streaming fast path.
class StreamingSelectTest : public GoldenNodeTest {
 protected:
  void SetUp() override {
    node_ = std::make_unique<StorageNode>("ds0");
    session_ = node_->OpenSession();
    Exec("CREATE TABLE t_item (id BIGINT PRIMARY KEY, category VARCHAR(16), "
         "price DOUBLE, qty INT)");
    Exec("CREATE INDEX idx_cat ON t_item (category)");
    // Duplicated categories/prices so DISTINCT and ORDER BY ties matter.
    Rng rng(42);
    for (int id = 0; id < 60; ++id) {
      Exec(StrFormat(
          "INSERT INTO t_item (id, category, price, qty) VALUES "
          "(%d, 'c%d', %d.25, %d)",
          id, static_cast<int>(rng.Uniform(0, 4)),
          static_cast<int>(rng.Uniform(1, 9)),
          static_cast<int>(rng.Uniform(0, 99))));
    }
  }
};

TEST_F(StreamingSelectTest, PlainScans) {
  ExpectMatchesGolden("SELECT * FROM t_item");
  ExpectMatchesGolden("SELECT id, price FROM t_item WHERE qty > 50");
  ExpectMatchesGolden("SELECT id FROM t_item WHERE id BETWEEN 10 AND 40");
  ExpectMatchesGolden("SELECT id FROM t_item WHERE id IN (3, 1, 59, 99)");
  ExpectMatchesGolden("SELECT id, qty FROM t_item WHERE category = 'c2'");
  ExpectMatchesGolden("SELECT price * 2 FROM t_item WHERE id < 10");
}

TEST_F(StreamingSelectTest, LimitEarlyTermination) {
  ExpectMatchesGolden("SELECT id FROM t_item LIMIT 7");
  ExpectMatchesGolden("SELECT id FROM t_item LIMIT 5 OFFSET 12");
  ExpectMatchesGolden("SELECT id FROM t_item WHERE qty > 30 LIMIT 55, 100");
  ExpectMatchesGolden("SELECT id FROM t_item OFFSET 20");  // count-less branch
  ExpectMatchesGolden("SELECT id FROM t_item LIMIT 0");
  ExpectMatchesGolden("SELECT id FROM t_item LIMIT 6 OFFSET 6");
}

TEST_F(StreamingSelectTest, IndexOrderSortElision) {
  ExpectMatchesGolden("SELECT id, price FROM t_item ORDER BY id");
  ExpectMatchesGolden("SELECT id FROM t_item WHERE id > 5 ORDER BY id LIMIT 9");
  ExpectMatchesGolden("SELECT id, category FROM t_item ORDER BY id, price");
}

TEST_F(StreamingSelectTest, TopKMatchesSortThenTruncate) {
  ExpectMatchesGolden("SELECT id, price FROM t_item ORDER BY price LIMIT 5");
  ExpectMatchesGolden("SELECT id, price FROM t_item ORDER BY price LIMIT 9");
  ExpectMatchesGolden(
      "SELECT id, price FROM t_item ORDER BY price DESC LIMIT 5");
  ExpectMatchesGolden("SELECT id FROM t_item ORDER BY id DESC LIMIT 3");
  ExpectMatchesGolden(
      "SELECT id, price FROM t_item ORDER BY price, qty DESC LIMIT 4 OFFSET 2");
  ExpectMatchesGolden(
      "SELECT id FROM t_item WHERE qty > 20 ORDER BY qty LIMIT 6");
}

TEST_F(StreamingSelectTest, AscDescEarlyTerminationEquivalence) {
  // The ASC query elides its sort (pk scan order), the DESC one runs the
  // bounded heap; both were recorded agreeing with their materializing twins.
  ExpectMatchesGolden("SELECT id FROM t_item ORDER BY id ASC LIMIT 10");
  ExpectMatchesGolden("SELECT id FROM t_item ORDER BY id DESC LIMIT 10");
}

TEST_F(StreamingSelectTest, DistinctVariants) {
  ExpectMatchesGolden("SELECT DISTINCT category FROM t_item");
  ExpectMatchesGolden("SELECT DISTINCT category FROM t_item LIMIT 2");
  ExpectMatchesGolden("SELECT DISTINCT category FROM t_item LIMIT 3");
  ExpectMatchesGolden(
      "SELECT DISTINCT category, qty FROM t_item LIMIT 3 OFFSET 1");
  // DISTINCT + non-pk ORDER BY + LIMIT falls back (dedup happens after the
  // sort on the materializing path).
  ExpectMatchesGolden(
      "SELECT DISTINCT category FROM t_item ORDER BY category LIMIT 2");
  ExpectMatchesGolden("SELECT DISTINCT price FROM t_item ORDER BY price DESC");
}

TEST_F(StreamingSelectTest, FallbackPathsStillMatch) {
  // No LIMIT count → nothing to bound; aggregates and joins → materializing.
  ExpectMatchesGolden("SELECT id FROM t_item ORDER BY price");
  ExpectMatchesGolden(
      "SELECT category, COUNT(*) FROM t_item GROUP BY category");
  ExpectMatchesGolden("SELECT MAX(price) FROM t_item");
}

TEST_F(StreamingSelectTest, RandomizedDifferential) {
  Rng rng(1234);
  const std::vector<std::string> projections = {
      "*", "id", "id, price", "category, qty", "price * 2, id"};
  const std::vector<std::string> wheres = {
      "", " WHERE qty > 25", " WHERE id BETWEEN 7 AND 44",
      " WHERE category = 'c1'", " WHERE id IN (2, 4, 8, 16, 32)"};
  const std::vector<std::string> orders = {
      "", " ORDER BY id", " ORDER BY price LIMIT 8", " ORDER BY qty DESC LIMIT 5",
      " ORDER BY id LIMIT 4 OFFSET 3"};
  const std::vector<std::string> limits = {"", " LIMIT 11", " LIMIT 6, 9"};
  for (int round = 0; round < 120; ++round) {
    std::string sql = "SELECT ";
    bool distinct = rng.Uniform(0, 3) == 0;
    if (distinct) sql += "DISTINCT ";
    sql += projections[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(projections.size()) - 1))];
    sql += " FROM t_item";
    sql += wheres[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(wheres.size()) - 1))];
    const std::string& order = orders[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(orders.size()) - 1))];
    sql += order;
    if (order.empty()) {
      sql += limits[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(limits.size()) - 1))];
    }
    ExpectMatchesGolden(sql);
  }
}

TEST_F(StreamingSelectTest, MemoryDisciplineKnobsAreBehaviorNeutral) {
  // Statement arenas and pooled row batches must be invisible in results:
  // a run on fresh storage (empty row pool) and runs that project into
  // recycled, capacity-rich rows of a different shape all reproduce the
  // golden record.
  const std::vector<std::string> queries = {
      "SELECT * FROM t_item",
      "SELECT id, price FROM t_item WHERE qty > 25",
      "SELECT id FROM t_item WHERE id = 17",
      "SELECT DISTINCT category FROM t_item",
      "SELECT id, qty FROM t_item ORDER BY qty DESC LIMIT 7",
      "SELECT category, price FROM t_item ORDER BY id LIMIT 10 OFFSET 20",
  };
  for (const std::string& sql : queries) {
    RowStore::Instance().Clear();
    ExpectMatchesGolden(sql);
    for (int warm = 0; warm < 2; ++warm) {
      // Seed the pool with long-string rows of another shape, so the next
      // run reuses their storage in place.
      std::vector<Row> seed(64, Row{Value(std::string(48, 'x')), Value(1)});
      RowStore::Instance().Release(std::move(seed));
      ExpectMatchesGolden(sql);
    }
  }
}

TEST_F(StreamingSelectTest, StreamingSurvivesConcurrentSchema) {
  // The fast path must not hold the table latch beyond one statement: a
  // write between two streamed statements is immediately visible.
  auto r1 = session_->Execute("SELECT id FROM t_item LIMIT 3", {});
  ASSERT_TRUE(r1.ok());
  (void)DrainResultSet(r1->result_set.get());
  Exec("INSERT INTO t_item (id, category, price, qty) VALUES "
       "(1000, 'cx', 1.0, 1)");
  auto r2 = session_->Execute("SELECT id FROM t_item WHERE id = 1000", {});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(DrainResultSet(r2->result_set.get()).size(), 1u);
}

// ---------------------------------------------------------------------------
// Streaming global-aggregate fast path
// ---------------------------------------------------------------------------

class AggregateFastPathTest : public GoldenNodeTest {
 protected:
  void SetUp() override {
    node_ = std::make_unique<StorageNode>("ds_agg");
    session_ = node_->OpenSession();
    Exec("CREATE TABLE m (id BIGINT PRIMARY KEY, k INT, d DOUBLE)");
    for (int id = 1; id <= 40; ++id) {
      Exec(StrFormat("INSERT INTO m VALUES (%d, %d, %d.5)", id, id % 6,
                     id * 3));
    }
  }
};

TEST_F(AggregateFastPathTest, MatchesMaterializingBaseline) {
  const char* queries[] = {
      "SELECT COUNT(*) FROM m",
      "SELECT COUNT(*), SUM(k), MIN(k), MAX(k), AVG(k) FROM m",
      "SELECT SUM(d), AVG(d) FROM m",
      "SELECT COUNT(*), SUM(k) FROM m WHERE id >= 10 AND id <= 20",
      "SELECT COUNT(*) FROM m WHERE k = 99",        // empty match: COUNT 0
      "SELECT SUM(k), AVG(k) FROM m WHERE k = 99",  // empty match: NULLs
      "SELECT COUNT(id) FROM m WHERE d > 60.0",
  };
  for (const char* q : queries) ExpectMatchesGolden(q);
}

TEST_F(AggregateFastPathTest, ShapesThatMustFallBackStillAgree) {
  // Not eligible for the global-aggregate fast path (GROUP BY, HAVING,
  // DISTINCT, ORDER BY, mixed plain columns).
  const char* queries[] = {
      "SELECT k, COUNT(*) FROM m GROUP BY k ORDER BY k",
      "SELECT k, SUM(d) FROM m GROUP BY k HAVING COUNT(*) > 3 ORDER BY k",
      "SELECT COUNT(DISTINCT k) FROM m",
      "SELECT k FROM m ORDER BY k DESC LIMIT 5",
  };
  for (const char* q : queries) ExpectMatchesGolden(q);
}

TEST_F(AggregateFastPathTest, AgreesUnderBothConcurrencyModes) {
  for (ConcurrencyControl mode :
       {ConcurrencyControl::kLatch, ConcurrencyControl::kMvcc}) {
    node_->set_concurrency_control(mode);
    ExpectMatchesGolden(
        "SELECT COUNT(*), SUM(k), AVG(d) FROM m WHERE id <= 25");
  }
}

// ---------------------------------------------------------------------------
// Row counts around the pipeline batch size
// ---------------------------------------------------------------------------

/// Tables of kBatchSize-1 .. 2*kBatchSize+1 rows, drained in NextBatch steps
/// of 1, 3, 17 and kBatchSize: batch boundaries fall before, on and after
/// the last row and inside LIMIT windows. Answers come from the known data.
TEST(StreamingBatchBoundaryTest, RowCountsAroundBatchSize) {
  const int64_t b = static_cast<int64_t>(kBatchSize);
  for (int64_t n : {b - 1, b, b + 1, 2 * b + 1}) {
    SCOPED_TRACE("rows=" + std::to_string(n));
    StorageNode node("ds_batch");
    auto session = node.OpenSession();
    ASSERT_TRUE(
        session->Execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v INT)").ok());
    for (int64_t id = 0; id < n; ++id) {
      ASSERT_TRUE(session->Execute(StrFormat("INSERT INTO t VALUES (%d, %d)",
                                             static_cast<int>(id),
                                             static_cast<int>(id % 5)))
                      .ok());
    }
    // Up to `count` ids from `first`, stepping by `step`, inside [0, n).
    auto ids = [n](int64_t first, int64_t count, int64_t step) {
      std::vector<Row> rows;
      for (int64_t id = first; id >= 0 && id < n &&
                               static_cast<int64_t>(rows.size()) < count;
           id += step) {
        rows.push_back(Row{Value(id)});
      }
      return rows;
    };
    for (size_t step : {size_t{1}, size_t{3}, size_t{17}, kBatchSize}) {
      SCOPED_TRACE("step=" + std::to_string(step));
      auto query = [&](const std::string& sql) {
        auto r = session->Execute(sql, {});
        std::vector<Row> rows;
        EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << sql;
        while (r.ok() && r->result_set->NextBatch(&rows, step) > 0) {
        }
        return rows;
      };
      EXPECT_EQ(query("SELECT id FROM t"), ids(0, n, 1));
      for (int64_t offset : {b - 2, b - 1, b, 2 * b - 1}) {
        EXPECT_EQ(query(StrFormat("SELECT id FROM t LIMIT %d, 4",
                                  static_cast<int>(offset))),
                  ids(offset, 4, 1));
      }
      // Descending pk runs the bounded top-k heap over every row.
      EXPECT_EQ(query(StrFormat("SELECT id FROM t ORDER BY id DESC LIMIT %d, 3",
                                static_cast<int>(b - 1))),
                ids(n - b, 3, -1));
      EXPECT_EQ(query("SELECT DISTINCT v FROM t"), ids(0, 5, 1));
      EXPECT_EQ(query("SELECT id FROM t WHERE v = 4"), ids(4, n, 5));
      EXPECT_EQ(query("SELECT COUNT(*) FROM t"), std::vector<Row>{{Value(n)}});
    }
  }
}

}  // namespace
}  // namespace sphere::engine
