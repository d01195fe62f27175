// The node's SELECT pipeline (DESIGN.md §9): the bounded top-k helper, then
// golden replays, then row counts around the pipeline batch size.
//
// Every query in the golden suites is compared with
// tests/engine/streaming_select_golden.txt byte for byte. The first 144
// records were taken while a process-wide switch could still force each
// query onto the materializing executor: the streaming and materializing
// runs agreed, at batch sizes 1, 3, 256 and 100000 and under both
// concurrency-control modes. The rest (sorted, grouped, NULL-bearing and
// joined shapes) were recorded from the tree that still had both executors,
// before they became one pipeline. The pipeline must reproduce them all.

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

/// Populated single node for the SELECT pipeline.
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
  // DISTINCT + non-pk ORDER BY + LIMIT: the dedup runs after a full sort,
  // not inside a top-k that duplicates could fill.
  ExpectMatchesGolden(
      "SELECT DISTINCT category FROM t_item ORDER BY category LIMIT 2");
  ExpectMatchesGolden("SELECT DISTINCT price FROM t_item ORDER BY price DESC");
}

TEST_F(StreamingSelectTest, FallbackPathsStillMatch) {
  // No LIMIT count → a full stable sort; GROUP BY and global aggregates.
  ExpectMatchesGolden("SELECT id FROM t_item ORDER BY price");
  ExpectMatchesGolden(
      "SELECT category, COUNT(*) FROM t_item GROUP BY category");
  ExpectMatchesGolden("SELECT MAX(price) FROM t_item");
}

/// Sorted, deduplicated and aliased shapes that once took the materializing
/// executor: full stable sorts on tied non-pk keys, DISTINCT after the sort
/// (also on keys that are not selected), and keys that only resolve against
/// the output labels or the select-expression text.
const char* const kSortedShapes[] = {
    "SELECT id, category FROM t_item ORDER BY category",
    "SELECT id, category FROM t_item ORDER BY category DESC",
    "SELECT id, price, qty FROM t_item ORDER BY price DESC, qty",
    "SELECT id FROM t_item WHERE qty > 40 ORDER BY category, price DESC",
    "SELECT category, price FROM t_item ORDER BY price, category DESC OFFSET 50",
    "SELECT t_item.id FROM t_item ORDER BY t_item.price, t_item.id DESC LIMIT 5",
    "SELECT DISTINCT category FROM t_item ORDER BY category",
    "SELECT DISTINCT category, price FROM t_item ORDER BY price DESC, category "
    "LIMIT 5",
    "SELECT DISTINCT category FROM t_item ORDER BY qty",
    "SELECT DISTINCT category FROM t_item ORDER BY qty DESC LIMIT 2",
    "SELECT DISTINCT price FROM t_item ORDER BY id LIMIT 4 OFFSET 1",
    "SELECT DISTINCT price FROM t_item WHERE category = 'c1' ORDER BY price",
    "SELECT id, price * 2 AS dbl FROM t_item ORDER BY dbl DESC",
    "SELECT id, price * 2 AS dbl FROM t_item ORDER BY dbl, id LIMIT 6",
    "SELECT id, qty + 1 FROM t_item ORDER BY qty + 1 LIMIT 5",
    "SELECT id, qty + 1 FROM t_item ORDER BY qty + 1 DESC, id",
    "SELECT DISTINCT price * 2 AS dbl FROM t_item ORDER BY dbl DESC LIMIT 3",
    "SELECT category AS cat, id FROM t_item ORDER BY cat, id DESC LIMIT 7",
    "SELECT id, price * 2 AS dbl FROM t_item ORDER BY dbl, qty",
    "SELECT id FROM t_item ORDER BY nope",
    "SELECT id FROM t_item ORDER BY LENGTH(nope) LIMIT 3",
};

/// Grouped and aggregated shapes: group-key order without ORDER BY, HAVING,
/// label-resolved ORDER BY, LIMIT/OFFSET over groups, aggregates under
/// DISTINCT/ORDER BY/LIMIT, and the errors of the aggregated path.
const char* const kGroupedShapes[] = {
    "SELECT category, COUNT(*), SUM(qty) FROM t_item GROUP BY category",
    "SELECT category, COUNT(*) FROM t_item GROUP BY category "
    "ORDER BY COUNT(*) DESC",
    "SELECT category, AVG(price) AS ap FROM t_item GROUP BY category "
    "ORDER BY ap LIMIT 2",
    "SELECT category, MAX(qty) FROM t_item GROUP BY category "
    "HAVING MAX(qty) > 90",
    "SELECT category, COUNT(*) FROM t_item WHERE qty > 20 GROUP BY category "
    "HAVING COUNT(*) >= 3 ORDER BY category DESC LIMIT 2 OFFSET 1",
    "SELECT price, COUNT(*) FROM t_item GROUP BY price LIMIT 3",
    "SELECT price, category, COUNT(*) FROM t_item GROUP BY price, category "
    "LIMIT 5 OFFSET 2",
    "SELECT category, id FROM t_item GROUP BY category",
    "SELECT qty % 3, SUM(price) FROM t_item GROUP BY qty % 3",
    "SELECT category, SUM(qty) * 2 FROM t_item GROUP BY category",
    "SELECT category FROM t_item GROUP BY category HAVING SUM(qty) > 500",
    "SELECT DISTINCT COUNT(*) FROM t_item GROUP BY category",
    "SELECT COUNT(*) FROM t_item GROUP BY category ORDER BY COUNT(*)",
    "SELECT category, COUNT(*) FROM t_item WHERE id > 1000 GROUP BY category",
    "SELECT COUNT(*), MAX(price) FROM t_item WHERE id > 1000 "
    "ORDER BY COUNT(*) LIMIT 1",
    "SELECT category, COUNT(*) FROM t_item GROUP BY category ORDER BY price",
    "SELECT * FROM t_item GROUP BY category",
    "SELECT category, COUNT(nope) FROM t_item GROUP BY category",
};

TEST_F(StreamingSelectTest, SortedShapes) {
  for (const char* q : kSortedShapes) ExpectMatchesGolden(q);
}

TEST_F(StreamingSelectTest, GroupedShapes) {
  for (const char* q : kGroupedShapes) ExpectMatchesGolden(q);
}

TEST_F(StreamingSelectTest, SortedAndGroupedShapesAgreeUnderBothModes) {
  for (ConcurrencyControl mode :
       {ConcurrencyControl::kLatch, ConcurrencyControl::kMvcc}) {
    node_->set_concurrency_control(mode);
    for (const char* q : kSortedShapes) ExpectMatchesGolden(q);
    for (const char* q : kGroupedShapes) ExpectMatchesGolden(q);
  }
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
  // Suffixes of the grouped, unbounded-sort and sorted-DISTINCT shapes, drawn
  // after the rounds above so their queries stay as recorded.
  const std::vector<std::string> suffixes = {
      " GROUP BY category",
      " GROUP BY category HAVING COUNT(*) > 2",
      " GROUP BY qty % 4 HAVING SUM(price) > 20 ORDER BY id",
      " ORDER BY price",
      " ORDER BY category DESC, qty",
      " ORDER BY qty OFFSET 4",
      " ORDER BY price DESC LIMIT 3, 4"};
  const std::vector<std::string> grouped_items = {
      "category, COUNT(*)", "qty % 4, SUM(price), MIN(id)", "category, id",
      "COUNT(*), MAX(qty)"};
  for (int round = 0; round < 60; ++round) {
    const std::string& suffix = suffixes[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(suffixes.size()) - 1))];
    bool grouped = suffix.rfind(" GROUP BY", 0) == 0;
    std::string sql = "SELECT ";
    if (rng.Uniform(0, 2) == 0) sql += "DISTINCT ";
    if (grouped) {
      sql += grouped_items[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(grouped_items.size()) - 1))];
    } else {
      sql += projections[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(projections.size()) - 1))];
    }
    sql += " FROM t_item";
    sql += wheres[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(wheres.size()) - 1))];
    sql += suffix;
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
  // The pipeline must not hold the table latch beyond one statement: a
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
// Aggregates
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
  // GROUP BY, HAVING, COUNT(DISTINCT) and a plain-column sort, recorded
  // while they ran on the materializing executor.
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

TEST_F(AggregateFastPathTest, AggregatesUnderDistinctOrderAndLimit) {
  const char* queries[] = {
      "SELECT DISTINCT COUNT(*) FROM m",
      "SELECT SUM(k) FROM m ORDER BY SUM(k)",
      "SELECT COUNT(*), SUM(d) FROM m LIMIT 1",
      "SELECT MAX(k) FROM m LIMIT 0",
      "SELECT AVG(k) FROM m LIMIT 1 OFFSET 1",
      "SELECT COUNT(DISTINCT k), AVG(DISTINCT k), SUM(DISTINCT d) FROM m "
      "WHERE id > 5",
      "SELECT k, COUNT(DISTINCT d) FROM m GROUP BY k",
      "SELECT MIN(id), MAX(id), k FROM m",
      "SELECT SUM(k), k FROM m WHERE k = 99",
      "SELECT k, SUM(d) / COUNT(*) FROM m GROUP BY k ORDER BY k DESC",
  };
  for (const char* q : queries) ExpectMatchesGolden(q);
}

// ---------------------------------------------------------------------------
// Aggregates over NULLs and strings
// ---------------------------------------------------------------------------

class NullAggregateTest : public GoldenNodeTest {
 protected:
  void SetUp() override {
    node_ = std::make_unique<StorageNode>("ds_null");
    session_ = node_->OpenSession();
    Exec("CREATE TABLE n (id BIGINT PRIMARY KEY, s VARCHAR(16), v INT)");
    const char* rows[] = {
        "(1, 'pear', 4)",  "(2, NULL, 7)",     "(3, 'apple', NULL)",
        "(4, 'fig', 4)",   "(5, 'pear', NULL)", "(6, NULL, NULL)",
        "(7, 'apple', 2)", "(8, 'kiwi', 9)",    "(9, 'fig', 4)",
        "(10, NULL, 1)"};
    for (const char* r : rows) Exec(std::string("INSERT INTO n VALUES ") + r);
  }
};

TEST_F(NullAggregateTest, MatchesRecordedAnswers) {
  const char* queries[] = {
      "SELECT COUNT(*), COUNT(s), COUNT(v), MIN(s), MAX(s), MIN(v), MAX(v), "
      "SUM(v), AVG(v) FROM n",
      "SELECT s, COUNT(*), SUM(v) FROM n GROUP BY s",
      "SELECT s, MIN(v), MAX(v) FROM n GROUP BY s ORDER BY s DESC",
      "SELECT v, MIN(s), MAX(s), COUNT(s) FROM n GROUP BY v",
      "SELECT v FROM n ORDER BY v",
      "SELECT id, v FROM n ORDER BY v DESC, id DESC LIMIT 4",
      "SELECT DISTINCT s FROM n ORDER BY s",
      "SELECT DISTINCT v FROM n",
      "SELECT COUNT(DISTINCT s), COUNT(DISTINCT v) FROM n",
      "SELECT MIN(s), MAX(s) FROM n WHERE v IS NULL",
      "SELECT AVG(v), SUM(v), MIN(v) FROM n WHERE s IS NULL",
      "SELECT MIN(v), MAX(s) FROM n WHERE id > 100",
  };
  for (ConcurrencyControl mode :
       {ConcurrencyControl::kLatch, ConcurrencyControl::kMvcc}) {
    node_->set_concurrency_control(mode);
    for (const char* q : queries) ExpectMatchesGolden(q);
  }
}

// ---------------------------------------------------------------------------
// Join sources and SELECT without FROM
// ---------------------------------------------------------------------------

class JoinSelectTest : public GoldenNodeTest {
 protected:
  void SetUp() override {
    node_ = std::make_unique<StorageNode>("ds_join");
    session_ = node_->OpenSession();
    Exec("CREATE TABLE u (uid BIGINT PRIMARY KEY, name VARCHAR(16), tier INT)");
    Exec("CREATE TABLE o (oid BIGINT PRIMARY KEY, uid BIGINT, amount DOUBLE)");
    Exec("INSERT INTO u VALUES (1, 'ann', 2), (2, 'bob', 1), (3, 'cid', 2), "
         "(4, 'dee', 3)");
    Exec("INSERT INTO o VALUES (10, 1, 10.0), (11, 1, 25.0), (12, 2, 5.0), "
         "(13, 9, 1.0), (14, 3, 25.0), (15, 1, 7.5)");
  }
};

TEST_F(JoinSelectTest, MatchesRecordedAnswers) {
  const char* queries[] = {
      "SELECT u.name, o.amount FROM u JOIN o ON u.uid = o.uid",
      "SELECT o.oid, u.name FROM o LEFT JOIN u ON o.uid = u.uid",
      "SELECT u.name, o.oid FROM u, o WHERE u.uid = o.uid AND o.amount > 5",
      "SELECT u.uid, o.oid FROM u JOIN o ON o.amount > u.uid * 10",
      "SELECT u.uid, o.oid FROM u LEFT JOIN o ON o.amount > u.uid * 10 "
      "ORDER BY u.uid DESC",
      "SELECT u.name, COUNT(*), SUM(o.amount) FROM u JOIN o ON u.uid = o.uid "
      "GROUP BY u.name",
      "SELECT u.tier, MAX(o.amount) FROM u LEFT JOIN o ON u.uid = o.uid "
      "GROUP BY u.tier HAVING COUNT(o.oid) > 0 ORDER BY u.tier DESC",
      "SELECT u.name, o.amount FROM u JOIN o ON u.uid = o.uid "
      "ORDER BY o.amount DESC LIMIT 3",
      "SELECT DISTINCT u.name FROM u JOIN o ON u.uid = o.uid ORDER BY u.name",
      "SELECT * FROM u, o WHERE u.uid = 2",
      "SELECT o.* FROM u JOIN o ON u.uid = o.uid WHERE u.uid = 1",
      "SELECT u.name, o.oid FROM u, o WHERE o.oid = 12 LIMIT 2 OFFSET 1",
      "SELECT u.name FROM u RIGHT JOIN o ON u.uid = o.uid",
      "SELECT 1 + 2, 'x'",
      "SELECT COUNT(*)",
      "SELECT nope FROM u",
      "SELECT uid FROM missing_table",
  };
  for (ConcurrencyControl mode :
       {ConcurrencyControl::kLatch, ConcurrencyControl::kMvcc}) {
    node_->set_concurrency_control(mode);
    for (const char* q : queries) ExpectMatchesGolden(q);
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
