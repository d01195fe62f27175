#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "engine/pipeline.h"
#include "engine/row_batch.h"
#include "engine/storage_node.h"
#include "engine/topk.h"

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
// Streaming fast path vs materializing baseline
// ---------------------------------------------------------------------------

/// Populated single node; every test query runs twice, once with the
/// streaming pipeline on and once forced onto the materializing baseline, and
/// the two results must match row for row.
class StreamingSelectTest : public ::testing::Test {
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

  void Exec(const std::string& sql) {
    auto r = session_->Execute(sql, {});
    ASSERT_TRUE(r.ok()) << r.status().ToString() << " for " << sql;
  }

  /// Runs `sql` with streaming forced on/off; returns (labels, rows).
  std::pair<std::vector<std::string>, std::vector<Row>> Run(
      const std::string& sql, bool streaming) {
    ScopedStreamingMode mode(streaming);
    auto r = session_->Execute(sql, {});
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << sql;
    if (!r.ok() || !r->is_query || r->result_set == nullptr) return {};
    std::vector<std::string> labels = r->result_set->columns();
    return {std::move(labels), DrainResultSet(r.value().result_set.get())};
  }

  void ExpectSameResult(const std::string& sql) {
    auto [labels_on, rows_on] = Run(sql, /*streaming=*/true);
    auto [labels_off, rows_off] = Run(sql, /*streaming=*/false);
    EXPECT_EQ(labels_on, labels_off) << sql;
    ASSERT_EQ(rows_on.size(), rows_off.size()) << sql;
    for (size_t i = 0; i < rows_on.size(); ++i) {
      EXPECT_EQ(rows_on[i], rows_off[i]) << sql << " row " << i;
    }
  }

  std::unique_ptr<StorageNode> node_;
  std::unique_ptr<StorageNode::Session> session_;
};

TEST_F(StreamingSelectTest, PlainScans) {
  ExpectSameResult("SELECT * FROM t_item");
  ExpectSameResult("SELECT id, price FROM t_item WHERE qty > 50");
  ExpectSameResult("SELECT id FROM t_item WHERE id BETWEEN 10 AND 40");
  ExpectSameResult("SELECT id FROM t_item WHERE id IN (3, 1, 59, 99)");
  ExpectSameResult("SELECT id, qty FROM t_item WHERE category = 'c2'");
  ExpectSameResult("SELECT price * 2 FROM t_item WHERE id < 10");
}

TEST_F(StreamingSelectTest, LimitEarlyTermination) {
  ExpectSameResult("SELECT id FROM t_item LIMIT 7");
  ExpectSameResult("SELECT id FROM t_item LIMIT 5 OFFSET 12");
  ExpectSameResult("SELECT id FROM t_item WHERE qty > 30 LIMIT 55, 100");
  ExpectSameResult("SELECT id FROM t_item OFFSET 20");  // count-less branch
  ExpectSameResult("SELECT id FROM t_item LIMIT 0");
}

TEST_F(StreamingSelectTest, IndexOrderSortElision) {
  ExpectSameResult("SELECT id, price FROM t_item ORDER BY id");
  ExpectSameResult("SELECT id FROM t_item WHERE id > 5 ORDER BY id LIMIT 9");
  ExpectSameResult("SELECT id, category FROM t_item ORDER BY id, price");
}

TEST_F(StreamingSelectTest, TopKMatchesSortThenTruncate) {
  ExpectSameResult("SELECT id, price FROM t_item ORDER BY price LIMIT 5");
  ExpectSameResult("SELECT id, price FROM t_item ORDER BY price DESC LIMIT 5");
  ExpectSameResult("SELECT id FROM t_item ORDER BY id DESC LIMIT 3");
  ExpectSameResult(
      "SELECT id, price FROM t_item ORDER BY price, qty DESC LIMIT 4 OFFSET 2");
  ExpectSameResult("SELECT id FROM t_item WHERE qty > 20 ORDER BY qty LIMIT 6");
}

TEST_F(StreamingSelectTest, AscDescEarlyTerminationEquivalence) {
  // The ASC query elides its sort (pk scan order), the DESC one runs the
  // bounded heap; both must agree with their materializing twins.
  ExpectSameResult("SELECT id FROM t_item ORDER BY id ASC LIMIT 10");
  ExpectSameResult("SELECT id FROM t_item ORDER BY id DESC LIMIT 10");
}

TEST_F(StreamingSelectTest, DistinctVariants) {
  ExpectSameResult("SELECT DISTINCT category FROM t_item");
  ExpectSameResult("SELECT DISTINCT category FROM t_item LIMIT 2");
  ExpectSameResult("SELECT DISTINCT category, qty FROM t_item LIMIT 3 OFFSET 1");
  // DISTINCT + non-pk ORDER BY + LIMIT must fall back (dedup happens after
  // the sort in the baseline) and still match.
  ExpectSameResult(
      "SELECT DISTINCT category FROM t_item ORDER BY category LIMIT 2");
  ExpectSameResult("SELECT DISTINCT price FROM t_item ORDER BY price DESC");
}

TEST_F(StreamingSelectTest, FallbackPathsStillMatch) {
  // No LIMIT count → nothing to bound; aggregates and joins → materializing.
  ExpectSameResult("SELECT id FROM t_item ORDER BY price");
  ExpectSameResult("SELECT category, COUNT(*) FROM t_item GROUP BY category");
  ExpectSameResult("SELECT MAX(price) FROM t_item");
}

TEST_F(StreamingSelectTest, BatchSizeOneAndHugeAgree) {
  for (size_t batch : {size_t{1}, size_t{3}, size_t{100000}}) {
    PipelineConfig::set_batch_size(batch);
    ExpectSameResult("SELECT id, price FROM t_item ORDER BY price LIMIT 9");
    ExpectSameResult("SELECT DISTINCT category FROM t_item LIMIT 3");
    ExpectSameResult("SELECT id FROM t_item LIMIT 6 OFFSET 6");
  }
  PipelineConfig::set_batch_size(PipelineConfig::kDefaultBatchSize);
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
    ExpectSameResult(sql);
  }
}

TEST_F(StreamingSelectTest, MemoryDisciplineKnobsAreBehaviorNeutral) {
  // Statement arenas and pooled row batches must be invisible in results:
  // a run on fresh storage (empty row pool) and runs that project into
  // recycled, capacity-rich rows of a different shape agree byte for byte,
  // on both the streaming fast path and the materializing baseline.
  const std::vector<std::string> queries = {
      "SELECT * FROM t_item",
      "SELECT id, price FROM t_item WHERE qty > 25",
      "SELECT id FROM t_item WHERE id = 17",
      "SELECT DISTINCT category FROM t_item",
      "SELECT id, qty FROM t_item ORDER BY qty DESC LIMIT 7",
      "SELECT category, price FROM t_item ORDER BY id LIMIT 10 OFFSET 20",
  };
  for (bool streaming : {false, true}) {
    for (const std::string& sql : queries) {
      RowStore::Instance().Clear();
      auto [baseline_labels, baseline] = Run(sql, streaming);
      for (int warm = 0; warm < 2; ++warm) {
        // Seed the pool with long-string rows of another shape, so the
        // next run reuses their storage in place.
        std::vector<Row> seed(64, Row{Value(std::string(48, 'x')), Value(1)});
        RowStore::Instance().Release(std::move(seed));
        auto [labels, rows] = Run(sql, streaming);
        EXPECT_EQ(labels, baseline_labels)
            << sql << " warm=" << warm << " streaming=" << streaming;
        ASSERT_EQ(rows.size(), baseline.size())
            << sql << " warm=" << warm << " streaming=" << streaming;
        for (size_t i = 0; i < rows.size(); ++i) {
          EXPECT_EQ(rows[i], baseline[i])
              << sql << " row " << i << " warm=" << warm;
        }
      }
    }
  }
}

TEST_F(StreamingSelectTest, StreamingSurvivesConcurrentSchema) {
  // The fast path must not hold the table latch beyond one statement: a
  // write between two streamed statements is immediately visible.
  {
    ScopedStreamingMode mode(true);
    auto r1 = session_->Execute("SELECT id FROM t_item LIMIT 3", {});
    ASSERT_TRUE(r1.ok());
    (void)DrainResultSet(r1->result_set.get());
    Exec("INSERT INTO t_item (id, category, price, qty) VALUES "
         "(1000, 'cx', 1.0, 1)");
    auto r2 = session_->Execute("SELECT id FROM t_item WHERE id = 1000", {});
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(DrainResultSet(r2->result_set.get()).size(), 1u);
  }
}

}  // namespace
}  // namespace sphere::engine
