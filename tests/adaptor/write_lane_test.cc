// Golden replay suite for the write path (DESIGN.md §10).
//
// Every DML script below is replayed against a freshly built sharded cluster,
// and the per-statement affected counts, error positions and final database
// state must match tests/adaptor/write_lane_golden.txt byte for byte. The
// golden records were taken while six DML lanes (structured, cached-text and
// inlined-text rewrites, each with index-backed and scan-based UPDATE/DELETE)
// still existed and all agreed; the one surviving lane must reproduce them.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "adaptor/jdbc.h"
#include "common/rng.h"
#include "common/strings.h"
#include "engine/result_set.h"
#include "storage/table.h"
#include "tests/golden_file.h"

namespace sphere::adaptor {
namespace {

/// One step of a DML script. `sql` may be BEGIN/COMMIT/ROLLBACK; `may_fail`
/// marks steps whose failure is part of the scenario (the golden record
/// pins which steps fail).
struct Step {
  std::string sql;
  std::vector<Value> params = {};
  bool may_fail = false;
};

/// Outcome of replaying a script: per-step affected counts (-1 = step
/// failed) and a serialized fingerprint of the final state.
struct Replay {
  std::vector<int64_t> counts;
  std::string fingerprint;

  /// The golden-file form: a `counts` line, then the fingerprint.
  std::string Serialize() const {
    std::string out = "counts";
    for (int64_t n : counts) out += " " + std::to_string(n);
    return out + "\n" + fingerprint;
  }
};

class WriteLaneTest : public ::testing::Test {
 protected:
  /// Builds a fresh 2-node cluster with t_user/t_order MOD-sharded by uid
  /// into 4 tables, a secondary index on t_order.uid, and a fixed seed
  /// population.
  struct Cluster {
    std::vector<std::unique_ptr<engine::StorageNode>> nodes;
    std::unique_ptr<ShardingDataSource> ds;
    std::unique_ptr<ShardingConnection> conn;
  };

  static Cluster MakeCluster() {
    Cluster c;
    c.ds = std::make_unique<ShardingDataSource>(core::RuntimeConfig(),
                                                net::NetworkConfig::Zero());
    for (int i = 0; i < 2; ++i) {
      c.nodes.push_back(
          std::make_unique<engine::StorageNode>("ds_" + std::to_string(i)));
      EXPECT_TRUE(c.ds->AttachNode(c.nodes.back()->name(), c.nodes.back().get()).ok());
    }
    core::ShardingRuleConfig config;
    config.default_data_source = "ds_0";
    for (const std::string& table :
         {std::string("t_user"), std::string("t_order")}) {
      core::TableRuleConfig t;
      t.logic_table = table;
      t.auto_resources = {"ds_0", "ds_1"};
      t.auto_sharding_count = 4;
      t.table_strategy.columns = {"uid"};
      t.table_strategy.algorithm_type = "MOD";
      t.table_strategy.props.Set("sharding-count", "4");
      config.tables.push_back(std::move(t));
    }
    EXPECT_TRUE(c.ds->SetRule(std::move(config)).ok());
    c.conn = c.ds->GetConnection();
    Must(c, "CREATE TABLE t_user (uid BIGINT PRIMARY KEY, name VARCHAR(64), "
            "age INT, score DOUBLE)");
    Must(c, "CREATE TABLE t_order (oid BIGINT PRIMARY KEY, uid BIGINT, "
            "amount DOUBLE, month INT)");
    Must(c, "CREATE INDEX idx_order_uid ON t_order (uid)");
    for (int uid = 0; uid < 16; ++uid) {
      Must(c, StrFormat("INSERT INTO t_user (uid, name, age, score) VALUES "
                        "(%d, 'u%d', %d, %d.5)",
                        uid, uid, 20 + uid % 7, uid % 5));
    }
    for (int oid = 0; oid < 32; ++oid) {
      Must(c, StrFormat("INSERT INTO t_order (oid, uid, amount, month) VALUES "
                        "(%d, %d, %d.25, %d)",
                        oid, oid % 16, 10 + oid, 1 + oid % 12));
    }
    return c;
  }

  static void Must(Cluster& c, const std::string& sql) {
    auto r = c.conn->ExecuteSQL(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << " for " << sql;
  }

  /// Serializes the full cluster-visible contents of both tables.
  static std::string Fingerprint(Cluster& c) {
    std::string out;
    for (const char* sql :
         {"SELECT uid, name, age, score FROM t_user ORDER BY uid",
          "SELECT oid, uid, amount, month FROM t_order ORDER BY oid"}) {
      auto rs = c.conn->ExecuteQuery(sql);
      EXPECT_TRUE(rs.ok()) << rs.status().ToString();
      if (!rs.ok()) return out;
      while (rs->Next()) {
        for (const Value& v : rs->row()) {
          out += v.ToString();
          out += '|';
        }
        out += '\n';
      }
    }
    return out;
  }

  /// Replays `script` on a fresh cluster (seeding included).
  static Replay Run(const std::vector<Step>& script) {
    Cluster c = MakeCluster();
    Replay replay;
    for (const Step& step : script) {
      auto r = c.conn->ExecuteSQL(step.sql, step.params);
      if (!r.ok()) {
        EXPECT_TRUE(step.may_fail)
            << "unexpected failure at '" << step.sql
            << "': " << r.status().ToString();
        replay.counts.push_back(-1);
        continue;
      }
      replay.counts.push_back(r->is_query ? 0 : r->affected_rows);
    }
    replay.fingerprint = Fingerprint(c);
    return replay;
  }

  /// The core assertion: the replay matches the golden record `name`
  /// (default: the running test's name) byte for byte.
  static void ExpectMatchesGolden(const std::vector<Step>& script,
                                  std::string name = "") {
    if (name.empty()) {
      name = ::testing::UnitTest::GetInstance()->current_test_info()->name();
    }
    golden::ExpectMatchesRecord(SPHERE_WRITE_LANE_GOLDEN, name,
                                Run(script).Serialize());
  }
};

TEST_F(WriteLaneTest, InsertShapes) {
  ExpectMatchesGolden({
      {"INSERT INTO t_user (uid, name, age, score) VALUES (100, 'new', 30, 1.0)", {}},
      // Multi-row insert scattering across shards and data sources.
      {"INSERT INTO t_user (uid, name, age, score) VALUES "
       "(101, 'a', 1, 0.5), (102, 'b', 2, 1.5), (103, 'c', 3, 2.5)", {}},
      // Parameterized rows, including expressions over parameters.
      {"INSERT INTO t_order (oid, uid, amount, month) VALUES (?, ?, ? + 1, ?)",
       {Value(200), Value(5), Value(9.0), Value(6)}},
      {"INSERT INTO t_order (oid, uid, amount, month) VALUES (?, ?, ?, ?), (?, ?, ?, ?)",
       {Value(201), Value(3), Value(1.0), Value(2),
        Value(202), Value(4), Value(2.0), Value(3)}},
  });
}

TEST_F(WriteLaneTest, PointAndRangeUpdates) {
  ExpectMatchesGolden({
      // Point by sharding key (single shard, PK fast path).
      {"UPDATE t_user SET score = score + 1 WHERE uid = 7", {}},
      {"UPDATE t_user SET name = ? WHERE uid = ?", {Value("renamed"), Value(3)}},
      // Secondary-index equality (several rows on one shard).
      {"UPDATE t_order SET amount = amount * 2 WHERE uid = 5", {}},
      // Range predicate: broadcast to every shard, scan path.
      {"UPDATE t_user SET age = age + 1 WHERE uid BETWEEN 4 AND 11", {}},
      // Predicate on an unindexed column.
      {"UPDATE t_order SET month = 12 WHERE amount > ?", {Value(35.0)}},
      // No-match update.
      {"UPDATE t_user SET score = 0 WHERE uid = 999", {}},
  });
}

TEST_F(WriteLaneTest, PointAndRangeDeletes) {
  ExpectMatchesGolden({
      {"DELETE FROM t_order WHERE oid = 9", {}},
      {"DELETE FROM t_order WHERE uid = ?", {Value(11)}},
      {"DELETE FROM t_user WHERE uid IN (2, 6, 999)", {}},
      {"DELETE FROM t_order WHERE amount > 38.0", {}},
      {"DELETE FROM t_user WHERE uid = 12345", {}},
  });
}

TEST_F(WriteLaneTest, TransactionsCommitAndRollback) {
  ExpectMatchesGolden({
      {"BEGIN", {}},
      {"UPDATE t_user SET score = score + 10 WHERE uid = 1", {}},
      {"UPDATE t_user SET score = score - 10 WHERE uid = 2", {}},
      {"INSERT INTO t_order (oid, uid, amount, month) VALUES (300, 1, 5.0, 7)", {}},
      {"COMMIT", {}},
      {"BEGIN", {}},
      {"DELETE FROM t_order WHERE uid = 1", {}},
      {"UPDATE t_user SET name = 'gone' WHERE uid BETWEEN 0 AND 15", {}},
      {"ROLLBACK", {}},
  });
}

TEST_F(WriteLaneTest, MidStatementFailureIsAtomicEverywhere) {
  ExpectMatchesGolden({
      // Second row collides with seeded uid=5: the whole statement must be a
      // no-op.
      {"INSERT INTO t_user (uid, name, age, score) VALUES "
       "(110, 'ok', 1, 1.0), (5, 'dup', 2, 2.0)", {}, /*may_fail=*/true},
      // And inside an explicit transaction followed by rollback.
      {"BEGIN", {}},
      {"INSERT INTO t_user (uid, name, age, score) VALUES "
       "(111, 'ok', 1, 1.0), (6, 'dup', 2, 2.0)", {}, /*may_fail=*/true},
      {"INSERT INTO t_user (uid, name, age, score) VALUES (112, 'kept', 3, 3.0)", {}},
      {"ROLLBACK", {}},
  });
}

TEST_F(WriteLaneTest, RandomizedDifferential) {
  Rng rng(20260807);
  for (int round = 0; round < 8; ++round) {
    std::vector<Step> script;
    bool in_txn = false;
    int next_uid = 500 + round * 100;
    int next_oid = 5000 + round * 100;
    int steps = static_cast<int>(rng.Uniform(6, 14));
    for (int s = 0; s < steps; ++s) {
      switch (rng.Uniform(0, 7)) {
        case 0:
          script.push_back({StrFormat(
              "INSERT INTO t_user (uid, name, age, score) VALUES (%d, 'r', %d, %d.0)",
              next_uid++, static_cast<int>(rng.Uniform(18, 60)),
              static_cast<int>(rng.Uniform(0, 9)))});
          break;
        case 1:
          script.push_back(
              {"INSERT INTO t_order (oid, uid, amount, month) VALUES (?, ?, ?, ?)",
               {Value(next_oid++), Value(rng.Uniform(0, 15)),
                Value(static_cast<double>(rng.Uniform(1, 99))),
                Value(rng.Uniform(1, 12))}});
          break;
        case 2:
          script.push_back({"UPDATE t_user SET score = score + 1 WHERE uid = ?",
                            {Value(rng.Uniform(0, 15))}});
          break;
        case 3:
          script.push_back({StrFormat(
              "UPDATE t_order SET amount = amount + 0.5 WHERE uid = %d",
              static_cast<int>(rng.Uniform(0, 15)))});
          break;
        case 4:
          script.push_back({StrFormat(
              "UPDATE t_user SET age = age + 1 WHERE uid BETWEEN %d AND %d",
              static_cast<int>(rng.Uniform(0, 7)),
              static_cast<int>(rng.Uniform(8, 15)))});
          break;
        case 5:
          script.push_back({"DELETE FROM t_order WHERE oid = ?",
                            {Value(rng.Uniform(0, 31))}});
          break;
        case 6:
          script.push_back({StrFormat("DELETE FROM t_order WHERE uid = %d",
                                      static_cast<int>(rng.Uniform(0, 15)))});
          break;
        default:
          if (in_txn) {
            script.push_back({rng.Uniform(0, 1) == 0 ? "COMMIT" : "ROLLBACK"});
            in_txn = false;
          } else {
            script.push_back({"BEGIN"});
            in_txn = true;
          }
          break;
      }
    }
    if (in_txn) script.push_back({"COMMIT"});
    ExpectMatchesGolden(script,
                        "RandomizedDifferential/round" + std::to_string(round));
  }
}

TEST_F(WriteLaneTest, MemoryDisciplineKnobsAreBehaviorNeutral) {
  // Statement arenas and pooled batches must stay invisible in per-step
  // counts and final state — including mid-transaction rollback, where arena
  // scopes nest across the runtime and the storage nodes. Recorded with every
  // arena/pooling combination agreeing.
  const std::vector<Step> script = {
      {"INSERT INTO t_user (uid, name, age, score) VALUES (700, 'm', 31, 2.5)"},
      {"INSERT INTO t_order (oid, uid, amount, month) VALUES (?, ?, ?, ?)",
       {Value(int64_t{7000}), Value(int64_t{700}), Value(12.25),
        Value(int64_t{6})}},
      {"BEGIN"},
      {"UPDATE t_user SET score = score + 1 WHERE uid = ?",
       {Value(int64_t{700})}},
      {"ROLLBACK"},
      {"UPDATE t_order SET amount = amount + 0.5 WHERE uid = 700"},
      {"DELETE FROM t_order WHERE oid = ?", {Value(int64_t{7000})}},
      {"SELECT uid, score FROM t_user WHERE uid = 700"},
  };
  ExpectMatchesGolden(script);
}

// ---------------------------------------------------------------------------
// Parse-cache accounting: no unit is parsed on a node.
// ---------------------------------------------------------------------------

TEST_F(WriteLaneTest, StructuredLaneNeverParsesOnNodes) {
  Cluster c = MakeCluster();
  int64_t misses_before = 0, hits_before = 0;
  for (auto& n : c.nodes) {
    misses_before += n->parse_cache_misses();
    hits_before += n->parse_cache_hits();
  }
  // Repeated prepared INSERTs ship ASTs, so the node parse cache is never
  // even consulted.
  for (int i = 0; i < 20; ++i) {
    auto r = c.conn->ExecuteSQL(
        "INSERT INTO t_order (oid, uid, amount, month) VALUES (?, ?, ?, ?)",
        {Value(1000 + i), Value(i % 16), Value(1.0 * i), Value(1 + i % 12)});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // DDL units carry their AST too: a sharded CREATE INDEX fans out to all
  // four actual tables without a single node-side parse.
  auto ddl = c.conn->ExecuteSQL("CREATE INDEX idx_order_month ON t_order (month)");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  int64_t indexed = 0;
  for (auto& n : c.nodes) {
    for (const std::string& name : n->database()->TableNames()) {
      const storage::Table* table = n->database()->FindTable(name);
      int month = table->schema().IndexOf("month");
      if (month >= 0 && table->FindIndexOn(month) != nullptr) ++indexed;
    }
  }
  EXPECT_EQ(indexed, 4);
  int64_t misses_after = 0, hits_after = 0;
  for (auto& n : c.nodes) {
    misses_after += n->parse_cache_misses();
    hits_after += n->parse_cache_hits();
  }
  EXPECT_EQ(misses_after, misses_before);
  EXPECT_EQ(hits_after, hits_before);
}

// ---------------------------------------------------------------------------
// Prepared-statement batch API.
// ---------------------------------------------------------------------------

TEST_F(WriteLaneTest, PreparedBatchExecutesAllEntries) {
  Cluster c = MakeCluster();
  auto ps = c.conn->PrepareStatement(
      "INSERT INTO t_order (oid, uid, amount, month) VALUES (?, ?, ?, ?)");
  ASSERT_TRUE(ps.ok()) << ps.status().ToString();
  for (int i = 0; i < 5; ++i) {
    (*ps)->SetInt(1, 4000 + i);
    (*ps)->SetInt(2, i);
    (*ps)->SetDouble(3, 1.5 * i);
    (*ps)->SetInt(4, 1 + i);
    (*ps)->AddBatch();
  }
  EXPECT_EQ((*ps)->batch_size(), 5u);
  auto counts = (*ps)->ExecuteBatch();
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  EXPECT_EQ(counts->size(), 5u);
  for (int64_t n : *counts) EXPECT_EQ(n, 1);
  EXPECT_EQ((*ps)->batch_size(), 0u);
  auto rs = c.conn->ExecuteQuery(
      "SELECT COUNT(*) FROM t_order WHERE oid >= 4000");
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rs->Next());
  EXPECT_EQ(rs->GetInt(0), 5);
}

}  // namespace
}  // namespace sphere::adaptor
