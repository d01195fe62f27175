// Structured SELECT and DDL units (DESIGN.md §10): the AST a unit carries
// must run on the node exactly like its rendered text — same labels, same
// rows, same schema, and the bytes and messages the real encoders produce on
// the modeled wire.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rewrite.h"
#include "core/route.h"
#include "net/packet.h"
#include "sql/parser.h"
#include "storage/table.h"
#include "tests/core/test_cluster.h"

namespace sphere::core {
namespace {

using testing::TestCluster;

/// What one execution returned, in a comparable form.
struct Outcome {
  bool ok = false;
  std::string error;
  std::vector<std::string> labels;
  std::vector<Row> rows;
  int64_t affected = 0;
};

Outcome Capture(Result<engine::ExecResult> r) {
  Outcome out;
  out.ok = r.ok();
  if (!r.ok()) {
    out.error = r.status().ToString();
    return out;
  }
  if (r->is_query) {
    out.labels = r->result_set->columns();
    out.rows = engine::DrainResultSet(r->result_set.get());
  } else {
    out.affected = r->affected_rows;
  }
  return out;
}

void ExpectSameOutcome(const Outcome& text, const Outcome& ast,
                       const std::string& what) {
  EXPECT_EQ(text.ok, ast.ok) << what;
  EXPECT_EQ(text.error, ast.error) << what;
  EXPECT_EQ(text.labels, ast.labels) << what;
  EXPECT_EQ(text.rows, ast.rows) << what;
  EXPECT_EQ(text.affected, ast.affected) << what;
}

/// 4 nodes, t_user and t_order MOD-sharded by uid into `shards` tables
/// (binding group on), 24 users with 2 orders each.
class StructuredUnitTest : public ::testing::Test {
 protected:
  void SetUpCluster(int shards) {
    ASSERT_TRUE(cluster_.InstallModRule(shards, /*bind_user_order=*/true).ok());
    ASSERT_TRUE(cluster_.CreateUserOrderSchemas().ok());
    for (int uid = 0; uid < 24; ++uid) {
      ASSERT_TRUE(cluster_.runtime()
                      ->Execute("INSERT INTO t_user (uid, name, age, score) "
                                "VALUES (?, ?, ?, ?)",
                                {Value(uid), Value("u" + std::to_string(uid)),
                                 Value(20 + uid % 5), Value(0.5 * uid)})
                      .ok());
      for (int k = 0; k < 2; ++k) {
        ASSERT_TRUE(cluster_.runtime()
                        ->Execute("INSERT INTO t_order (oid, uid, amount, month) "
                                  "VALUES (?, ?, ?, ?)",
                                  {Value(100 * uid + k), Value(uid),
                                   Value(1.5 * (uid + k)), Value(1 + k)})
                        .ok());
      }
    }
  }

  /// Routes and rewrites `sql_text` the way the runtime does.
  RewriteResult Rewrite(const std::string& sql_text,
                        const std::vector<Value>& params) {
    auto stmt = sql::ParseSQL(sql_text);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    if (!stmt.ok()) return {};
    auto route = cluster_.runtime()->PreviewRoute(**stmt, params);
    EXPECT_TRUE(route.ok()) << route.status().ToString();
    if (!route.ok()) return {};
    auto rewritten = RewriteEngine(cluster_.runtime()->dialect())
                         .Rewrite(**stmt, *route, params);
    EXPECT_TRUE(rewritten.ok()) << rewritten.status().ToString();
    return rewritten.ok() ? std::move(rewritten).value() : RewriteResult{};
  }

  net::DataSource* SourceOf(const SQLUnit& unit) {
    net::DataSource* ds =
        cluster_.runtime()->data_sources()->Find(unit.data_source);
    EXPECT_NE(ds, nullptr) << unit.data_source;
    return ds;
  }

  TestCluster cluster_{4};
};

// ---------- Rewrite round trip: running the AST == running the text ----------

TEST_F(StructuredUnitTest, EverySelectShapeRunsItsAstLikeItsText) {
  SetUpCluster(8);
  struct Case {
    const char* sql;
    std::vector<Value> params;
  };
  const std::vector<Case> cases = {
      // AVG -> SUM/COUNT derivation.
      {"SELECT AVG(score), COUNT(*) FROM t_user", {}},
      // GROUP BY without ORDER BY: the merger hash-folds the groups.
      {"SELECT age, COUNT(*), MAX(score) FROM t_user GROUP BY age", {}},
      // GROUP BY key outside the select list (derived column).
      {"SELECT COUNT(*) FROM t_user GROUP BY age", {}},
      // ORDER BY column outside the select list (derived column).
      {"SELECT name FROM t_user ORDER BY score DESC", {}},
      // LIMIT revision: each node returns offset+count rows.
      {"SELECT uid, name FROM t_user ORDER BY uid LIMIT 3, 5", {}},
      {"SELECT uid FROM t_user ORDER BY uid LIMIT 4", {}},
      {"SELECT DISTINCT age FROM t_user", {}},
      {"SELECT * FROM t_user WHERE uid > 3", {}},
      // Binding join: u/o aliases, actual tables renamed per unit.
      {"SELECT u.name, o.amount FROM t_user u JOIN t_order o "
       "ON u.uid = o.uid WHERE u.uid IN (1, 2, 3) ORDER BY o.oid",
       {}},
      // BETWEEN / IN / OR predicates, literal and bound.
      {"SELECT uid FROM t_user WHERE uid BETWEEN 2 AND 9 OR uid IN (11, 13) "
       "OR age = 21",
       {}},
      {"SELECT uid, score FROM t_user WHERE uid IN (?, ?) OR age > ?",
       {Value(5), Value(6), Value(23)}},
      // Expression labels and a single-unit route.
      {"SELECT uid + 1, UPPER(name) FROM t_user WHERE uid = 5", {}},
      {"SELECT name FROM t_user WHERE uid = ?", {Value(7)}},
  };
  for (const Case& c : cases) {
    RewriteResult rewritten = Rewrite(c.sql, c.params);
    ASSERT_FALSE(rewritten.units.empty()) << c.sql;
    for (const SQLUnit& unit : rewritten.units) {
      ASSERT_NE(unit.stmt, nullptr) << c.sql;
      EXPECT_EQ(unit.stmt->kind(), sql::StatementKind::kSelect);
      EXPECT_FALSE(unit.sql.empty()) << c.sql;
      engine::StorageNode* node = SourceOf(unit)->node();
      auto session = node->OpenSession();
      Outcome text = Capture(session->Execute(unit.sql, unit.params));
      Outcome ast = Capture(session->ExecuteStatement(*unit.stmt, unit.params));
      ASSERT_TRUE(text.ok) << unit.sql << ": " << text.error;
      ExpectSameOutcome(text, ast, unit.sql);
    }
  }
}

TEST_F(StructuredUnitTest, SelectUnitsNeverTouchTheNodeParseCache) {
  SetUpCluster(8);
  int64_t before = 0;
  for (int i = 0; i < cluster_.num_nodes(); ++i) {
    engine::StorageNode* n = cluster_.node(i);
    before += n->parse_cache_hits() + n->parse_cache_misses();
  }
  auto r = cluster_.runtime()->Execute(
      "SELECT age, COUNT(*) FROM t_user WHERE uid > 2 GROUP BY age");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto point =
      cluster_.runtime()->Execute("SELECT name FROM t_user WHERE uid = ?",
                                  {Value(4)});
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  int64_t after = 0;
  for (int i = 0; i < cluster_.num_nodes(); ++i) {
    engine::StorageNode* n = cluster_.node(i);
    after += n->parse_cache_hits() + n->parse_cache_misses();
  }
  EXPECT_EQ(after, before);
}

// ---------- DDL round trip: running the AST == running the text ----------

/// Every table of `node`: columns (type, key flags, covering index) and the
/// live row count, in table-name order.
std::string DescribeSchema(engine::StorageNode* node) {
  std::string out;
  for (const std::string& name : node->database()->TableNames()) {
    const storage::Table* table = node->database()->FindTable(name);
    out += name + "(";
    for (size_t i = 0; i < table->schema().size(); ++i) {
      const Column& c = table->schema().column(i);
      out += c.name + ":" + std::to_string(static_cast<int>(c.type));
      if (c.primary_key) out += " pk";
      if (c.not_null) out += " not_null";
      if (const storage::SecondaryIndex* idx =
              table->FindIndexOn(static_cast<int>(i))) {
        out += " index=" + idx->name();
      }
      out += ",";
    }
    out += ") rows=" + std::to_string(table->row_count()) + "\n";
  }
  return out;
}

TEST_F(StructuredUnitTest, EveryDdlUnitRunsItsAstLikeItsText) {
  SetUpCluster(8);
  // Every non-SELECT, non-DML kind the rewriter's default branch receives,
  // replayed in order so each one finds the table state it needs.
  const std::vector<std::string> ddl = {
      "CREATE TABLE t_user (uid BIGINT PRIMARY KEY, name VARCHAR(64) NOT NULL, "
      "age INT, score DOUBLE)",
      "CREATE TABLE IF NOT EXISTS t_user (uid BIGINT PRIMARY KEY)",
      "CREATE INDEX idx_user_age ON t_user (age)",
      "TRUNCATE TABLE t_user",
      "DROP TABLE t_user",
      "DROP TABLE IF EXISTS t_user",
  };
  std::vector<RewriteResult> rewritten;
  for (const std::string& text : ddl) {
    rewritten.push_back(Rewrite(text, {}));
    ASSERT_EQ(rewritten.back().units.size(), 8u) << text;
  }
  for (size_t u = 0; u < 8; ++u) {
    engine::StorageNode ast_node("ast");
    engine::StorageNode text_node("text");
    auto ast_session = ast_node.OpenSession();
    auto text_session = text_node.OpenSession();
    for (size_t k = 0; k < rewritten.size(); ++k) {
      const SQLUnit& unit = rewritten[k].units[u];
      ASSERT_NE(unit.stmt, nullptr) << ddl[k];
      ASSERT_FALSE(unit.sql.empty()) << ddl[k];
      Outcome via_text = Capture(text_session->Execute(unit.sql, unit.params));
      Outcome via_ast =
          Capture(ast_session->ExecuteStatement(*unit.stmt, unit.params));
      ASSERT_TRUE(via_text.ok) << unit.sql << ": " << via_text.error;
      ExpectSameOutcome(via_text, via_ast, unit.sql);
      EXPECT_EQ(DescribeSchema(&ast_node), DescribeSchema(&text_node))
          << unit.sql;
      if (k == 0) {
        // Rows for TRUNCATE to remove and CREATE INDEX to cover.
        const auto& create =
            static_cast<const sql::CreateTableStatement&>(*unit.stmt);
        std::string insert = "INSERT INTO " + create.table +
                             " (uid, name, age, score) VALUES "
                             "(1, 'a', 20, 1.5), (2, 'b', 21, 2.5)";
        ASSERT_TRUE(ast_session->Execute(insert).ok());
        ASSERT_TRUE(text_session->Execute(insert).ok());
      }
    }
    EXPECT_TRUE(ast_node.database()->TableNames().empty());
  }
}

// ---------- Wire price: the AST path charges exactly the text path ----------

/// Runs every unit of `rewritten` through RemoteConnection::ExecuteStatement
/// and checks the modeled bytes against the real encoders: the request packet
/// EncodeQuery builds for the unit's text plus the response packet that
/// encoding the same statement's result (or error) produces. The decoded
/// response is also the reference for the returned labels/rows/errors.
void ExpectWireIdentity(TestCluster* cluster, const RewriteResult& rewritten,
                        size_t want_units, bool want_ok,
                        const std::string& what) {
  ASSERT_EQ(rewritten.units.size(), want_units) << what;
  const net::LatencyModel& wire = cluster->runtime()->network();
  for (const SQLUnit& unit : rewritten.units) {
    ASSERT_NE(unit.stmt, nullptr) << what;
    net::DataSource* ds =
        cluster->runtime()->data_sources()->Find(unit.data_source);
    ASSERT_NE(ds, nullptr);

    auto session = ds->node()->OpenSession();
    Result<engine::ExecResult> ref = session->Execute(unit.sql, unit.params);
    std::string response = ref.ok() ? net::EncodeExecResult(&ref.value())
                                    : net::EncodeError(ref.status());
    const int64_t want_bytes = static_cast<int64_t>(
        net::EncodeQuery(unit.sql, unit.params).size() + response.size());
    Outcome text = Capture(net::DecodeResponse(response));

    net::ConnectionPool::Lease lease = ds->pool().Acquire();
    int64_t bytes0 = wire.bytes_transferred();
    int64_t msgs0 = wire.messages();
    Outcome ast =
        Capture(lease->ExecuteStatement(*unit.stmt, unit.sql, unit.params));
    int64_t ast_bytes = wire.bytes_transferred() - bytes0;
    int64_t ast_msgs = wire.messages() - msgs0;

    EXPECT_EQ(text.ok, want_ok) << what << ": " << text.error;
    EXPECT_EQ(ast_bytes, want_bytes) << what;
    EXPECT_EQ(ast_msgs, 2) << what;
    ExpectSameOutcome(text, ast, what);
  }
}

TEST_F(StructuredUnitTest, WirePriceSingleUnitSelect) {
  SetUpCluster(40);
  ExpectWireIdentity(
      &cluster_,
      Rewrite("SELECT uid, name, score FROM t_user WHERE uid = ?", {Value(9)}),
      1, true, "single-unit select");
}

TEST_F(StructuredUnitTest, WirePriceFortyUnitScatter) {
  SetUpCluster(40);
  ExpectWireIdentity(
      &cluster_,
      Rewrite("SELECT uid, AVG(score) FROM t_user WHERE uid BETWEEN 1 AND 100 "
              "GROUP BY uid ORDER BY uid LIMIT 2, 10",
              {}),
      40, true, "40-unit scatter");
}

TEST_F(StructuredUnitTest, WirePriceEmptyResult) {
  SetUpCluster(40);
  ExpectWireIdentity(&cluster_,
                     Rewrite("SELECT name FROM t_user WHERE age > 1000", {}),
                     40, true, "empty result");
}

TEST_F(StructuredUnitTest, WirePriceFailingStatement) {
  SetUpCluster(40);
  // Parses and routes, then fails on the node: the column does not exist.
  ExpectWireIdentity(&cluster_,
                     Rewrite("SELECT nope FROM t_user WHERE uid = 3", {}), 1,
                     false, "failing statement");
}

}  // namespace
}  // namespace sphere::core
