#include "distsql/distsql.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "adaptor/jdbc.h"
#include "common/trace.h"
#include "engine/pipeline.h"
#include "governor/health.h"

namespace sphere::distsql {
namespace {

using adaptor::ShardingConnection;
using adaptor::ShardingDataSource;

class DistSQLTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = std::make_unique<ShardingDataSource>(core::RuntimeConfig(),
                                               net::NetworkConfig::Zero());
    for (int i = 0; i < 2; ++i) {
      nodes_.push_back(
          std::make_unique<engine::StorageNode>("ds_" + std::to_string(i)));
      ASSERT_TRUE(ds_->AttachNode(nodes_.back()->name(), nodes_.back().get()).ok());
    }
    conn_ = ds_->GetConnection();
  }

  engine::ExecResult Exec(const std::string& sql_text) {
    auto r = conn_->ExecuteSQL(sql_text);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << sql_text;
    return r.ok() ? std::move(r).value() : engine::ExecResult{};
  }

  std::vector<Row> Rows(engine::ExecResult r) {
    EXPECT_TRUE(r.is_query);
    return r.result_set ? engine::DrainResultSet(r.result_set.get())
                        : std::vector<Row>{};
  }

  std::unique_ptr<ShardingDataSource> ds_;
  std::vector<std::unique_ptr<engine::StorageNode>> nodes_;
  std::unique_ptr<ShardingConnection> conn_;
};

TEST_F(DistSQLTest, IsDistSQLRecognizer) {
  EXPECT_TRUE(DistSQLEngine::IsDistSQL("CREATE SHARDING TABLE RULE t (...)"));
  EXPECT_TRUE(DistSQLEngine::IsDistSQL("show sharding table rules"));
  EXPECT_TRUE(DistSQLEngine::IsDistSQL("SET VARIABLE transaction_type = XA"));
  EXPECT_TRUE(DistSQLEngine::IsDistSQL("PREVIEW SELECT 1"));
  EXPECT_FALSE(DistSQLEngine::IsDistSQL("SELECT * FROM t"));
  EXPECT_FALSE(DistSQLEngine::IsDistSQL("SET autocommit = 0"));
}

TEST_F(DistSQLTest, AutoTableEndToEnd) {
  // The paper's §V-A flow: one RDL statement defines the rule; a logical
  // CREATE TABLE then materializes the physical tables everywhere.
  Exec("CREATE SHARDING TABLE RULE t_user_h (RESOURCES(ds_0, ds_1), "
       "SHARDING_COLUMN=uid, TYPE=hash_mod, PROPERTIES(\"sharding-count\"=2))");
  Exec("CREATE TABLE t_user_h (uid BIGINT PRIMARY KEY, name VARCHAR(32))");
  // AutoTable computed t_user_h_0 -> ds_0, t_user_h_1 -> ds_1.
  EXPECT_NE(nodes_[0]->database()->FindTable("t_user_h_0"), nullptr);
  EXPECT_NE(nodes_[1]->database()->FindTable("t_user_h_1"), nullptr);
  EXPECT_EQ(nodes_[0]->database()->FindTable("t_user_h_1"), nullptr);

  Exec("INSERT INTO t_user_h (uid, name) VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  auto rows = Rows(Exec("SELECT COUNT(*) FROM t_user_h"));
  EXPECT_EQ(rows[0][0], Value(3));
}

TEST_F(DistSQLTest, CreateDuplicateRuleRejected) {
  Exec("CREATE SHARDING TABLE RULE t (RESOURCES(ds_0), SHARDING_COLUMN=id, "
       "TYPE=mod, PROPERTIES(\"sharding-count\"=2))");
  auto r = conn_->ExecuteSQL(
      "CREATE SHARDING TABLE RULE t (RESOURCES(ds_0), SHARDING_COLUMN=id, "
      "TYPE=mod, PROPERTIES(\"sharding-count\"=2))");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(DistSQLTest, AlterRuleChangesShardCount) {
  Exec("CREATE SHARDING TABLE RULE t (RESOURCES(ds_0, ds_1), "
       "SHARDING_COLUMN=id, TYPE=mod, PROPERTIES(\"sharding-count\"=2))");
  Exec("ALTER SHARDING TABLE RULE t (RESOURCES(ds_0, ds_1), "
       "SHARDING_COLUMN=id, TYPE=mod, PROPERTIES(\"sharding-count\"=4))");
  ASSERT_NE(ds_->runtime()->rule()->FindTableRule("t"), nullptr);
  EXPECT_EQ(ds_->runtime()->rule()->FindTableRule("t")->actual_nodes().size(), 4u);
  auto r = conn_->ExecuteSQL(
      "ALTER SHARDING TABLE RULE missing (RESOURCES(ds_0), SHARDING_COLUMN=id, "
      "TYPE=mod, PROPERTIES(\"sharding-count\"=2))");
  EXPECT_FALSE(r.ok());
}

TEST_F(DistSQLTest, DropRule) {
  Exec("CREATE SHARDING TABLE RULE t (RESOURCES(ds_0), SHARDING_COLUMN=id, "
       "TYPE=mod, PROPERTIES(\"sharding-count\"=2))");
  Exec("DROP SHARDING TABLE RULE t");
  EXPECT_EQ(ds_->runtime()->rule()->FindTableRule("t"), nullptr);
  EXPECT_FALSE(conn_->ExecuteSQL("DROP SHARDING TABLE RULE t").ok());
}

TEST_F(DistSQLTest, BindingRulesThroughDistSQL) {
  Exec("CREATE SHARDING TABLE RULE t_user (RESOURCES(ds_0, ds_1), "
       "SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES(\"sharding-count\"=4))");
  Exec("CREATE SHARDING TABLE RULE t_order (RESOURCES(ds_0, ds_1), "
       "SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES(\"sharding-count\"=4))");
  Exec("CREATE SHARDING BINDING TABLE RULES (t_user, t_order)");
  EXPECT_TRUE(ds_->runtime()->rule()->IsBinding("t_user", "t_order"));
  auto rows = Rows(Exec("SHOW BINDING TABLE RULES"));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value("t_user,t_order"));
}

TEST_F(DistSQLTest, BroadcastRule) {
  Exec("CREATE BROADCAST TABLE RULE t_dict");
  EXPECT_TRUE(ds_->runtime()->rule()->IsBroadcastTable("t_dict"));
  auto rows = Rows(Exec("SHOW BROADCAST TABLE RULES"));
  ASSERT_EQ(rows.size(), 1u);
}

TEST_F(DistSQLTest, ShowShardingTableRules) {
  Exec("CREATE SHARDING TABLE RULE t_user (RESOURCES(ds_0, ds_1), "
       "SHARDING_COLUMN=uid, TYPE=hash_mod, PROPERTIES(\"sharding-count\"=2), "
       "KEY_GENERATE_STRATEGY(COLUMN=uid, TYPE=SNOWFLAKE))");
  auto rows = Rows(Exec("SHOW SHARDING TABLE RULES"));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value("t_user"));
  EXPECT_NE(rows[0][3].ToString().find("HASH_MOD"), std::string::npos);
  EXPECT_NE(rows[0][4].ToString().find("SNOWFLAKE"), std::string::npos);
  EXPECT_NE(rows[0][5].ToString().find("ds_0.t_user_0"), std::string::npos);
}

TEST_F(DistSQLTest, ShowAlgorithmsAndStorageUnits) {
  auto algos = Rows(Exec("SHOW SHARDING ALGORITHMS"));
  EXPECT_GE(algos.size(), 10u);
  auto units = Rows(Exec("SHOW STORAGE UNITS"));
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0][0], Value("ds_0"));
}

TEST_F(DistSQLTest, SetAndShowVariable) {
  Exec("SET VARIABLE transaction_type = XA");
  auto rows = Rows(Exec("SHOW VARIABLE transaction_type"));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value("XA"));
  Exec("SET VARIABLE max_connections_per_query = 7");
  EXPECT_EQ(ds_->runtime()->max_connections_per_query(), 7);
}

TEST_F(DistSQLTest, PreviewShowsRouteAndRewrite) {
  Exec("CREATE SHARDING TABLE RULE t_user (RESOURCES(ds_0, ds_1), "
       "SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES(\"sharding-count\"=4))");
  auto rows = Rows(Exec("PREVIEW SELECT * FROM t_user WHERE uid IN (1, 2)"));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_NE(rows[0][1].ToString().find("t_user_"), std::string::npos);
}

TEST_F(DistSQLTest, SetDefaultStorageUnit) {
  Exec("CREATE SHARDING TABLE RULE t (RESOURCES(ds_0), SHARDING_COLUMN=id, "
       "TYPE=mod, PROPERTIES(\"sharding-count\"=1))");
  Exec("SET DEFAULT STORAGE UNIT ds_1");
  Exec("CREATE TABLE plain (id INT PRIMARY KEY)");
  EXPECT_NE(nodes_[1]->database()->FindTable("plain"), nullptr);
  EXPECT_EQ(nodes_[0]->database()->FindTable("plain"), nullptr);
}

TEST_F(DistSQLTest, MalformedDistSQLRejected) {
  EXPECT_FALSE(conn_->ExecuteSQL("CREATE SHARDING TABLE RULE").ok());
  EXPECT_FALSE(conn_->ExecuteSQL(
                   "CREATE SHARDING TABLE RULE t (NONSENSE(1))").ok());
  EXPECT_FALSE(conn_->ExecuteSQL(
                   "CREATE SHARDING TABLE RULE t (SHARDING_COLUMN=id)").ok());
}

// ---------------------------------------------------------------------------
// Observability surface: SHOW METRICS / TRACE (DESIGN.md §13)
// ---------------------------------------------------------------------------

std::vector<std::string> Column0(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(r[0].ToString());
  return out;
}

bool AnyStartsWith(const std::vector<std::string>& names,
                   const std::string& prefix) {
  for (const std::string& n : names) {
    if (n.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

TEST_F(DistSQLTest, IsDistSQLRecognizesObservabilityStatements) {
  EXPECT_TRUE(DistSQLEngine::IsDistSQL("SHOW METRICS"));
  EXPECT_TRUE(DistSQLEngine::IsDistSQL("show metrics like 'cache%'"));
  EXPECT_TRUE(DistSQLEngine::IsDistSQL("TRACE SELECT * FROM t"));
  EXPECT_FALSE(DistSQLEngine::IsDistSQL("TRACEROUTE"));
}

TEST_F(DistSQLTest, ShowMetricsListsSubsystemMetrics) {
  Exec("CREATE SHARDING TABLE RULE t_user (RESOURCES(ds_0, ds_1), "
       "SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES(\"sharding-count\"=2))");
  Exec("CREATE TABLE t_user (uid BIGINT PRIMARY KEY, name VARCHAR(32))");
  Exec("INSERT INTO t_user (uid, name) VALUES (1, 'a'), (2, 'b')");
  // A forced TRACE guarantees the stage.* histograms exist regardless of the
  // sampling interval other tests have consumed.
  Exec("TRACE SELECT * FROM t_user");
  // Health gauges ride along via the governor's probe publication.
  governor::HealthDetector health(/*check_interval_ms=*/1000,
                                  /*timeout_ms=*/1000);
  health.RegisterInstance("proxy_0");

  auto names = Column0(Rows(Exec("SHOW METRICS")));
  EXPECT_TRUE(AnyStartsWith(names, "statement_cache."));
  EXPECT_TRUE(AnyStartsWith(names, "node.ds_0."));
  EXPECT_TRUE(AnyStartsWith(names, "executor_pool."));
  EXPECT_TRUE(AnyStartsWith(names, "row_store."));
  EXPECT_TRUE(AnyStartsWith(names, "stage."));
  EXPECT_TRUE(AnyStartsWith(names, "health.proxy_0."));
  // Sorted output.
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST_F(DistSQLTest, ShowMetricsLikeFiltersByPattern) {
  Exec("CREATE SHARDING TABLE RULE t (RESOURCES(ds_0), SHARDING_COLUMN=id, "
       "TYPE=mod, PROPERTIES(\"sharding-count\"=1))");
  Exec("CREATE TABLE t (id INT PRIMARY KEY)");
  Exec("SELECT * FROM t");  // touches the statement cache
  auto rows = Rows(Exec("SHOW METRICS LIKE 'statement_cache.%'"));
  ASSERT_FALSE(rows.empty());
  for (const Row& r : rows) {
    EXPECT_EQ(r[0].ToString().rfind("statement_cache.", 0), 0u)
        << r[0].ToString();
  }
  // Histogram rows carry latency columns; counter rows show "-".
  auto stage = Rows(Exec("SHOW METRICS LIKE 'stage.%.latency'"));
  for (const Row& r : stage) {
    EXPECT_EQ(r[1], Value("histogram"));
    EXPECT_NE(r[4].ToString(), "-");  // p50_ms rendered numerically
  }
}

/// Captures the completed trace's structure (span names by depth).
class CountingSink : public trace::TraceSink {
 public:
  void OnTraceComplete(const trace::Trace& trace) override {
    trace.Visit([this](const trace::Span& s) {
      if (s.name == "unit") ++units_;
      if (s.name == "route") ++routes_;
    });
    ++traces_;
  }
  int units() const { return units_; }
  int routes() const { return routes_; }
  int traces() const { return traces_; }

 private:
  int units_ = 0;
  int routes_ = 0;
  int traces_ = 0;
};

TEST_F(DistSQLTest, TraceShowsSpanTreeWithPerUnitFanOut) {
  Exec("CREATE SHARDING TABLE RULE t_user (RESOURCES(ds_0, ds_1), "
       "SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES(\"sharding-count\"=2))");
  Exec("CREATE TABLE t_user (uid BIGINT PRIMARY KEY, name VARCHAR(32))");
  Exec("INSERT INTO t_user (uid, name) VALUES (1, 'a'), (2, 'b'), (3, 'c')");

  CountingSink sink;
  trace::TraceSink* prev = trace::SetTraceSink(&sink);
  // Full-route SELECT: the router fans out to both shards, so the trace must
  // contain exactly one unit span per routed unit.
  auto rows = Rows(Exec("TRACE SELECT * FROM t_user"));
  trace::SetTraceSink(prev);

  EXPECT_EQ(sink.traces(), 1);
  EXPECT_EQ(sink.routes(), 1);
  EXPECT_EQ(sink.units(), 2);  // == route fan-out over ds_0, ds_1

  // Rendered tree: root, statement, stages, and per-unit rows with the
  // data_source attribute.
  auto names = Column0(rows);
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names[0], "trace");
  int unit_rows = 0;
  bool saw_statement = false, saw_route = false, saw_merge = false;
  for (size_t i = 0; i < rows.size(); ++i) {
    std::string name = names[i];
    // Strip the depth indent.
    size_t start = name.find_first_not_of(' ');
    name = start == std::string::npos ? "" : name.substr(start);
    if (name == "unit") {
      ++unit_rows;
      EXPECT_NE(rows[i][2].ToString().find("data_source=ds_"),
                std::string::npos);
    }
    saw_statement = saw_statement || name == "statement";
    saw_route = saw_route || name == "route";
    saw_merge = saw_merge || name == "merge";
  }
  EXPECT_EQ(unit_rows, 2);
  EXPECT_TRUE(saw_statement);
  EXPECT_TRUE(saw_route);
  EXPECT_TRUE(saw_merge);
}

TEST_F(DistSQLTest, TraceWorksWhenObservabilityDisabled) {
  // TRACE force-captures: the statement scope joins the installed trace even
  // with sampling interval 0 (observability off), so explicit traces keep
  // working.
  engine::ScopedTraceSampling off(0);
  Exec("CREATE SHARDING TABLE RULE plain (RESOURCES(ds_0), "
       "SHARDING_COLUMN=id, TYPE=mod, PROPERTIES(\"sharding-count\"=1))");
  Exec("CREATE TABLE plain (id INT PRIMARY KEY)");
  Exec("INSERT INTO plain (id) VALUES (1)");
  auto rows = Rows(Exec("TRACE SELECT * FROM plain"));
  auto names = Column0(rows);
  bool saw_execute = false;
  for (const std::string& n : names) {
    saw_execute = saw_execute || n.find("execute") != std::string::npos;
  }
  EXPECT_TRUE(saw_execute);
}

}  // namespace
}  // namespace sphere::distsql
