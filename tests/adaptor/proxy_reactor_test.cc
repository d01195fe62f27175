#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adaptor/jdbc.h"
#include "adaptor/proxy.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "engine/pipeline.h"
#include "features/guard.h"

namespace sphere::adaptor {
namespace {

/// One self-contained sharded backend (2 nodes, t_user MOD-sharded 4 ways),
/// so differential tests can run the same script against two independent
/// clusters and compare byte-for-byte.
struct Cluster {
  std::unique_ptr<ShardingDataSource> ds;
  std::vector<std::unique_ptr<engine::StorageNode>> nodes;
};

Cluster MakeCluster() {
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
  core::TableRuleConfig t;
  t.logic_table = "t_user";
  t.auto_resources = {"ds_0", "ds_1"};
  t.auto_sharding_count = 4;
  t.table_strategy.columns = {"uid"};
  t.table_strategy.algorithm_type = "MOD";
  t.table_strategy.props.Set("sharding-count", "4");
  config.tables.push_back(std::move(t));
  EXPECT_TRUE(c.ds->SetRule(std::move(config)).ok());
  auto conn = c.ds->GetConnection();
  EXPECT_TRUE(conn->ExecuteSQL("CREATE TABLE t_user (uid BIGINT PRIMARY KEY, "
                               "name VARCHAR(32))")
                  .ok());
  return c;
}

/// Canonical text form of a statement outcome, so two lanes can be compared
/// exactly: status code for errors, affected counts for updates, drained
/// column/row data for queries.
std::string Describe(Result<engine::ExecResult> r) {
  if (!r.ok()) {
    return std::string("ERR:") + StatusCodeName(r.status().code());
  }
  if (!r->is_query) {
    return "UPDATE:" + std::to_string(r->affected_rows);
  }
  std::string out = "QUERY:";
  for (const std::string& col : r->result_set->columns()) {
    out += col;
    out += ',';
  }
  out += '|';
  for (const Row& row : engine::DrainResultSet(r->result_set.get())) {
    for (const Value& v : row) {
      out += v.ToString();
      out += ',';
    }
    out += ';';
  }
  return out;
}

struct Stmt {
  const char* sql;
  std::vector<Value> params;
};

/// The differential script: single-shard and multi-shard reads, broadcast
/// and routed writes, explicit transactions (rolled back and committed),
/// and an error statement — the paths where the two lanes could diverge.
std::vector<Stmt> DifferentialScript() {
  return {
      {"INSERT INTO t_user (uid, name) VALUES (1, 'ann'), (2, 'bob'), "
       "(3, 'cay'), (4, 'dan')",
       {}},
      {"SELECT name FROM t_user WHERE uid = ?", {Value(1)}},
      {"SELECT uid, name FROM t_user ORDER BY uid", {}},
      {"BEGIN", {}},
      {"INSERT INTO t_user (uid, name) VALUES (10, 'tx')", {}},
      {"ROLLBACK", {}},
      {"SELECT COUNT(*) FROM t_user", {}},
      {"BEGIN", {}},
      {"INSERT INTO t_user (uid, name) VALUES (11, 'tx2')", {}},
      {"COMMIT", {}},
      {"SELECT COUNT(*) FROM t_user", {}},
      {"SELECT * FROM nope", {}},
      {"UPDATE t_user SET name = 'upd' WHERE uid = 2", {}},
      {"SELECT name FROM t_user WHERE uid = ?", {Value(2)}},
      {"DELETE FROM t_user WHERE uid = 3", {}},
      {"SELECT uid FROM t_user ORDER BY uid", {}},
  };
}

std::vector<std::string> RunScript(ShardingProxy* proxy) {
  std::vector<std::string> out;
  auto conn = proxy->Connect();
  for (const Stmt& s : DifferentialScript()) {
    out.push_back(Describe(conn->Execute(s.sql, s.params)));
  }
  return out;
}

void RunDifferential() {
  Cluster a = MakeCluster();
  Cluster b = MakeCluster();
  std::vector<std::string> multiplexed;
  std::vector<std::string> blocking;
  {
    engine::ScopedProxyMultiplexing on(true);
    ShardingProxy proxy(a.ds.get(), &a.ds->runtime()->network());
    ASSERT_TRUE(proxy.multiplexing());
    multiplexed = RunScript(&proxy);
  }
  {
    engine::ScopedProxyMultiplexing off(false);
    ShardingProxy proxy(b.ds.get(), &b.ds->runtime()->network());
    ASSERT_FALSE(proxy.multiplexing());
    blocking = RunScript(&proxy);
  }
  ASSERT_EQ(multiplexed.size(), blocking.size());
  for (size_t i = 0; i < multiplexed.size(); ++i) {
    EXPECT_EQ(multiplexed[i], blocking[i])
        << "lane divergence at statement " << i << ": "
        << DifferentialScript()[i].sql;
  }
  // The backends must end in the same state too.
  auto ca = a.ds->GetConnection();
  auto cb = b.ds->GetConnection();
  auto final_a = Describe(ca->ExecuteSQL("SELECT uid, name FROM t_user ORDER BY uid"));
  auto final_b = Describe(cb->ExecuteSQL("SELECT uid, name FROM t_user ORDER BY uid"));
  EXPECT_EQ(final_a, final_b);
}

TEST(ProxyReactorTest, MultiplexedLaneMatchesBlockingLane) { RunDifferential(); }

TEST(ProxyReactorTest, MaxConRejectsSessionsPastTheCap) {
  Cluster c = MakeCluster();
  engine::ScopedProxyFrontEnd knobs(/*max_connections=*/2,
                                    /*worker_threads=*/2,
                                    /*queue_depth=*/16);
  ShardingProxy proxy(c.ds.get(), &c.ds->runtime()->network());

  auto c1 = proxy.Connect();
  auto c2 = proxy.Connect();
  EXPECT_TRUE(c1->admitted());
  EXPECT_TRUE(c2->admitted());
  EXPECT_EQ(proxy.sessions_active(), 2);

  auto c3 = proxy.Connect();
  EXPECT_FALSE(c3->admitted());
  EXPECT_EQ(c3->state(), ShardingProxy::SessionState::kRejected);
  EXPECT_EQ(proxy.sessions_rejected(), 1);

  auto r = c3->Execute("SELECT 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(proxy.statements_rejected(), 1);

  // Freeing a session makes room for the next admission.
  c1.reset();
  auto c4 = proxy.Connect();
  EXPECT_TRUE(c4->admitted());
  EXPECT_TRUE(c4->Execute("SELECT COUNT(*) FROM t_user").ok());
}

TEST(ProxyReactorTest, AdmissionQueueAdmitsWhenASlotFrees) {
  Cluster c = MakeCluster();
  ShardingProxy proxy(c.ds.get(), &c.ds->runtime()->network());
  proxy.set_max_connections(1);
  proxy.set_admission_wait_ms(2000);

  auto held = proxy.Connect();
  ASSERT_TRUE(held->admitted());

  std::promise<bool> admitted;
  std::thread waiter([&] {
    auto conn = proxy.Connect();  // parks in the admission queue
    admitted.set_value(conn->admitted());
  });
  // Give the waiter time to park, then free the slot.
  SleepMicros(20000);
  held.reset();
  auto fut = admitted.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_TRUE(fut.get());
  waiter.join();
  EXPECT_EQ(proxy.sessions_rejected(), 0);
}

TEST(ProxyReactorTest, AdmissionQueueBoundRejectsImmediately) {
  Cluster c = MakeCluster();
  ShardingProxy proxy(c.ds.get(), &c.ds->runtime()->network());
  proxy.set_max_connections(1);
  proxy.set_admission_wait_ms(2000);
  proxy.set_admission_queue_limit(0);  // no waiting room at all

  auto held = proxy.Connect();
  Stopwatch sw;
  auto turned_away = proxy.Connect();
  EXPECT_FALSE(turned_away->admitted());
  // Rejected at once, not after the 2s admission deadline.
  EXPECT_LT(sw.ElapsedMicros(), 1000000);
  EXPECT_EQ(proxy.sessions_rejected(), 1);
}

TEST(ProxyReactorTest, BoundedStatementQueueExertsBackpressure) {
  Cluster c = MakeCluster();
  engine::ScopedProxyFrontEnd knobs(/*max_connections=*/0,
                                    /*worker_threads=*/1,
                                    /*queue_depth=*/1);
  ShardingProxy proxy(c.ds.get(), &c.ds->runtime()->network());
  for (auto& node : c.nodes) node->set_statement_delay_us(30000);

  // 1 worker + queue depth 1: of 4 concurrent statements at most two are
  // in the system; the rest must bounce with ResourceExhausted.
  std::atomic<int> ok{0};
  std::atomic<int> queue_full{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      auto conn = proxy.Connect();
      auto r = conn->Execute("SELECT COUNT(*) FROM t_user");
      if (r.ok()) {
        ++ok;
      } else if (r.status().code() == StatusCode::kResourceExhausted) {
        ++queue_full;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(queue_full.load(), 1);
  EXPECT_EQ(ok.load() + queue_full.load(), 4);
  EXPECT_EQ(proxy.statements_rejected(), queue_full.load());
}

TEST(ProxyReactorTest, QueueDeadlineShedsStaleStatements) {
  Cluster c = MakeCluster();
  engine::ScopedProxyFrontEnd knobs(/*max_connections=*/0,
                                    /*worker_threads=*/1,
                                    /*queue_depth=*/16);
  ShardingProxy proxy(c.ds.get(), &c.ds->runtime()->network());
  proxy.set_queue_deadline_ms(5);
  for (auto& node : c.nodes) node->set_statement_delay_us(40000);

  // The first statement occupies the single worker for 40ms; everything
  // queued behind it exceeds the 5ms deadline and is shed un-executed.
  std::atomic<int> ok{0};
  std::atomic<int> shed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {
      auto conn = proxy.Connect();
      auto r = conn->Execute("SELECT COUNT(*) FROM t_user");
      if (r.ok()) {
        ++ok;
      } else if (r.status().code() == StatusCode::kUnavailable) {
        ++shed;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(shed.load(), 1);
  EXPECT_EQ(proxy.statements_shed(), shed.load());
}

TEST(ProxyReactorTest, OpenBreakerShedsAtTheFrontDoor) {
  Cluster c = MakeCluster();
  ShardingProxy proxy(c.ds.get(), &c.ds->runtime()->network());
  features::CircuitBreaker breaker(/*failure_threshold=*/1,
                                   /*open_duration_ms=*/60000);
  proxy.set_circuit_breaker(&breaker);

  auto conn = proxy.Connect();
  // A backend failure trips the 1-threshold breaker...
  EXPECT_FALSE(conn->Execute("SELECT * FROM nope").ok());
  EXPECT_EQ(breaker.state(), features::CircuitBreaker::State::kOpen);
  // ...and the next statement fails fast without reaching the backend.
  auto r = conn->Execute("SELECT COUNT(*) FROM t_user");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(proxy.statements_rejected(), 1);
  EXPECT_EQ(proxy.workers_busy(), 0);

  // Detach, reset, and the path is clean again.
  proxy.set_circuit_breaker(nullptr);
  EXPECT_TRUE(conn->Execute("SELECT COUNT(*) FROM t_user").ok());
}

TEST(ProxyReactorTest, SuccessesClearTheBreakerStreak) {
  Cluster c = MakeCluster();
  ShardingProxy proxy(c.ds.get(), &c.ds->runtime()->network());
  features::CircuitBreaker breaker(/*failure_threshold=*/2,
                                   /*open_duration_ms=*/60000);
  proxy.set_circuit_breaker(&breaker);
  auto conn = proxy.Connect();
  // failure, success, failure: the streak never reaches 2.
  EXPECT_FALSE(conn->Execute("SELECT * FROM nope").ok());
  EXPECT_TRUE(conn->Execute("SELECT COUNT(*) FROM t_user").ok());
  EXPECT_FALSE(conn->Execute("SELECT * FROM nope").ok());
  EXPECT_EQ(breaker.state(), features::CircuitBreaker::State::kClosed);
}

TEST(ProxyReactorTest, ThrottleRejectsPastTheTokenBucket) {
  Cluster c = MakeCluster();
  ShardingProxy proxy(c.ds.get(), &c.ds->runtime()->network());
  features::RateThrottle throttle(/*rate_per_second=*/0.001, /*burst=*/2);
  proxy.set_rate_throttle(&throttle);
  auto conn = proxy.Connect();
  EXPECT_TRUE(conn->Execute("SELECT COUNT(*) FROM t_user").ok());
  EXPECT_TRUE(conn->Execute("SELECT COUNT(*) FROM t_user").ok());
  auto r = conn->Execute("SELECT COUNT(*) FROM t_user");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(throttle.throttled_statements(), 1);
  EXPECT_EQ(proxy.statements_rejected(), 1);
}

TEST(ProxyReactorTest, QueueFullBackpressureFeedsTheBreaker) {
  Cluster c = MakeCluster();
  engine::ScopedProxyFrontEnd knobs(/*max_connections=*/0,
                                    /*worker_threads=*/1,
                                    /*queue_depth=*/1);
  ShardingProxy proxy(c.ds.get(), &c.ds->runtime()->network());
  features::CircuitBreaker breaker(/*failure_threshold=*/1,
                                   /*open_duration_ms=*/60000);
  proxy.set_circuit_breaker(&breaker);
  for (auto& node : c.nodes) node->set_statement_delay_us(30000);

  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      auto conn = proxy.Connect();
      (void)conn->Execute("SELECT COUNT(*) FROM t_user");
    });
  }
  for (auto& t : threads) t.join();
  // At least one queue-full rejection was reported as a breaker failure,
  // tripping the 1-threshold breaker: sustained overload now sheds at the
  // front door instead of hammering the queue.
  EXPECT_EQ(breaker.state(), features::CircuitBreaker::State::kOpen);
}

TEST(ProxyReactorTest, TraceCapturesQueuedAndExecuteStages) {
  Cluster c = MakeCluster();
  ShardingProxy proxy(c.ds.get(), &c.ds->runtime()->network());
  auto conn = proxy.Connect();

  trace::Trace trace("client");
  {
    trace::TraceScope scope(&trace);
    ASSERT_TRUE(conn->Execute("SELECT COUNT(*) FROM t_user").ok());
  }
  bool saw_queued = false;
  bool saw_execute = false;
  bool saw_statement_under_execute = false;
  trace.Visit([&](const trace::Span& s) {
    if (s.name == "proxy.queued") {
      saw_queued = true;
      EXPECT_GE(s.duration_us, 0);
    }
    if (s.name == "proxy.execute") {
      saw_execute = true;
      EXPECT_GE(s.duration_us, 0);
    }
    // The backend's own statement span must nest under the worker's
    // proxy.execute stage (the worker resumed the client's trace).
    if (s.name == "statement" && s.parent != nullptr &&
        s.parent->name == "proxy.execute") {
      saw_statement_under_execute = true;
    }
  });
  EXPECT_TRUE(saw_queued);
  EXPECT_TRUE(saw_execute);
  EXPECT_TRUE(saw_statement_under_execute);
}

TEST(ProxyReactorTest, ExecuteAsyncCompletesOffTheCallingThread) {
  Cluster c = MakeCluster();
  ShardingProxy proxy(c.ds.get(), &c.ds->runtime()->network());
  auto conn = proxy.Connect();

  std::promise<ShardingProxy::AsyncOutcome> done;
  proxy.ExecuteAsync(conn.get(), "SELECT COUNT(*) FROM t_user", {},
                     [&](ShardingProxy::AsyncOutcome o) {
                       done.set_value(std::move(o));
                     });
  auto fut = done.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  ShardingProxy::AsyncOutcome outcome = fut.get();
  ASSERT_TRUE(outcome.result.ok());
  EXPECT_GT(outcome.request_bytes, 0u);
  EXPECT_GT(outcome.response_bytes, 0u);
  EXPECT_GE(outcome.queue_wait_us, 0);
  // The session is reusable immediately.
  EXPECT_TRUE(conn->Execute("SELECT COUNT(*) FROM t_user").ok());
}

TEST(ProxyReactorTest, ExecuteAsyncRefusesASecondInFlightStatement) {
  Cluster c = MakeCluster();
  ShardingProxy proxy(c.ds.get(), &c.ds->runtime()->network());
  for (auto& node : c.nodes) node->set_statement_delay_us(50000);
  auto conn = proxy.Connect();

  std::promise<void> first_done;
  proxy.ExecuteAsync(conn.get(), "SELECT COUNT(*) FROM t_user", {},
                     [&](ShardingProxy::AsyncOutcome o) {
                       EXPECT_TRUE(o.result.ok());
                       first_done.set_value();
                     });
  // The first statement holds the session's single slot for ~50ms.
  bool second_failed = false;
  proxy.ExecuteAsync(conn.get(), "SELECT 1", {},
                     [&](ShardingProxy::AsyncOutcome o) {
                       second_failed = !o.result.ok();
                       if (!o.result.ok()) {
                         EXPECT_EQ(o.result.status().code(),
                                   StatusCode::kInternal);
                       }
                     });
  EXPECT_TRUE(second_failed);  // rejected synchronously
  ASSERT_EQ(first_done.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
}

TEST(ProxyReactorTest, ProxyMetricsVisibleThroughTheRegistry) {
  Cluster c = MakeCluster();
  Histogram* queue_wait =
      metrics::Registry::Instance().GetHistogram("proxy.queue_wait");
  const int64_t waits_before = queue_wait->count();
  ShardingProxy proxy(c.ds.get(), &c.ds->runtime()->network());
  auto conn = proxy.Connect();
  ASSERT_TRUE(conn->Execute("SELECT COUNT(*) FROM t_user").ok());

  // Gauges publish through probes; SQL-LIKE filtering scopes to proxy.%.
  auto rows = metrics::Registry::Instance().Snapshot("proxy.%");
  bool saw_active = false;
  for (const auto& m : rows) {
    if (m.name == "proxy.sessions.active") {
      saw_active = true;
      EXPECT_EQ(m.value, 1);
    }
  }
  EXPECT_TRUE(saw_active);
  EXPECT_EQ(proxy.statements_served(), 1);
  // The multiplexed lane recorded its queue wait.
  EXPECT_GT(queue_wait->count(), waits_before);
}

}  // namespace
}  // namespace sphere::adaptor
