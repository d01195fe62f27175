#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adaptor/jdbc.h"
#include "adaptor/proxy.h"
#include "common/clock.h"

namespace sphere::adaptor {
namespace {

/// Multiplexed front-end stress: run under -DSPHERE_SANITIZE=thread and
/// -DSPHERE_DEADLOCK=ON (the check.sh proxy stages), where a locking
/// regression in the reactor/worker hand-off shows up as a race or an
/// inversion instead of a flaky count.
class ProxySessionStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = std::make_unique<ShardingDataSource>(core::RuntimeConfig(),
                                               net::NetworkConfig::Zero());
    node_ = std::make_unique<engine::StorageNode>("ds_0");
    ASSERT_TRUE(ds_->AttachNode("ds_0", node_.get()).ok());
    core::ShardingRuleConfig rule;
    rule.default_data_source = "ds_0";
    ASSERT_TRUE(ds_->SetRule(std::move(rule)).ok());
    auto conn = ds_->GetConnection();
    ASSERT_TRUE(conn->ExecuteSQL("CREATE TABLE t (id INT PRIMARY KEY)").ok());
  }

  std::unique_ptr<ShardingDataSource> ds_;
  std::unique_ptr<engine::StorageNode> node_;
};

TEST_F(ProxySessionStressTest, ManySessionsThroughFewWorkers) {
  ShardingProxy proxy(ds_.get(), &ds_->runtime()->network(),
                      {.worker_threads = 4, .queue_depth = 64});
  node_->set_statement_delay_us(200);

  constexpr int kClients = 8;
  constexpr int kStatementsEach = 12;
  std::atomic<int> ok{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto conn = proxy.Connect();
      for (int i = 0; i < kStatementsEach; ++i) {
        auto r = conn->Execute("SELECT COUNT(*) FROM t");
        if (r.ok()) {
          ++ok;
        } else {
          ++rejected;  // bounded-queue backpressure is a legal outcome
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load() + rejected.load(), kClients * kStatementsEach);
  EXPECT_GE(ok.load(), 1);
  EXPECT_EQ(proxy.statements_served(), kClients * kStatementsEach);
  EXPECT_EQ(proxy.workers_busy(), 0);
  EXPECT_EQ(proxy.worker_slots_held(), 0);
}

TEST_F(ProxySessionStressTest, CapacityTogglesRaceInFlightStatements) {
  ShardingProxy proxy(ds_.get(), &ds_->runtime()->network(),
                      {.worker_threads = 4, .queue_depth = 64});
  node_->set_statement_delay_us(300);

  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    // Race the capacity knob against executing statements: unlimited,
    // tight, moderate, in a loop.
    int caps[] = {0, 1, 3, 2, 0, 1};
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      proxy.set_worker_capacity(caps[i++ % (sizeof(caps) / sizeof(caps[0]))]);
      SleepMicros(500);
    }
  });
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&] {
      auto conn = proxy.Connect();
      for (int i = 0; i < 10; ++i) {
        (void)conn->Execute("SELECT COUNT(*) FROM t");
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  toggler.join();
  proxy.set_worker_capacity(0);
  // No slot leaked through any toggle interleaving, and a tight cap still
  // serves statements afterwards (no stuck semaphore).
  EXPECT_EQ(proxy.worker_slots_held(), 0);
  proxy.set_worker_capacity(1);
  auto conn = proxy.Connect();
  EXPECT_TRUE(conn->Execute("SELECT COUNT(*) FROM t").ok());
  EXPECT_EQ(proxy.worker_slots_held(), 0);
}

TEST_F(ProxySessionStressTest, SessionChurnUnderMaxCon) {
  ShardingProxy proxy(ds_.get(), &ds_->runtime()->network(),
                      {.worker_threads = 4, .queue_depth = 64});
  proxy.set_max_connections(2);
  proxy.set_admission_wait_ms(50);

  std::atomic<int> served{0};
  std::atomic<int> refused{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        auto conn = proxy.Connect();
        if (!conn->admitted()) {
          ++refused;
          continue;
        }
        if (conn->Execute("SELECT COUNT(*) FROM t").ok()) ++served;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(served.load(), 1);
  EXPECT_EQ(proxy.sessions_active(), 0);
  EXPECT_EQ(static_cast<int>(proxy.sessions_rejected()), refused.load());
}

TEST_F(ProxySessionStressTest, DestructionDrainsQueuedStatements) {
  // Sessions waiting on queued statements must all complete (not hang, not
  // crash) when the proxy shuts down concurrently with a full queue.
  node_->set_statement_delay_us(1000);
  std::atomic<int> finished{0};
  {
    ShardingProxy proxy(ds_.get(), &ds_->runtime()->network(),
                        {.worker_threads = 2, .queue_depth = 64});
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
      threads.emplace_back([&] {
        auto conn = proxy.Connect();
        (void)conn->Execute("SELECT COUNT(*) FROM t");
        ++finished;
      });
    }
    for (auto& t : threads) t.join();
  }  // proxy destructor runs with everything settled
  EXPECT_EQ(finished.load(), 6);
}

}  // namespace
}  // namespace sphere::adaptor
