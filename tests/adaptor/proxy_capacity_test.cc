#include <gtest/gtest.h>

#include <thread>

#include "adaptor/jdbc.h"
#include "adaptor/proxy.h"
#include "common/clock.h"

namespace sphere::adaptor {
namespace {

TEST(ProxyCapacityTest, WorkerCapSerializesStatements) {
  ShardingDataSource ds(core::RuntimeConfig(), net::NetworkConfig::Zero());
  engine::StorageNode node("ds_0");
  ASSERT_TRUE(ds.AttachNode("ds_0", &node).ok());
  core::ShardingRuleConfig rule;
  rule.default_data_source = "ds_0";
  ASSERT_TRUE(ds.SetRule(std::move(rule)).ok());
  {
    auto conn = ds.GetConnection();
    ASSERT_TRUE(conn->ExecuteSQL("CREATE TABLE t (id INT PRIMARY KEY)").ok());
  }
  // Large enough that the serialized/parallel gap dwarfs thread-startup
  // overhead under sanitizers on a loaded single-core box.
  node.set_statement_delay_us(10000);

  ShardingProxy proxy(&ds, &ds.runtime()->network());
  proxy.set_worker_capacity(1);

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  Stopwatch sw;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&proxy] {
      auto conn = proxy.Connect();
      ASSERT_TRUE(conn->Execute("SELECT * FROM t WHERE id = 1").ok());
    });
  }
  for (auto& t : threads) t.join();
  // 4 clients through 1 proxy worker, 10ms each: >= ~40ms wall clock.
  EXPECT_GE(sw.ElapsedMicros(), 35000);

  // Unlimited workers: clients overlap on the storage node.
  proxy.set_worker_capacity(0);
  Stopwatch sw2;
  threads.clear();
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&proxy] {
      auto conn = proxy.Connect();
      ASSERT_TRUE(conn->Execute("SELECT * FROM t WHERE id = 1").ok());
    });
  }
  for (auto& t : threads) t.join();
  // Overlapped: ~10ms of storage delay plus overhead, far below the
  // serialized 40ms floor.
  EXPECT_LT(sw2.ElapsedMicros(), 35000);
}

// Regression for the capacity-toggle accounting bug: a slot acquired while
// a cap was in force must be returned even if the cap was zeroed (set to
// unlimited) before the statement finished — and, symmetrically, a
// statement admitted slot-less under capacity 0 must not decrement the
// count when a cap appears mid-flight. The old code keyed release on the
// *current* capacity instead of whether this call had acquired a slot,
// leaking a slot in the first case (permanently starving a later cap) and
// driving the count negative in the second.
TEST(ProxyCapacityTest, WorkerSlotAccountingSurvivesCapacityToggles) {
  ShardingDataSource ds(core::RuntimeConfig(), net::NetworkConfig::Zero());
  engine::StorageNode node("ds_0");
  ASSERT_TRUE(ds.AttachNode("ds_0", &node).ok());
  core::ShardingRuleConfig rule;
  rule.default_data_source = "ds_0";
  ASSERT_TRUE(ds.SetRule(std::move(rule)).ok());
  {
    auto conn = ds.GetConnection();
    ASSERT_TRUE(conn->ExecuteSQL("CREATE TABLE t (id INT PRIMARY KEY)").ok());
  }
  // Legacy blocking lane: acquire/release run on the calling thread, so the
  // toggle windows below are deterministic.
  ShardingProxy proxy(&ds, &ds.runtime()->network(), {.multiplexing = false});
  node.set_statement_delay_us(30000);

  // Case 1: slot taken under capacity 1, capacity zeroed mid-statement.
  proxy.set_worker_capacity(1);
  std::thread holder([&proxy] {
    auto conn = proxy.Connect();
    ASSERT_TRUE(conn->Execute("SELECT * FROM t").ok());
  });
  SleepMicros(8000);  // the statement now holds the slot for ~30ms
  EXPECT_EQ(proxy.worker_slots_held(), 1);
  proxy.set_worker_capacity(0);
  holder.join();
  ASSERT_EQ(proxy.worker_slots_held(), 0);

  // Case 2: statement admitted slot-less under capacity 0, cap raised
  // mid-statement.
  std::thread slotless([&proxy] {
    auto conn = proxy.Connect();
    ASSERT_TRUE(conn->Execute("SELECT * FROM t").ok());
  });
  SleepMicros(8000);
  proxy.set_worker_capacity(2);
  slotless.join();
  ASSERT_EQ(proxy.worker_slots_held(), 0);

  // With the books balanced, a capacity-1 proxy still serves promptly
  // (under the old leak, the slot count starved this statement forever).
  proxy.set_worker_capacity(1);
  auto conn = proxy.Connect();
  node.set_statement_delay_us(0);
  EXPECT_TRUE(conn->Execute("SELECT * FROM t").ok());
  EXPECT_EQ(proxy.worker_slots_held(), 0);
}

}  // namespace
}  // namespace sphere::adaptor
