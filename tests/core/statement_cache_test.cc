#include "core/statement_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/hint.h"
#include "core/runtime.h"
#include "tests/core/test_cluster.h"

namespace sphere::core {
namespace {

using testing::TestCluster;

Result<std::shared_ptr<const StatementPlan>> MakePlan(const std::string& sql) {
  SPHERE_ASSIGN_OR_RETURN(
      sql::SharedStatement parsed,
      sql::ParseShared(sql, sql::Dialect::Get(sql::DialectType::kMySQL)));
  std::shared_ptr<const StatementPlan> plan = std::make_shared<StatementPlan>(
      std::move(parsed), sql::DialectType::kMySQL);
  return plan;
}

TEST(StatementCacheTest, HitReturnsSamePlanObject) {
  StatementCache cache(8);
  auto plan = MakePlan("SELECT 1").value();
  cache.Put(sql::DialectType::kMySQL, "SELECT 1", plan);
  auto hit = cache.Get(sql::DialectType::kMySQL, "SELECT 1");
  EXPECT_EQ(hit.get(), plan.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(StatementCacheTest, DialectMismatchDisplacesEntry) {
  StatementCache cache(8);
  auto plan = MakePlan("SELECT 1").value();
  cache.Put(sql::DialectType::kMySQL, "SELECT 1", plan);
  EXPECT_EQ(cache.Get(sql::DialectType::kPostgreSQL, "SELECT 1"), nullptr);
  // The mismatching entry was dropped, not aliased.
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(StatementCacheTest, CapacityOneEvicts) {
  StatementCache cache(1, 1);
  cache.Put(sql::DialectType::kMySQL, "SELECT 1", MakePlan("SELECT 1").value());
  cache.Put(sql::DialectType::kMySQL, "SELECT 2", MakePlan("SELECT 2").value());
  EXPECT_EQ(cache.Get(sql::DialectType::kMySQL, "SELECT 1"), nullptr);
  EXPECT_NE(cache.Get(sql::DialectType::kMySQL, "SELECT 2"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(StatementCacheTest, InvalidateClearsEntriesAndBumpsEpoch) {
  StatementCache cache(8);
  cache.Put(sql::DialectType::kMySQL, "SELECT 1", MakePlan("SELECT 1").value());
  uint64_t before = cache.epoch();
  cache.Invalidate();
  EXPECT_EQ(cache.epoch(), before + 1);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Get(sql::DialectType::kMySQL, "SELECT 1"), nullptr);
}

TEST(StatementCacheTest, StalePlanPublishedUnderOldEpochIsRejected) {
  StatementCache cache(8);
  auto plan = MakePlan("SELECT 1").value();
  // An execution starts routing under the current epoch...
  uint64_t epoch = cache.epoch();
  cache.Invalidate();  // ...a rule change lands before it publishes...
  auto routed = std::make_shared<RoutedPlan>();
  routed->rule_epoch = epoch;
  plan->StoreRouted(routed);  // ...and the stale plan gets published anyway.
  EXPECT_EQ(plan->routed(cache.epoch()), nullptr);
  EXPECT_NE(plan->routed(epoch), nullptr);  // old epoch would still match
}

// ---------- Runtime-level behavior ----------

TEST(RuntimeStatementCacheTest, RepeatedExecutionSharesOneAST) {
  TestCluster cluster(2);
  ASSERT_TRUE(cluster.InstallModRule(4, false).ok());
  ASSERT_TRUE(cluster.CreateUserOrderSchemas().ok());

  const char* sql = "SELECT name FROM t_user ORDER BY uid";
  auto p1 = cluster.runtime()->GetOrParse(sql);
  auto p2 = cluster.runtime()->GetOrParse(sql);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(p1.value().get(), p2.value().get());
  EXPECT_EQ(p1.value()->shared_stmt().get(), p2.value()->shared_stmt().get());

  CacheStats s = cluster.runtime()->statement_cache_stats();
  EXPECT_GE(s.hits, 1u);
  EXPECT_GE(s.misses, 1u);
}

TEST(RuntimeStatementCacheTest, ZeroParamSelectReusesRoutedPlan) {
  TestCluster cluster(2);
  ASSERT_TRUE(cluster.InstallModRule(4, false).ok());
  ASSERT_TRUE(cluster.CreateUserOrderSchemas().ok());
  for (int uid = 0; uid < 4; ++uid) {
    ASSERT_TRUE(cluster.runtime()
                    ->Execute("INSERT INTO t_user (uid, name, age, score) "
                              "VALUES (" + std::to_string(uid) + ", 'u', 20, 1.0)")
                    .ok());
  }

  const char* sql = "SELECT name FROM t_user ORDER BY uid";
  ASSERT_TRUE(cluster.runtime()->Execute(sql).ok());
  auto r1 = cluster.runtime()->Execute(sql);
  ASSERT_TRUE(r1.ok());

  auto plan = cluster.runtime()->GetOrParse(sql).value();
  uint64_t epoch = cluster.runtime()->statement_cache().epoch();
  auto routed1 = plan->routed(epoch);
  ASSERT_NE(routed1, nullptr);  // the repeat execution published the plan

  auto r2 = cluster.runtime()->Execute(sql);
  ASSERT_TRUE(r2.ok());
  // Still the same routed plan object: later executions reuse it.
  EXPECT_EQ(plan->routed(epoch).get(), routed1.get());

  Row row;
  int rows = 0;
  while (r2.value().result_set->Next(&row)) ++rows;
  EXPECT_EQ(rows, 4);
}

TEST(RuntimeStatementCacheTest, ZeroParamSelectSeenOncePublishesNothing) {
  TestCluster cluster(2);
  ASSERT_TRUE(cluster.InstallModRule(4, false).ok());
  ASSERT_TRUE(cluster.CreateUserOrderSchemas().ok());
  for (int uid = 0; uid < 6; ++uid) {
    ASSERT_TRUE(cluster.runtime()
                    ->Execute("INSERT INTO t_user (uid, name, age, score) "
                              "VALUES (" + std::to_string(uid) + ", 'u" +
                              std::to_string(uid) + "', 20, 1.0)")
                    .ok());
  }

  const char* sql = "SELECT uid, name FROM t_user WHERE uid > 1 ORDER BY uid";
  auto first = cluster.runtime()->Execute(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto plan = cluster.runtime()->GetOrParse(sql).value();
  uint64_t epoch = cluster.runtime()->statement_cache().epoch();
  // A text executed once routes in its statement arena: no routed plan.
  EXPECT_EQ(plan->routed(epoch), nullptr);

  auto second = cluster.runtime()->Execute(sql);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NE(plan->routed(epoch), nullptr);
  std::vector<Row> first_rows =
      engine::DrainResultSet(first.value().result_set.get());
  std::vector<Row> second_rows =
      engine::DrainResultSet(second.value().result_set.get());
  EXPECT_EQ(first.value().result_set->columns(),
            second.value().result_set->columns());
  EXPECT_EQ(first_rows, second_rows);
  EXPECT_EQ(first_rows.size(), 4u);
}

TEST(RuntimeStatementCacheTest, SetRuleInvalidatesCacheAndRetiresPlans) {
  TestCluster cluster(2);
  ASSERT_TRUE(cluster.InstallModRule(4, false).ok());
  ASSERT_TRUE(cluster.CreateUserOrderSchemas().ok());
  for (int uid = 0; uid < 4; ++uid) {
    ASSERT_TRUE(cluster.runtime()
                    ->Execute("INSERT INTO t_user (uid, name, age, score) "
                              "VALUES (" + std::to_string(uid) + ", 'u', 20, 1.0)")
                    .ok());
  }

  const char* sql = "SELECT name FROM t_user ORDER BY uid";
  ASSERT_TRUE(cluster.runtime()->Execute(sql).ok());
  ASSERT_TRUE(cluster.runtime()->Execute(sql).ok());  // publishes on repeat
  auto old_plan = cluster.runtime()->GetOrParse(sql).value();
  uint64_t old_epoch = cluster.runtime()->statement_cache().epoch();
  ASSERT_NE(old_plan->routed(old_epoch), nullptr);

  // Narrow the rule to 2 shards: the old routed plan's 4-table scatter is now
  // wrong (t_user_2/3 are no longer part of the logical table).
  ASSERT_TRUE(cluster.InstallModRule(2, false).ok());
  EXPECT_EQ(cluster.runtime()->statement_cache_stats().entries, 0u);
  EXPECT_GT(cluster.runtime()->statement_cache().epoch(), old_epoch);

  // Executing through the retained pre-SetRule plan must not reuse the stale
  // route: under the 2-shard rule only t_user_0/1 (uid 0 and 1) are visible.
  auto r = cluster.runtime()->ExecutePlan(*old_plan, {}, nullptr);
  ASSERT_TRUE(r.ok());
  Row row;
  int rows = 0;
  while (r.value().result_set->Next(&row)) ++rows;
  EXPECT_EQ(rows, 2);
}

TEST(RuntimeStatementCacheTest, CapacityZeroDisablesCaching) {
  RuntimeConfig config;
  config.statement_cache_capacity = 0;
  TestCluster cluster(2, config);
  ASSERT_TRUE(cluster.InstallModRule(2, false).ok());
  ASSERT_TRUE(cluster.CreateUserOrderSchemas().ok());

  const char* sql = "SELECT name FROM t_user";
  auto p1 = cluster.runtime()->GetOrParse(sql);
  auto p2 = cluster.runtime()->GetOrParse(sql);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_NE(p1.value().get(), p2.value().get());  // parsed twice
  CacheStats s = cluster.runtime()->statement_cache_stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 0u);
  // Execution still works without the cache.
  EXPECT_TRUE(cluster.runtime()->Execute(sql).ok());
}

TEST(RuntimeStatementCacheTest, ShardingHintBypassesCachedRoute) {
  TestCluster cluster(2);
  ASSERT_TRUE(cluster.InstallModRule(4, false).ok());
  ASSERT_TRUE(cluster.CreateUserOrderSchemas().ok());

  const char* sql = "SELECT name FROM t_user";
  auto plan = cluster.runtime()->GetOrParse(sql).value();
  uint64_t epoch = cluster.runtime()->statement_cache().epoch();

  HintManager::Scope scope;
  HintManager::SetShardingValue(Value(static_cast<int64_t>(1)));
  ASSERT_TRUE(cluster.runtime()->Execute(sql).ok());
  // With a thread-local hint active the fast path is skipped entirely, so no
  // routed plan (which would bake in the hinted route) gets published.
  EXPECT_EQ(plan->routed(epoch), nullptr);
}

TEST(StatementCacheTest, ConcurrentGetPutInvalidate) {
  // The cache layer itself under contention: readers and writers race against
  // an invalidator, including the StatementPlan publish/retire protocol. TSan
  // builds turn locking mistakes here into hard failures.
  StatementCache cache(32);
  std::vector<std::string> sqls;
  for (int i = 0; i < 16; ++i) {
    sqls.push_back("SELECT " + std::to_string(i));
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&cache, &sqls, t] {
      for (int i = 0; i < 200; ++i) {
        const std::string& sql = sqls[static_cast<size_t>((i * 5 + t) % 16)];
        auto plan = cache.Get(sql::DialectType::kMySQL, sql);
        if (plan == nullptr) {
          auto made = MakePlan(sql);
          ASSERT_TRUE(made.ok());
          plan = std::move(made).value();
          cache.Put(sql::DialectType::kMySQL, sql, plan);
        }
        // Publish/consume a routed plan against a moving epoch.
        uint64_t epoch = cache.epoch();
        if (plan->routed(epoch) == nullptr) {
          auto routed = std::make_shared<RoutedPlan>();
          routed->rule_epoch = epoch;
          plan->StoreRouted(std::move(routed));
        }
        // A non-null result is guaranteed to match the epoch passed in; the
        // epoch may move again right after, which is the caller's race to
        // lose (the executor tolerates it by design — see ExecutePlan).
        uint64_t check = cache.epoch();
        auto routed = plan->routed(check);
        if (routed != nullptr) {
          EXPECT_EQ(routed->rule_epoch, check);
        }
      }
    });
  }
  std::thread invalidator([&cache] {
    for (int i = 0; i < 50; ++i) cache.Invalidate();
  });
  for (auto& th : workers) th.join();
  invalidator.join();
  EXPECT_EQ(cache.epoch(), 50u);
  EXPECT_LE(cache.stats().entries, 32u);
}

TEST(RuntimeStatementCacheTest, ConcurrentReadersShareCachedPlans) {
  TestCluster cluster(2);
  ASSERT_TRUE(cluster.InstallModRule(4, false).ok());
  ASSERT_TRUE(cluster.CreateUserOrderSchemas().ok());
  for (int uid = 0; uid < 8; ++uid) {
    ASSERT_TRUE(cluster.runtime()
                    ->Execute("INSERT INTO t_user (uid, name, age, score) "
                              "VALUES (" + std::to_string(uid) + ", 'u', 20, 1.0)")
                    .ok());
  }

  // Many sessions executing the same statements concurrently: they share the
  // cached ASTs and race to publish the routed plans (benign last-writer-wins).
  std::vector<std::string> sqls = {
      "SELECT name FROM t_user ORDER BY uid",
      "SELECT name FROM t_user WHERE uid = 3",
      "SELECT COUNT(*) FROM t_user",
  };
  // First touches run serially: GetOrParse is not single-flight, so
  // concurrent first touches could each miss.
  for (const std::string& sql : sqls) {
    ASSERT_TRUE(cluster.runtime()->Execute(sql).ok()) << sql;
  }
  CacheStats warm = cluster.runtime()->statement_cache_stats();
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&cluster, &sqls, t] {
      for (int i = 0; i < 100; ++i) {
        auto r = cluster.runtime()->Execute(sqls[static_cast<size_t>((i + t) % 3)]);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  for (auto& th : readers) th.join();

  CacheStats s = cluster.runtime()->statement_cache_stats();
  EXPECT_EQ(s.hits - warm.hits, 400u);  // every concurrent execution hits
  EXPECT_EQ(s.misses - warm.misses, 0u);
  EXPECT_GE(s.entries, 3u);
}

}  // namespace
}  // namespace sphere::core
