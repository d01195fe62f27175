// Concurrency stress tests for StorageNode sessions and the governor
// Registry. Written for the TSan build (-DSPHERE_SANITIZE=thread): many
// threads hammer the shared statement cache, the io-slot gate, table latches
// and the registry's node/watch/lock maps at once, so a missing lock shows up
// as a reported race rather than a flaky count.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/storage_node.h"
#include "governor/health.h"
#include "governor/registry.h"

namespace sphere {
namespace {

TEST(EngineConcurrencyStressTest, ParallelSessionsOneNode) {
  engine::StorageNode node("ds_stress");
  {
    auto admin = node.OpenSession();
    auto created = admin->Execute(
        "CREATE TABLE t (id INT PRIMARY KEY, w INT, v VARCHAR(32))");
    ASSERT_TRUE(created.ok()) << created.status().ToString();
  }
  // A small io-slot cap plus a nonzero statement delay forces sessions
  // through the io_mu_/io_cv_ wait path, not just the fast path.
  node.set_io_concurrency(2);
  node.set_statement_delay_us(10);

  constexpr int kThreads = 8;
  constexpr int kRowsPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&node, &failures, t] {
      auto session = node.OpenSession();
      for (int i = 0; i < kRowsPerThread; ++i) {
        int id = t * kRowsPerThread + i;
        // Same parameterized text from every thread: all sessions share one
        // statement-cache entry.
        auto ins = session->Execute("INSERT INTO t (id, w, v) VALUES (?, ?, ?)",
                                    {Value(id), Value(t),
                                     Value("row-" + std::to_string(id))});
        if (!ins.ok()) failures.fetch_add(1, std::memory_order_relaxed);
        auto sel = session->Execute("SELECT COUNT(*) FROM t WHERE w = ?",
                                    {Value(t)});
        if (!sel.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  auto check = node.OpenSession();
  auto result = check->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Row row;
  ASSERT_TRUE(result->result_set->Next(&row));
  EXPECT_EQ(row[0].AsInt(), kThreads * kRowsPerThread);
}

TEST(EngineConcurrencyStressTest, TransactionsRaceAutocommitReads) {
  engine::StorageNode node("ds_txn_stress");
  {
    auto admin = node.OpenSession();
    auto created =
        admin->Execute("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)");
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    for (int i = 0; i < 8; ++i) {
      auto ins = admin->Execute("INSERT INTO acct (id, bal) VALUES (?, ?)",
                                {Value(i), Value(100)});
      ASSERT_TRUE(ins.ok()) << ins.status().ToString();
    }
  }
  std::vector<std::thread> threads;
  // Writers: short transactions, half commit and half roll back. Each writer
  // owns one row — undo-based rollback is per-transaction, so concurrent
  // writers on the same row could interleave undo restores and the final
  // balance would not be deterministic.
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&node, w] {
      auto session = node.OpenSession();
      for (int i = 0; i < 60; ++i) {
        ASSERT_TRUE(session->Begin().ok());
        auto upd = session->Execute("UPDATE acct SET bal = bal + 1 WHERE id = ?",
                                    {Value(w)});
        ASSERT_TRUE(upd.ok()) << upd.status().ToString();
        Status end = (i % 2 == 0) ? session->Commit() : session->Rollback();
        ASSERT_TRUE(end.ok()) << end.ToString();
      }
    });
  }
  // Readers: autocommit aggregate scans racing the writers.
  std::atomic<bool> stop{false};
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&node, &stop] {
      auto session = node.OpenSession();
      while (!stop.load(std::memory_order_acquire)) {
        auto sum = session->Execute("SELECT SUM(bal) FROM acct");
        ASSERT_TRUE(sum.ok()) << sum.status().ToString();
      }
    });
  }
  for (int w = 0; w < 4; ++w) threads[static_cast<size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  threads[4].join();
  threads[5].join();
  // 4 writers x 60 iterations, every other one committed, +1 each time.
  auto check = node.OpenSession();
  auto total = check->Execute("SELECT SUM(bal) FROM acct");
  ASSERT_TRUE(total.ok());
  Row total_row;
  ASSERT_TRUE(total->result_set->Next(&total_row));
  EXPECT_EQ(total_row[0].AsInt(), 8 * 100 + 4 * 30);
}

TEST(EngineConcurrencyStressTest, UnindexedUpdateNeverOvershootsItsPredicate) {
  // `v` has no index, so each UPDATE finds its row by a full scan. The WHERE
  // and the SET must read the same image: a predicate checked on an older
  // copy lets a session that saw v = 9 add one to another session's 10.
  engine::StorageNode node("ds_overshoot");
  auto admin = node.OpenSession();
  ASSERT_TRUE(admin->Execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(admin->Execute("INSERT INTO t (id, v) VALUES (1, 0)").ok());
  auto read_v = [](engine::StorageNode::Session* s) -> int64_t {
    auto r = s->Execute("SELECT v FROM t WHERE id = 1");
    if (!r.ok()) return -1;
    std::vector<Row> rows = engine::DrainResultSet(r->result_set.get());
    return rows.size() == 1 ? rows[0][0].AsInt() : -1;
  };

  constexpr int kWriters = 4;
  constexpr int kUpdates = 200;
  std::atomic<bool> writing{true};
  std::atomic<int64_t> max_seen{0};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    auto session = node.OpenSession();
    while (writing.load(std::memory_order_relaxed)) {
      int64_t v = read_v(session.get());
      if (v < 0) failures.fetch_add(1, std::memory_order_relaxed);
      if (v > max_seen.load(std::memory_order_relaxed)) max_seen.store(v);
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      auto session = node.OpenSession();
      for (int i = 0; i < kUpdates; ++i) {
        if (!session->Execute("UPDATE t SET v = v + 1 WHERE v < 10").ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  writing.store(false);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(max_seen.load(), 10);
  EXPECT_EQ(read_v(admin.get()), 10);
}

TEST(GovernorConcurrencyStressTest, RegistryNodesWatchesLocksSessions) {
  governor::Registry registry;
  std::atomic<int64_t> events{0};
  int64_t watch_id = registry.Watch(
      "/stress", [&events](const governor::RegistryEvent&) {
        events.fetch_add(1, std::memory_order_relaxed);
      });

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 300;
  std::atomic<int> lock_acquisitions{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &lock_acquisitions, t] {
      governor::Registry::SessionId session = registry.Connect();
      const std::string mine = "/stress/t" + std::to_string(t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        ASSERT_TRUE(registry
                        .Put(mine, "v" + std::to_string(i))
                        .ok());
        auto got = registry.Get(mine);
        ASSERT_TRUE(got.ok());
        // Ephemeral churn: node dies with the session at the end.
        (void)registry.Create(mine + "/eph" + std::to_string(i % 4), "x",
                              session);
        (void)registry.Delete(mine + "/eph" + std::to_string((i + 2) % 4));
        // Contended named lock guards a read-modify-write on a shared node.
        if (registry.TryLock("stress-lock", session)) {
          lock_acquisitions.fetch_add(1, std::memory_order_relaxed);
          auto counter = registry.Get("/stress/counter");
          int next = counter.ok() ? std::stoi(counter.value()) + 1 : 1;
          ASSERT_TRUE(
              registry.Put("/stress/counter", std::to_string(next)).ok());
          registry.Unlock("stress-lock", session);
        }
        // Watchers re-enter the registry from inside the callback path.
        std::vector<std::string> kids = registry.GetChildren("/stress");
        ASSERT_LE(kids.size(), 100u);
      }
      registry.Disconnect(session);
    });
  }
  for (auto& t : threads) t.join();
  registry.Unwatch(watch_id);

  // The named lock serialized the counter updates: no lost increments.
  auto counter = registry.Get("/stress/counter");
  ASSERT_TRUE(counter.ok());
  EXPECT_EQ(std::stoi(counter.value()), lock_acquisitions.load());
  EXPECT_GT(events.load(), 0);
  // All ephemerals vanished with their sessions.
  for (int t = 0; t < kThreads; ++t) {
    std::vector<std::string> kids =
        registry.GetChildren("/stress/t" + std::to_string(t));
    EXPECT_TRUE(kids.empty()) << "ephemerals leaked for thread " << t;
  }
}

TEST(GovernorConcurrencyStressTest, HealthStateFlipsUnderDetectorThread) {
  // Aggressive timings: the detector thread declares instances DOWN almost
  // immediately, while heartbeat threads keep reviving them and others
  // register/unregister — the callback and instance map stay consistent.
  governor::HealthDetector detector(/*check_interval_ms=*/1, /*timeout_ms=*/1);
  std::atomic<int64_t> flips{0};
  detector.SetStateChangeCallback(
      [&flips](const std::string&, governor::HealthDetector::State) {
        flips.fetch_add(1, std::memory_order_relaxed);
      });
  for (int i = 0; i < 4; ++i) {
    detector.RegisterInstance("proxy-" + std::to_string(i));
  }
  detector.Start();

  std::vector<std::thread> threads;
  // Heartbeaters: each keeps one instance mostly alive.
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&detector, i] {
      for (int n = 0; n < 400; ++n) {
        detector.Heartbeat("proxy-" + std::to_string(i));
        (void)detector.IsHealthy("proxy-" + std::to_string(i));
        std::this_thread::yield();
      }
    });
  }
  // Churner: registration and removal race the detector's sweep.
  threads.emplace_back([&detector] {
    for (int n = 0; n < 200; ++n) {
      detector.RegisterInstance("ephemeral-" + std::to_string(n % 8));
      (void)detector.HealthyInstances();
      detector.UnregisterInstance("ephemeral-" + std::to_string((n + 4) % 8));
    }
  });
  // Manual sweeps race the background detector thread.
  threads.emplace_back([&detector] {
    for (int n = 0; n < 200; ++n) detector.RunCheckOnce();
  });
  for (auto& t : threads) t.join();
  detector.Stop();

  // Deterministic final sweep: let the 1 ms timeout elapse for sure, then
  // check once more so the assertions below cannot race the clock.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  detector.RunCheckOnce();

  // proxy-2/proxy-3 never heartbeat after registration: with a 1 ms timeout
  // they must have been declared DOWN by now.
  EXPECT_FALSE(detector.IsHealthy("proxy-2"));
  EXPECT_FALSE(detector.IsHealthy("proxy-3"));
  EXPECT_GT(flips.load(), 0);
}

}  // namespace
}  // namespace sphere
