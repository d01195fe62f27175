// MVCC read/write stress (DESIGN.md §15), written for the TSan and lockdep
// trees (check.sh re-runs `ctest -R MvccStress` in both): snapshot readers
// scan through the executor while writers commit, roll back and churn rows,
// and installs (plus, in two cases, a GC thread) prune version chains
// mid-scan. Every reader asserts its
// scan was one consistent cut — a torn snapshot shows up as a failed
// invariant here, and as a data race / lock-order report in the sanitizer
// trees.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/storage_node.h"
#include "storage/table.h"

namespace sphere {
namespace {

// Transfers between accounts keep COUNT and SUM invariant; every snapshot —
// no matter how it interleaves with commits, rollbacks and GC — must observe
// exactly the initial totals.
TEST(MvccStressTest, SnapshotScansSeeConsistentTotals) {
  constexpr int kAccounts = 64;
  constexpr int64_t kInitialBalance = 100;
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kWriterTxns = 150;

  engine::StorageNode node("ds_mvcc_stress");
  {
    auto admin = node.OpenSession();
    ASSERT_TRUE(
        admin->Execute("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
            .ok());
    for (int i = 0; i < kAccounts; ++i) {
      ASSERT_TRUE(admin
                      ->Execute("INSERT INTO acct VALUES (?, ?)",
                                {Value(i), Value(kInitialBalance)})
                      .ok());
    }
  }

  std::atomic<int> writers_done{0};
  std::atomic<int64_t> bad_snapshots{0};
  std::atomic<int64_t> reader_failures{0};
  std::atomic<int64_t> scans{0};
  // Writers start once every reader has tried one scan: on an idle host the
  // writers otherwise finish before any reader is scheduled, and no scan
  // overlaps a commit.
  std::atomic<int> readers_started{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&node, &writers_done, &readers_started, w] {
      while (readers_started.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
      // Each writer transfers within its own account partition: there is no
      // write-write conflict detection, so two transactions computing
      // `bal - ?` from the same committed image would lose one delta and
      // the invariant would break for reasons unrelated to snapshots.
      constexpr int kSpan = kAccounts / kWriters;
      const int base = w * kSpan;
      auto session = node.OpenSession();
      for (int i = 0; i < kWriterTxns; ++i) {
        // Move an amount between two accounts; commit two thirds of the
        // time, roll back the rest. Either way the totals are untouched.
        int from = base + (i * 7) % kSpan;
        int to = base + ((i * 7) % kSpan + 1 + i % (kSpan - 1)) % kSpan;
        int64_t amount = 1 + i % 5;
        bool ok = session->Execute("BEGIN").ok();
        ok = session
                 ->Execute("UPDATE acct SET bal = bal - ? WHERE id = ?",
                           {Value(amount), Value(from)})
                 .ok() &&
             ok;
        ok = session
                 ->Execute("UPDATE acct SET bal = bal + ? WHERE id = ?",
                           {Value(amount), Value(to)})
                 .ok() &&
             ok;
        const char* end = (!ok || i % 3 == 0) ? "ROLLBACK" : "COMMIT";
        if (session->in_transaction()) session->Execute(end).ok();
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      auto session = node.OpenSession();
      bool started = false;
      while (writers_done.load(std::memory_order_acquire) < kWriters) {
        auto res = session->Execute("SELECT COUNT(*), SUM(bal) FROM acct");
        if (!started) {
          started = true;
          readers_started.fetch_add(1, std::memory_order_release);
        }
        if (!res.ok()) {
          reader_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        Row row;
        if (!res->result_set->Next(&row) || row.size() != 2) {
          reader_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (row[0].AsInt() != kAccounts ||
            row[1].AsInt() != kAccounts * kInitialBalance) {
          bad_snapshots.fetch_add(1, std::memory_order_relaxed);
        }
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // GC churns version chains while readers hold pinned snapshots into them:
  // the prune-while-scanning path.
  threads.emplace_back([&] {
    storage::Table* table = node.database()->FindTable("acct");
    while (writers_done.load(std::memory_order_acquire) < kWriters) {
      if (table != nullptr) table->GcVersions();
      std::this_thread::yield();
    }
  });

  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_snapshots.load(), 0);
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_GT(scans.load(), 0);

  // Final state: still the initial totals, and GC can reduce every chain.
  auto check = node.OpenSession();
  auto res = check->Execute("SELECT COUNT(*), SUM(bal) FROM acct");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  Row row;
  ASSERT_TRUE(res->result_set->Next(&row));
  EXPECT_EQ(row[0].AsInt(), kAccounts);
  EXPECT_EQ(row[1].AsInt(), kAccounts * kInitialBalance);
  storage::Table* table = node.database()->FindTable("acct");
  ASSERT_NE(table, nullptr);
  table->GcVersions();
  EXPECT_EQ(table->version_count(), static_cast<size_t>(kAccounts));
}

// Writers insert a fresh row and delete it inside one transaction (net zero
// rows), so readers must always count exactly the base population — an
// insert or tombstone leaking across a snapshot boundary breaks the count.
TEST(MvccStressTest, InsertDeleteChurnKeepsCountStable) {
  constexpr int kBaseRows = 32;
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kWriterTxns = 120;

  engine::StorageNode node("ds_mvcc_churn");
  {
    auto admin = node.OpenSession();
    ASSERT_TRUE(
        admin->Execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
    for (int i = 0; i < kBaseRows; ++i) {
      ASSERT_TRUE(admin
                      ->Execute("INSERT INTO t VALUES (?, ?)",
                                {Value(i), Value(i)})
                      .ok());
    }
  }

  std::atomic<int> writers_done{0};
  std::atomic<int64_t> bad_counts{0};
  std::atomic<int64_t> reader_failures{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&node, &writers_done, w] {
      auto session = node.OpenSession();
      for (int i = 0; i < kWriterTxns; ++i) {
        // Disjoint id ranges per writer avoid duplicate-key noise.
        int id = 1000 + w * kWriterTxns + i;
        bool ok = session->Execute("BEGIN").ok();
        ok = session
                 ->Execute("INSERT INTO t VALUES (?, ?)",
                           {Value(id), Value(i)})
                 .ok() &&
             ok;
        ok = session->Execute("DELETE FROM t WHERE id = ?", {Value(id)}).ok() &&
             ok;
        const char* end = (!ok || i % 4 == 0) ? "ROLLBACK" : "COMMIT";
        if (session->in_transaction()) session->Execute(end).ok();
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      auto session = node.OpenSession();
      while (writers_done.load(std::memory_order_acquire) < kWriters) {
        auto res = session->Execute("SELECT COUNT(*) FROM t");
        Row row;
        if (!res.ok() || !res->result_set->Next(&row)) {
          reader_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (row[0].AsInt() != kBaseRows) {
          bad_counts.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  threads.emplace_back([&] {
    storage::Table* table = node.database()->FindTable("t");
    while (writers_done.load(std::memory_order_acquire) < kWriters) {
      if (table != nullptr) table->GcVersions();
      std::this_thread::yield();
    }
  });

  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_counts.load(), 0);
  EXPECT_EQ(reader_failures.load(), 0);

  storage::Table* table = node.database()->FindTable("t");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->row_count(), static_cast<size_t>(kBaseRows));
  table->GcVersions();
  EXPECT_EQ(table->version_count(), static_cast<size_t>(kBaseRows));
}

// No GC thread: every install prunes its own chain and moves the clock hand,
// which erases keys between a self-latched scan's batches. Accounts sit on
// even ids and churn rows (inserted and deleted in one transaction, so net
// zero) on odd ids between them, so the hand erases dead tombstones inside
// the scanned range. Readers hold a transaction's snapshot across two scans
// (repeatable read) while writers keep committing; scans span several
// 256-row batches.
TEST(MvccStressTest, PinnedScansSurviveInstallPruning) {
  constexpr int kAccounts = 600;
  constexpr int64_t kInitialBalance = 10;
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kWriterTxns = 300;

  engine::StorageNode node("ds_mvcc_prune");
  {
    auto admin = node.OpenSession();
    ASSERT_TRUE(
        admin->Execute("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
            .ok());
    for (int i = 0; i < kAccounts; ++i) {
      ASSERT_TRUE(admin
                      ->Execute("INSERT INTO acct VALUES (?, ?)",
                                {Value(2 * i), Value(kInitialBalance)})
                      .ok());
    }
  }

  std::atomic<int> writers_done{0};
  std::atomic<int> readers_started{0};
  std::atomic<int64_t> bad_snapshots{0};
  std::atomic<int64_t> reader_failures{0};
  std::atomic<int64_t> scans{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&node, &writers_done, &readers_started, w] {
      while (readers_started.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
      // Disjoint account partitions per writer, as above: there is no
      // write-write conflict detection.
      constexpr int kSpan = kAccounts / kWriters;
      const int base = w * kSpan;
      auto session = node.OpenSession();
      for (int i = 0; i < kWriterTxns; ++i) {
        int from = 2 * (base + (i * 37) % kSpan);
        int to = 2 * (base + (i * 37 + 1 + i % (kSpan - 1)) % kSpan);
        int churn = 2 * (base + (i * 53) % kSpan) + 1;
        bool ok = session->Execute("BEGIN").ok();
        ok = session
                 ->Execute("UPDATE acct SET bal = bal - 1 WHERE id = ?",
                           {Value(from)})
                 .ok() &&
             ok;
        ok = session
                 ->Execute("UPDATE acct SET bal = bal + 1 WHERE id = ?",
                           {Value(to)})
                 .ok() &&
             ok;
        ok = session
                 ->Execute("INSERT INTO acct VALUES (?, 5)", {Value(churn)})
                 .ok() &&
             ok;
        ok = session->Execute("DELETE FROM acct WHERE id = ?", {Value(churn)})
                 .ok() &&
             ok;
        const char* end = (!ok || i % 5 == 0) ? "ROLLBACK" : "COMMIT";
        if (session->in_transaction()) session->Execute(end).ok();
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      auto session = node.OpenSession();
      bool started = false;
      while (writers_done.load(std::memory_order_acquire) < kWriters) {
        bool ok = session->Execute("BEGIN").ok();
        int64_t totals[2][2] = {};
        for (auto& total : totals) {
          auto res = session->Execute("SELECT COUNT(*), SUM(bal) FROM acct");
          Row row;
          if (!res.ok() || !res->result_set->Next(&row) || row.size() != 2) {
            ok = false;
            break;
          }
          total[0] = row[0].AsInt();
          total[1] = row[1].AsInt();
        }
        if (session->in_transaction()) session->Execute("COMMIT").ok();
        if (!started) {
          started = true;
          readers_started.fetch_add(1, std::memory_order_release);
        }
        if (!ok) {
          reader_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (const auto& total : totals) {
          if (total[0] != kAccounts ||
              total[1] != kAccounts * kInitialBalance) {
            bad_snapshots.fetch_add(1, std::memory_order_relaxed);
          }
        }
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_snapshots.load(), 0);
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_GT(scans.load(), 0);

  storage::Table* table = node.database()->FindTable("acct");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->row_count(), static_cast<size_t>(kAccounts));
  table->GcVersions();
  EXPECT_EQ(table->version_count(), static_cast<size_t>(kAccounts));
}

}  // namespace
}  // namespace sphere
