// Version-chain lifecycle tests for the MVCC storage layer (DESIGN.md §15):
// pruning on every install and under the clock hand, both bounded by pinned
// snapshots, tombstone erasure, the truncation graveyard, and the atomic
// live-row count across pending/commit/abort transitions.

#include "storage/mvcc.h"

#include <gtest/gtest.h>

#include "storage/database.h"
#include "storage/table.h"

namespace sphere::storage {
namespace {

class MvccGcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({Column("id", ColumnType::kInt, true),
              Column("v", ColumnType::kInt)});
    ASSERT_TRUE(db_.CreateTable("t", s).ok());
    table_ = db_.FindTable("t");
    em_ = db_.epochs();
    {
      WriterLock lk(table_->latch());
      ASSERT_TRUE(table_->Insert({Value(1), Value(0)}, nullptr).ok());
    }
  }

  // One committed update of row `pk` to value `v`, via the production commit
  // protocol: pending install under the writer latch, then restamp inside
  // the epoch manager's commit section. Returns the commit epoch.
  uint64_t CommitUpdate(int64_t pk, int64_t v) {
    int64_t writer = em_->NextWriterId();
    {
      WriterLock lk(table_->latch());
      EXPECT_TRUE(
          table_->Update(Value(pk), {Value(pk), Value(v)}, writer).ok());
    }
    uint64_t epoch = em_->BeginCommit();
    {
      WriterLock lk(table_->latch());
      table_->CommitWrite(Value(pk), writer, epoch);
    }
    em_->EndCommit(epoch);
    return epoch;
  }

  uint64_t CommitDelete(int64_t pk) {
    int64_t writer = em_->NextWriterId();
    {
      WriterLock lk(table_->latch());
      EXPECT_TRUE(table_->Delete(Value(pk), nullptr, writer).ok());
    }
    uint64_t epoch = em_->BeginCommit();
    {
      WriterLock lk(table_->latch());
      table_->CommitWrite(Value(pk), writer, epoch);
    }
    em_->EndCommit(epoch);
    return epoch;
  }

  /// Self-committed rows `first..last` with value 0.
  void InsertRows(int64_t first, int64_t last) {
    WriterLock lk(table_->latch());
    for (int64_t pk = first; pk <= last; ++pk) {
      ASSERT_TRUE(table_->Insert({Value(pk), Value(0)}, nullptr).ok());
    }
  }

  int64_t LatestValue(int64_t pk) {
    ReaderLock lk(table_->latch());
    const Row* row = table_->Find(Value(pk));
    return row == nullptr ? -1 : (*row)[1].AsInt();
  }

  Database db_{"ds0"};
  Table* table_ = nullptr;
  EpochManager* em_ = nullptr;
};

TEST_F(MvccGcTest, UpdatesGrowChainAndGcPrunesSuperseded) {
  for (int64_t v = 1; v <= 5; ++v) CommitUpdate(1, v);
  // Insert + 5 updates: each install pruned the chain down to its committed
  // predecessor, so the newest version and the one it superseded remain.
  EXPECT_EQ(table_->version_count(), 2u);

  // No pinned snapshot: everything below the newest committed version is
  // unreachable and must go.
  EXPECT_EQ(table_->GcVersions(), 1u);
  EXPECT_EQ(table_->version_count(), 1u);
  EXPECT_EQ(LatestValue(1), 5);
}

TEST_F(MvccGcTest, PinnedSnapshotBoundsPruneAndStaysReadable) {
  uint64_t pinned_epoch = CommitUpdate(1, 10);
  Snapshot snap(em_);
  ASSERT_EQ(snap.epoch(), pinned_epoch);

  CommitUpdate(1, 20);
  CommitUpdate(1, 30);
  // Chain: [30][20][10], snapshot pinned at the epoch of 10. The install of
  // 20 already freed the insert image (superseded before the pin).
  EXPECT_EQ(table_->version_count(), 3u);

  // The pinned version and everything newer must survive GC.
  EXPECT_EQ(table_->GcVersions(), 0u);
  EXPECT_EQ(table_->version_count(), 3u);
  {
    ReaderLock lk(table_->latch());
    const Row* old_row = table_->FindVisible(Value(1), snap.view());
    ASSERT_NE(old_row, nullptr);
    EXPECT_EQ((*old_row)[1].AsInt(), 10);
  }
  EXPECT_EQ(LatestValue(1), 30);

  // Releasing the pin unblocks the rest of the chain.
  snap.Release();
  EXPECT_EQ(table_->GcVersions(), 2u);
  EXPECT_EQ(table_->version_count(), 1u);
  EXPECT_EQ(LatestValue(1), 30);
}

TEST_F(MvccGcTest, DeadTombstoneChainIsErased) {
  CommitUpdate(1, 7);
  CommitDelete(1);
  // Tombstone + the data version it superseded (the delete's install freed
  // the insert image) stay chained until GC proves no snapshot can resolve
  // a row from them.
  EXPECT_EQ(table_->version_count(), 2u);
  EXPECT_EQ(LatestValue(1), -1);
  EXPECT_EQ(table_->row_count(), 0u);

  EXPECT_EQ(table_->GcVersions(), 2u);
  EXPECT_EQ(table_->version_count(), 0u);
  {
    ReaderLock lk(table_->latch());
    EXPECT_EQ(table_->Find(Value(1)), nullptr);
  }
}

TEST_F(MvccGcTest, PinnedSnapshotStillResolvesDeletedRow) {
  CommitUpdate(1, 42);
  Snapshot snap(em_);
  CommitDelete(1);

  // The tombstone is newest, but the pinned view resolves past it.
  {
    ReaderLock lk(table_->latch());
    const Row* row = table_->FindVisible(Value(1), snap.view());
    ASSERT_NE(row, nullptr);
    EXPECT_EQ((*row)[1].AsInt(), 42);
  }
  // GC must keep the version the pin can reach (and the tombstone above it).
  table_->GcVersions();
  {
    ReaderLock lk(table_->latch());
    const Row* row = table_->FindVisible(Value(1), snap.view());
    ASSERT_NE(row, nullptr);
    EXPECT_EQ((*row)[1].AsInt(), 42);
  }
  snap.Release();
  EXPECT_GT(table_->GcVersions(), 0u);
  EXPECT_EQ(table_->version_count(), 0u);
}

TEST_F(MvccGcTest, TruncateGraveyardFreedOnlyPastPins) {
  CommitUpdate(1, 5);
  Snapshot snap(em_);

  const Row* borrowed = nullptr;
  {
    ReaderLock lk(table_->latch());
    borrowed = table_->FindVisible(Value(1), snap.view());
    ASSERT_NE(borrowed, nullptr);
  }
  {
    WriterLock lk(table_->latch());
    table_->Truncate();
  }
  // The chain moved to the graveyard instead of being freed: the borrowed
  // pointer stays readable while the snapshot is pinned (a use-after-free
  // here is what the ASan tree would catch).
  EXPECT_EQ(table_->row_count(), 0u);
  EXPECT_GE(table_->version_count(), 2u);
  EXPECT_EQ((*borrowed)[1].AsInt(), 5);

  // GC keeps the graveyard while the pin predates the truncation...
  table_->GcVersions();
  EXPECT_GE(table_->version_count(), 2u);
  EXPECT_EQ((*borrowed)[1].AsInt(), 5);

  // ...and drains it once the pin is gone.
  snap.Release();
  table_->GcVersions();
  EXPECT_EQ(table_->version_count(), 0u);
}

TEST_F(MvccGcTest, NextInstallDrainsGraveyardOncePinsRelease) {
  CommitUpdate(1, 5);
  Snapshot snap(em_);
  {
    WriterLock lk(table_->latch());
    table_->Truncate();
  }
  EXPECT_GE(table_->version_count(), 2u);
  snap.Release();
  // No GcVersions call: the install frees the retired chains itself.
  {
    WriterLock lk(table_->latch());
    ASSERT_TRUE(table_->Insert({Value(2), Value(0)}, nullptr).ok());
  }
  EXPECT_EQ(table_->version_count(), 1u);
}

TEST_F(MvccGcTest, TruncateWithNoPinsFreesImmediately) {
  CommitUpdate(1, 5);
  {
    WriterLock lk(table_->latch());
    table_->Truncate();
  }
  EXPECT_EQ(table_->version_count(), 0u);
  EXPECT_EQ(table_->row_count(), 0u);
}

TEST_F(MvccGcTest, PinnedSnapshotStopsInstallPruneAndHand) {
  InsertRows(2, 3);
  CommitUpdate(2, 20);
  Snapshot snap(em_);
  // Row 2's install prune frees its insert image (below the pin) but must
  // keep 20, the version the pin resolves to.
  CommitUpdate(2, 21);
  // Installs into row 1 move the hand over rows 2 and 3 several turns; none
  // of them may free what the pin reads.
  for (int64_t v = 1; v <= 6; ++v) CommitUpdate(1, v);
  // Row 1: six updates over the insert image; row 2: [21][20]; row 3: one.
  EXPECT_EQ(table_->version_count(), 10u);
  {
    ReaderLock lk(table_->latch());
    const Row* r1 = table_->FindVisible(Value(1), snap.view());
    const Row* r2 = table_->FindVisible(Value(2), snap.view());
    ASSERT_NE(r1, nullptr);
    ASSERT_NE(r2, nullptr);
    EXPECT_EQ((*r1)[1].AsInt(), 0);
    EXPECT_EQ((*r2)[1].AsInt(), 20);
  }
  snap.Release();
  EXPECT_EQ(table_->GcVersions(), 7u);
  EXPECT_EQ(table_->version_count(), 3u);
}

TEST_F(MvccGcTest, HandFreesColdRowTailWithinOneTurn) {
  constexpr int64_t kRows = 10;
  InsertRows(2, kRows);
  // Row 5 keeps its committed predecessor: the install could not free it,
  // because it was still the newest committed version then.
  CommitUpdate(5, 50);
  EXPECT_EQ(table_->version_count(), static_cast<size_t>(kRows) + 1);
  // One turn of the hand, two chains per install, while only row 1 is
  // written.
  for (int64_t v = 1; v <= kRows / 2; ++v) CommitUpdate(1, v);
  // Every cold row is down to one version; the hot row keeps the committed
  // predecessor of its last write.
  EXPECT_EQ(table_->version_count(), static_cast<size_t>(kRows) + 1);
  EXPECT_EQ(LatestValue(5), 50);
  EXPECT_EQ(table_->GcVersions(), 1u);
}

TEST_F(MvccGcTest, HandErasesDeadTombstoneKey) {
  InsertRows(2, 4);
  CommitDelete(3);
  EXPECT_EQ(table_->version_count(), 5u);  // 3 rows + [tombstone][image]
  // Two installs turn the hand once over four keys.
  CommitUpdate(1, 1);
  CommitUpdate(1, 2);
  // Row 1: [2][1]; rows 2 and 4: one each; key 3 is gone from the tree.
  EXPECT_EQ(table_->version_count(), 4u);
  ReaderLock lk(table_->latch());
  auto it = table_->LowerBound(Value(3));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().AsInt(), 4);
}

TEST_F(MvccGcTest, UniformUpdatesKeepAboutOneVersionPerRow) {
  constexpr int64_t kRows = 200;
  InsertRows(2, kRows);
  // A fixed pseudo-random sequence of committed single-row updates, five
  // per row on average, with nothing pinned.
  uint64_t x = 12345;
  for (int i = 0; i < 5 * kRows; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    CommitUpdate(1 + static_cast<int64_t>((x >> 33) % kRows), i);
  }
  EXPECT_LE(table_->version_count(), static_cast<size_t>(kRows * 3 / 2));
  EXPECT_EQ(table_->row_count(), static_cast<size_t>(kRows));
}

TEST_F(MvccGcTest, PruneKeepsAnotherWritersPendingVersion) {
  // Writer A's pending update sits below B's and C's commits (no write-write
  // conflict detection): [C][B][A pending][insert image].
  int64_t a = em_->NextWriterId();
  {
    WriterLock lk(table_->latch());
    ASSERT_TRUE(table_->Update(Value(1), {Value(1), Value(100)}, a).ok());
  }
  CommitUpdate(1, 200);
  CommitUpdate(1, 300);
  // Installs and GC free committed versions below the keeper only.
  table_->GcVersions();
  uint64_t epoch = em_->BeginCommit();
  {
    WriterLock lk(table_->latch());
    table_->CommitWrite(Value(1), a, epoch);
  }
  em_->EndCommit(epoch);
  // A committed last, so its version is the row.
  EXPECT_EQ(LatestValue(1), 100);
  EXPECT_EQ(table_->row_count(), 1u);
}

TEST_F(MvccGcTest, SnapshotAgeTracksLaggingPin) {
  Snapshot snap(em_);
  EXPECT_EQ(em_->SnapshotAge(), 0);
  CommitUpdate(1, 1);
  CommitUpdate(1, 2);
  EXPECT_EQ(em_->SnapshotAge(), 2);
  snap.Release();
  EXPECT_EQ(em_->SnapshotAge(), 0);
}

// ---------------------------------------------------------------------------
// live-row count across pending/commit/abort (row_count() is the lock-free
// monitoring read; a drifting counter silently corrupts `SELECT COUNT(*)`
// fast paths and DistSQL table stats).
// ---------------------------------------------------------------------------

class MvccRowCountTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({Column("id", ColumnType::kInt, true),
              Column("v", ColumnType::kInt)});
    ASSERT_TRUE(db_.CreateTable("t", s).ok());
    table_ = db_.FindTable("t");
    em_ = db_.epochs();
    WriterLock lk(table_->latch());
    ASSERT_TRUE(table_->Insert({Value(1), Value(10)}, nullptr).ok());
    ASSERT_TRUE(table_->Insert({Value(2), Value(20)}, nullptr).ok());
  }

  Database db_{"ds0"};
  Table* table_ = nullptr;
  EpochManager* em_ = nullptr;
};

TEST_F(MvccRowCountTest, PendingInsertCountsUntilAborted) {
  int64_t writer = em_->NextWriterId();
  {
    WriterLock lk(table_->latch());
    ASSERT_TRUE(table_->Insert({Value(3), Value(30)}, nullptr, writer).ok());
  }
  // The pending row counts in the writer's own view of the table size.
  EXPECT_EQ(table_->row_count(), 3u);
  {
    WriterLock lk(table_->latch());
    table_->AbortWrite(Value(3), writer);
  }
  EXPECT_EQ(table_->row_count(), 2u);
}

TEST_F(MvccRowCountTest, AbortedDeleteRestoresCount) {
  int64_t writer = em_->NextWriterId();
  {
    WriterLock lk(table_->latch());
    ASSERT_TRUE(table_->Delete(Value(1), nullptr, writer).ok());
  }
  EXPECT_EQ(table_->row_count(), 1u);
  {
    WriterLock lk(table_->latch());
    table_->AbortWrite(Value(1), writer);
  }
  EXPECT_EQ(table_->row_count(), 2u);
  ReaderLock lk(table_->latch());
  ASSERT_NE(table_->Find(Value(1)), nullptr);
}

TEST_F(MvccRowCountTest, UpdateAndItsAbortLeaveCountAlone) {
  int64_t writer = em_->NextWriterId();
  {
    WriterLock lk(table_->latch());
    ASSERT_TRUE(
        table_->Update(Value(1), {Value(1), Value(11)}, writer).ok());
  }
  EXPECT_EQ(table_->row_count(), 2u);
  {
    WriterLock lk(table_->latch());
    table_->AbortWrite(Value(1), writer);
  }
  EXPECT_EQ(table_->row_count(), 2u);
}

TEST_F(MvccRowCountTest, CommitKeepsCountAndGcDoesNotDisturbIt) {
  int64_t writer = em_->NextWriterId();
  {
    WriterLock lk(table_->latch());
    ASSERT_TRUE(table_->Insert({Value(3), Value(30)}, nullptr, writer).ok());
    ASSERT_TRUE(table_->Delete(Value(2), nullptr, writer).ok());
  }
  uint64_t epoch = em_->BeginCommit();
  {
    WriterLock lk(table_->latch());
    table_->CommitWrite(Value(3), writer, epoch);
    table_->CommitWrite(Value(2), writer, epoch);
  }
  em_->EndCommit(epoch);
  EXPECT_EQ(table_->row_count(), 2u);
  table_->GcVersions();
  EXPECT_EQ(table_->row_count(), 2u);
}

TEST_F(MvccRowCountTest, TruncateZeroesCount) {
  {
    WriterLock lk(table_->latch());
    table_->Truncate();
  }
  EXPECT_EQ(table_->row_count(), 0u);
}

}  // namespace
}  // namespace sphere::storage
