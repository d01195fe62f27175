#ifndef SPHERE_STORAGE_TABLE_H_
#define SPHERE_STORAGE_TABLE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/schema.h"
#include "common/status.h"
#include "storage/btree.h"
#include "storage/mvcc.h"

namespace sphere::storage {

/// A secondary index: column value -> list of primary keys.
class SecondaryIndex {
 public:
  SecondaryIndex(std::string name, int column_index)
      : name_(std::move(name)), column_index_(column_index) {}

  const std::string& name() const { return name_; }
  int column_index() const { return column_index_; }

  void Add(const Value& key, const Value& pk);
  void Remove(const Value& key, const Value& pk);
  /// Primary keys whose indexed column equals `key` (empty when none).
  const std::vector<Value>* Lookup(const Value& key) const;

 private:
  std::string name_;
  int column_index_;
  BPlusTree<std::vector<Value>> tree_;
};

/// A physical table in a storage node: schema + B+Tree of versioned rows.
///
/// Rows are keyed by the declared single-column primary key, or by a hidden
/// monotonically increasing row id when the schema declares none. Each key
/// maps to a newest-first `VersionedRow` chain (storage/mvcc.h): writers
/// install pending versions under the exclusive latch and a commit restamps
/// them with an epoch; readers resolve chains against a `ReadView`, so a
/// snapshot scan never blocks on — and is never torn by — concurrent DML.
///
/// Latch discipline (caller-side, as before): chain *navigation* and any
/// structural access to the trees require the latch (shared suffices for
/// reads); version *data* resolved under the latch stays readable after it
/// drops for as long as the resolving view's snapshot is pinned, because
/// versions are immutable and GC never frees what a pinned snapshot can
/// reach. `row_count()` and `IndexHeight()` are the exceptions: safe without
/// the latch (atomic counter / internal shared section).
class Table {
 public:
  /// `epochs` stamps self-committing writes and bounds GC; standalone tables
  /// (unit tests) may pass nullptr and get single-epoch behaviour.
  Table(std::string name, Schema schema, EpochManager* epochs = nullptr);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  int pk_index() const { return pk_index_; }

  /// Number of live rows in the latest state. Lock-free: maintained as an
  /// atomic at write/commit/abort time, so monitoring reads need no latch
  /// (previously this read the tree size unlatched — a TSan-visible race).
  size_t row_count() const {
    return static_cast<size_t>(live_rows_.load(std::memory_order_relaxed));
  }
  /// B+Tree height; takes a brief shared-latch section internally (exposed
  /// to benchmarks, which call it with no latch held).
  int IndexHeight() const SPHERE_EXCLUDES(latch_);

  /// Transactional writes — caller holds the writer latch. They install a
  /// *pending* version owned by `writer` (> 0); the statement/transaction
  /// later either `CommitWrite`s it with a commit epoch or `AbortWrite`s it.
  /// `writer == 0` self-commits: the version is stamped with the current
  /// visible epoch and becomes immediately visible (legacy/non-snapshot
  /// callers: bulk loads, migration copies, standalone-table tests).
  Status Insert(const Row& row, Value* out_pk, int64_t writer);
  Status Update(const Value& pk, const Row& new_row, int64_t writer);
  Status Delete(const Value& pk, Row* old_row, int64_t writer);

  // Self-committing spellings (writer == 0).
  Status Insert(const Row& row, Value* out_pk) {
    return Insert(row, out_pk, 0);
  }
  Status Update(const Value& pk, const Row& new_row) {
    return Update(pk, new_row, 0);
  }
  Status Delete(const Value& pk, Row* old_row) {
    return Delete(pk, old_row, 0);
  }

  /// Restamps `writer`'s pending versions under `pk` with commit `epoch`
  /// and relinks them to the chain head, so visibility order follows commit
  /// order even when concurrent writers interleaved on the row. Caller holds
  /// the writer latch and the epoch manager's commit section.
  void CommitWrite(const Value& pk, int64_t writer, uint64_t epoch);

  /// Unlinks `writer`'s pending versions under `pk`, restoring secondary
  /// index postings and the live-row count; removes the key when the chain
  /// empties. Caller holds the writer latch. `newest_only` unlinks just the
  /// newest owned version — statement-level rollback inside a transaction,
  /// where older owned versions belong to already-accepted statements.
  void AbortWrite(const Value& pk, int64_t writer, bool newest_only = false);

  /// The newest row version `view` may observe under `pk`, or nullptr
  /// (absent / tombstoned / not yet visible). Caller holds the latch.
  const Row* FindVisible(const Value& pk, const ReadView& view) const {
    const VersionedRow* vr = rows_.Find(pk);
    return vr == nullptr ? nullptr : ResolveRow(*vr, view);
  }
  /// Latest committed row under `pk` (pending versions skipped), or nullptr.
  /// Caller holds the latch.
  const Row* Find(const Value& pk) const {
    return FindVisible(pk, ReadView{});
  }

  BPlusTree<VersionedRow>::Iterator Begin() const { return rows_.Begin(); }
  BPlusTree<VersionedRow>::Iterator LowerBound(const Value& key) const {
    return rows_.LowerBoundIter(key);
  }

  /// Removes every row. Retired chains move to a graveyard that the next
  /// install (or `GcVersions`) drains once no pinned snapshot can still
  /// read them.
  void Truncate();

  /// One full turn of the version-chain GC that installs run a few chains
  /// at a time: prunes every version superseded before the oldest live
  /// snapshot (keeping the newest version at or below it), erases keys
  /// whose chain reduced to a dead tombstone, and frees retired (truncated)
  /// chains past all pins. Takes the writer latch itself; returns the
  /// number of versions freed (also accumulated into
  /// `storage.mvcc.gc_pruned`).
  size_t GcVersions() SPHERE_EXCLUDES(latch_);

  /// Total version nodes currently chained (live + superseded + pending +
  /// graveyard), for GC tests. Takes a shared-latch section internally.
  size_t version_count() const SPHERE_EXCLUDES(latch_);

  /// Creates a secondary index on `column`. AlreadyExists when the name is
  /// taken; NotFound for an unknown column.
  Status CreateIndex(const std::string& index_name, const std::string& column);
  /// The index covering `column_index`, or nullptr.
  const SecondaryIndex* FindIndexOn(int column_index) const;

  /// Operation latch. Readers take it shared (ReaderLock), writers unique
  /// (WriterLock). The discipline is caller-side: the executor/transaction
  /// layer brackets multi-step operations, so row accessors deliberately
  /// carry no REQUIRES annotations of their own.
  SharedMutex& latch() const SPHERE_RETURN_CAPABILITY(latch_) {
    return latch_;
  }

  EpochManager* epochs() const { return epochs_; }

 private:
  Status ValidateAndCast(const Row& row, Row* out) const;
  /// Stamp for writer 0 writes: current visible epoch (1 when standalone).
  uint64_t SelfCommitStamp() const {
    return epochs_ != nullptr ? epochs_->visible() : 1;
  }
  /// Chains the clock hand prunes per install (DESIGN.md §15).
  static constexpr size_t kHandSteps = 2;

  /// Pushes `v` (acquired from the pool, data filled) at the head of `pk`'s
  /// chain, creating the chain, then frees what no pinned snapshot can
  /// reach: the rest of this chain, the next `kHandSteps` chains under the
  /// clock hand, and the freeable part of the truncation graveyard.
  void InstallVersion(const Value& pk, RowVersion* v, bool deleted,
                      int64_t writer);
  /// Frees the committed versions on one chain that are older than the
  /// newest committed version at or below `oldest`; other writers' pending
  /// versions stay linked. Clears the chain when only a dead tombstone
  /// remains. Returns versions freed.
  size_t PruneChain(VersionedRow* vr, uint64_t oldest);
  /// Prunes `steps` chains in key order starting at the first key >= `from`
  /// (the first key when `from` is NULL), wrapping past the last key, and
  /// erases keys whose chain emptied. The chain under `skip` is passed over.
  /// Adds the versions freed to `*freed`; returns the key the next sweep
  /// starts at (NULL: the first key).
  Value SweepChains(const Value& from, size_t steps, const Value* skip,
                    uint64_t oldest, size_t* freed);
  /// Frees retired chains whose retirement predates every pin; returns the
  /// versions freed.
  size_t DrainGraveyard();

  const std::string name_;
  const Schema schema_;
  const int pk_index_;
  EpochManager* const epochs_;
  // analyze-exempt(guarded-by): guarded by latch_, caller-side discipline
  int64_t next_rowid_ = 1;
  // analyze-exempt(guarded-by): guarded by latch_, caller-side discipline
  BPlusTree<VersionedRow> rows_;
  // analyze-exempt(guarded-by): guarded by latch_, caller-side discipline
  std::vector<std::unique_ptr<SecondaryIndex>> indexes_;
  /// Chains retired by Truncate, still readable by pinned snapshots.
  struct RetiredChain {
    VersionedRow row;
    uint64_t epoch = 0;  ///< visible epoch at retirement
  };
  // analyze-exempt(guarded-by): guarded by latch_, caller-side discipline
  std::vector<RetiredChain> graveyard_;
  /// Clock hand: the key the next install's sweep starts at (NULL: the
  /// first key).
  // analyze-exempt(guarded-by): guarded by latch_, caller-side discipline
  Value hand_;
  // analyze-exempt(guarded-by): internally synchronized (atomic)
  std::atomic<int64_t> live_rows_{0};
  mutable SharedMutex latch_{LockRank::kStorage, "storage/table.latch"};
};

}  // namespace sphere::storage

#endif  // SPHERE_STORAGE_TABLE_H_
