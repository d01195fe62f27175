#include "storage/table.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/metrics.h"
#include "common/strings.h"

namespace sphere::storage {

namespace {

/// Versions freed by chain pruning across the process (inline + GcVersions).
metrics::Counter& GcPrunedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Instance().GetCounter("storage.mvcc.gc_pruned");
  return *c;
}

/// Returns a pool node that never got linked into a chain (the write failed
/// validation or a key check).
struct ReleaseToPool {
  void operator()(RowVersion* v) const { VersionPool::Instance().Release(v); }
};
using UnlinkedVersion = std::unique_ptr<RowVersion, ReleaseToPool>;

UnlinkedVersion AcquireVersion() {
  return UnlinkedVersion(VersionPool::Instance().Acquire());
}

}  // namespace

void SecondaryIndex::Add(const Value& key, const Value& pk) {
  std::vector<Value>* pks = tree_.Find(key);
  if (pks == nullptr) {
    tree_.Insert(key, {pk});
  } else {
    pks->push_back(pk);
  }
}

void SecondaryIndex::Remove(const Value& key, const Value& pk) {
  std::vector<Value>* pks = tree_.Find(key);
  if (pks == nullptr) return;
  pks->erase(std::remove(pks->begin(), pks->end(), pk), pks->end());
  if (pks->empty()) tree_.Erase(key);
}

const std::vector<Value>* SecondaryIndex::Lookup(const Value& key) const {
  return tree_.Find(key);
}

Table::Table(std::string name, Schema schema, EpochManager* epochs)
    : name_(std::move(name)), schema_(std::move(schema)),
      pk_index_(schema_.PrimaryKeyIndex()), epochs_(epochs) {}

Status Table::ValidateAndCast(const Row& row, Row* out) const {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        StrFormat("table %s expects %zu columns, got %zu", name_.c_str(),
                  schema_.size(), row.size()));
  }
  out->clear();
  out->reserve(row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null() && schema_.column(i).not_null) {
      return Status::InvalidArgument("NULL in NOT NULL column " +
                                     schema_.column(i).name);
    }
    out->push_back(row[i].CastTo(schema_.column(i).type));
  }
  return Status::OK();
}

void Table::InstallVersion(const Value& pk, RowVersion* v, bool deleted,
                           int64_t writer) {
  v->deleted = deleted;
  uint64_t stamp = writer > 0 ? kPendingBase + static_cast<uint64_t>(writer)
                              : SelfCommitStamp();
  v->stamp.store(stamp, std::memory_order_release);
  // One GC floor per install bounds both prunes below. Pruning here, on the
  // path that already holds the writer latch, keeps chains at what a pinned
  // snapshot can resolve without a background thread.
  const uint64_t oldest =
      epochs_ != nullptr ? epochs_->OldestLiveSnapshot() : kEpochLatest;
  size_t freed = 0;
  VersionedRow* vr = rows_.Find(pk);
  if (vr == nullptr) {
    VersionedRow fresh;
    fresh.head = v;
    rows_.Insert(pk, std::move(fresh));
  } else {
    v->older = vr->head;
    vr->head = v;
    if (v->older != nullptr) freed += PruneChain(vr, oldest);
  }
  // The clock hand frees what a row keeps until its next write (the
  // committed predecessor of its last install) and erases dead tombstones,
  // so rows that go cold lose their tails within one turn. `vr` is not used
  // past this point: the sweep may erase keys and shift the leaf it lives in.
  hand_ = SweepChains(hand_, kHandSteps, &pk, oldest, &freed);
  if (!graveyard_.empty()) freed += DrainGraveyard();
  if (freed > 0) GcPrunedCounter().Add(static_cast<int64_t>(freed));
}

size_t Table::PruneChain(VersionedRow* vr, uint64_t oldest) {
  // Keeper: the newest committed version at or below `oldest` — the version
  // the most lagging pinned snapshot resolves to. Every committed version
  // older than it is unreachable by any live or future snapshot.
  RowVersion* keeper = nullptr;
  for (RowVersion* v = vr->head; v != nullptr; v = v->older) {
    uint64_t s = v->stamp.load(std::memory_order_relaxed);
    if (s < kPendingBase && s <= oldest) {
      keeper = v;
      break;
    }
  }
  if (keeper == nullptr) return 0;
  // A pending version below the keeper belongs to a writer that installed
  // before another writer's commit; it stays linked so its own CommitWrite
  // or AbortWrite still finds it.
  size_t freed = 0;
  RowVersion** link = &keeper->older;
  while (*link != nullptr) {
    RowVersion* v = *link;
    if (v->stamp.load(std::memory_order_relaxed) >= kPendingBase) {
      link = &v->older;
      continue;
    }
    *link = v->older;
    VersionPool::Instance().Release(v);
    ++freed;
  }
  // A chain that reduced to a single dead committed tombstone is fully
  // garbage: no snapshot can resolve a row from it anymore.
  if (keeper == vr->head && keeper->deleted && keeper->older == nullptr) {
    VersionPool::Instance().Release(keeper);
    vr->head = nullptr;
    ++freed;
  }
  return freed;
}

Value Table::SweepChains(const Value& from, size_t steps, const Value* skip,
                         uint64_t oldest, size_t* freed) {
  using Iterator = BPlusTree<VersionedRow>::Iterator;
  Iterator it = from.is_null() ? rows_.Begin() : rows_.LowerBoundIter(from);
  for (size_t i = 0; i < steps; ++i) {
    if (!it.Valid()) {
      it = rows_.Begin();
      if (!it.Valid()) break;  // empty table
    }
    if (skip != nullptr && it.key() == *skip) {
      it.Next();  // pruned by the install that runs this sweep
      continue;
    }
    VersionedRow& vr = it.payload();
    *freed += PruneChain(&vr, oldest);
    if (vr.head != nullptr) {
      it.Next();
      continue;
    }
    // Erasing shifts the leaf under the iterator: take the next key first,
    // then re-seek to it.
    Value dead = it.key();
    it.Next();
    Value next = it.Valid() ? it.key() : Value();
    rows_.Erase(dead);
    it = next.is_null() ? Iterator() : rows_.LowerBoundIter(next);
  }
  return it.Valid() ? it.key() : Value();
}

size_t Table::DrainGraveyard() {
  uint64_t pin_floor = epochs_ != nullptr
                           ? epochs_->OldestPinOrMax()
                           : std::numeric_limits<uint64_t>::max();
  size_t freed = 0;
  auto dead = std::remove_if(
      graveyard_.begin(), graveyard_.end(), [&](const RetiredChain& rc) {
        if (rc.epoch >= pin_floor) return false;
        for (const RowVersion* v = rc.row.head; v != nullptr; v = v->older) {
          ++freed;
        }
        return true;
      });
  graveyard_.erase(dead, graveyard_.end());  // frees the chains
  return freed;
}

Status Table::Insert(const Row& row, Value* out_pk, int64_t writer) {
  // Cast straight into a pooled node so its kept row capacity is reused.
  UnlinkedVersion v = AcquireVersion();
  SPHERE_RETURN_NOT_OK(ValidateAndCast(row, &v->data));
  const Row& casted = v->data;
  Value pk;
  if (pk_index_ >= 0) {
    pk = casted[static_cast<size_t>(pk_index_)];
    if (pk.is_null()) {
      return Status::InvalidArgument("NULL primary key in table " + name_);
    }
    const VersionedRow* vr = rows_.Find(pk);
    if (vr != nullptr && vr->head != nullptr) {
      // Conflict when the row is live in this writer's view, or another
      // writer has a pending (not yet visible) insert at the head — the
      // pre-MVCC behaviour for concurrent duplicate keys.
      const RowVersion* mine = ResolveVersion(*vr, ReadView::Latest(writer));
      bool head_pending_live = vr->head->pending() && !vr->head->deleted;
      if (mine != nullptr || head_pending_live) {
        return Status::Conflict(
            StrFormat("duplicate primary key %s in table %s",
                      pk.ToString().c_str(), name_.c_str()));
      }
    }
  } else {
    pk = Value(next_rowid_++);
  }
  for (auto& idx : indexes_) {
    idx->Add(casted[static_cast<size_t>(idx->column_index())], pk);
  }
  InstallVersion(pk, v.release(), /*deleted=*/false, writer);
  live_rows_.fetch_add(1, std::memory_order_relaxed);
  if (out_pk != nullptr) *out_pk = pk;
  return Status::OK();
}

Status Table::Update(const Value& pk, const Row& new_row, int64_t writer) {
  VersionedRow* vr = rows_.Find(pk);
  const RowVersion* old_v =
      vr == nullptr ? nullptr : ResolveVersion(*vr, ReadView::Latest(writer));
  if (old_v == nullptr) {
    return Status::NotFound("no row with key " + pk.ToString());
  }
  UnlinkedVersion v = AcquireVersion();
  SPHERE_RETURN_NOT_OK(ValidateAndCast(new_row, &v->data));
  const Row& casted = v->data;
  if (pk_index_ >= 0 && casted[static_cast<size_t>(pk_index_)] != pk) {
    return Status::InvalidArgument("primary key update is not supported");
  }
  for (auto& idx : indexes_) {
    size_t ci = static_cast<size_t>(idx->column_index());
    if (old_v->data[ci] != casted[ci]) {
      idx->Remove(old_v->data[ci], pk);
      idx->Add(casted[ci], pk);
    }
  }
  InstallVersion(pk, v.release(), /*deleted=*/false, writer);
  return Status::OK();
}

Status Table::Delete(const Value& pk, Row* old_row, int64_t writer) {
  VersionedRow* vr = rows_.Find(pk);
  const RowVersion* old_v =
      vr == nullptr ? nullptr : ResolveVersion(*vr, ReadView::Latest(writer));
  if (old_v == nullptr) {
    return Status::NotFound("no row with key " + pk.ToString());
  }
  if (old_row != nullptr) *old_row = old_v->data;
  for (auto& idx : indexes_) {
    idx->Remove(old_v->data[static_cast<size_t>(idx->column_index())], pk);
  }
  InstallVersion(pk, VersionPool::Instance().Acquire(), /*deleted=*/true,
                 writer);
  live_rows_.fetch_sub(1, std::memory_order_relaxed);
  return Status::OK();
}

void Table::CommitWrite(const Value& pk, int64_t writer, uint64_t epoch) {
  VersionedRow* vr = rows_.Find(pk);
  if (vr == nullptr || writer <= 0) return;
  const uint64_t pend = kPendingBase + static_cast<uint64_t>(writer);
  // Unlink the writer's pending versions, preserving their newest-first
  // relative order.
  RowVersion* owned_head = nullptr;
  RowVersion* owned_tail = nullptr;
  RowVersion** link = &vr->head;
  while (*link != nullptr) {
    RowVersion* v = *link;
    if (v->stamp.load(std::memory_order_relaxed) == pend) {
      *link = v->older;
      v->older = nullptr;
      if (owned_head == nullptr) {
        owned_head = owned_tail = v;
      } else {
        owned_tail->older = v;
        owned_tail = v;
      }
    } else {
      link = &v->older;
    }
  }
  if (owned_head == nullptr) return;
  // Stamp with the commit epoch and splice back at the head: visibility
  // order must follow commit order, not install order, when writers
  // interleaved on the same row.
  for (RowVersion* v = owned_head; v != nullptr; v = v->older) {
    v->stamp.store(epoch, std::memory_order_release);
  }
  owned_tail->older = vr->head;
  vr->head = owned_head;
}

void Table::AbortWrite(const Value& pk, int64_t writer, bool newest_only) {
  VersionedRow* vr = rows_.Find(pk);
  if (vr == nullptr || writer <= 0) return;
  const uint64_t pend = kPendingBase + static_cast<uint64_t>(writer);
  RowVersion** link = &vr->head;
  while (*link != nullptr) {
    RowVersion* v = *link;
    if (v->stamp.load(std::memory_order_relaxed) != pend) {
      link = &v->older;
      continue;
    }
    // The image this version superseded when it was installed: the first
    // version below it that is not another writer's pending (matching the
    // write-time resolve view). Used to restore index postings and the
    // live-row count.
    const RowVersion* below = nullptr;
    for (const RowVersion* b = v->older; b != nullptr; b = b->older) {
      uint64_t s = b->stamp.load(std::memory_order_relaxed);
      if (s >= kPendingBase && s != pend) continue;
      below = b;
      break;
    }
    bool below_live = below != nullptr && !below->deleted;
    if (!v->deleted) {
      for (auto& idx : indexes_) {
        size_t ci = static_cast<size_t>(idx->column_index());
        if (below_live) {
          if (v->data[ci] != below->data[ci]) {
            idx->Remove(v->data[ci], pk);
            idx->Add(below->data[ci], pk);
          }
        } else {
          idx->Remove(v->data[ci], pk);
        }
      }
      if (!below_live) live_rows_.fetch_sub(1, std::memory_order_relaxed);
    } else if (below_live) {
      for (auto& idx : indexes_) {
        size_t ci = static_cast<size_t>(idx->column_index());
        idx->Add(below->data[ci], pk);
      }
      live_rows_.fetch_add(1, std::memory_order_relaxed);
    }
    *link = v->older;
    VersionPool::Instance().Release(v);
    if (newest_only) break;
  }
  if (vr->head == nullptr) rows_.Erase(pk);
}

int Table::IndexHeight() const {
  ReaderLock lk(latch_);
  return rows_.Height();
}

void Table::Truncate() {
  // Retired chains may still be resolvable by pinned snapshot readers whose
  // cursors hold borrowed row pointers; park them in the graveyard until GC
  // proves no pin predates the truncation. With no pins at all, free now.
  uint64_t pin_floor = epochs_ != nullptr
                           ? epochs_->OldestPinOrMax()
                           : std::numeric_limits<uint64_t>::max();
  uint64_t retire_epoch = epochs_ != nullptr ? epochs_->visible() : 0;
  if (retire_epoch >= pin_floor) {
    for (auto it = rows_.Begin(); it.Valid(); it.Next()) {
      RetiredChain rc;
      rc.row = std::move(it.payload());
      rc.epoch = retire_epoch;
      graveyard_.push_back(std::move(rc));
    }
  }
  rows_.Clear();
  std::vector<std::unique_ptr<SecondaryIndex>> rebuilt;
  rebuilt.reserve(indexes_.size());
  for (auto& idx : indexes_) {
    rebuilt.push_back(
        std::make_unique<SecondaryIndex>(idx->name(), idx->column_index()));
  }
  indexes_ = std::move(rebuilt);
  next_rowid_ = 1;
  hand_ = Value();
  live_rows_.store(0, std::memory_order_relaxed);
}

size_t Table::GcVersions() {
  WriterLock lk(latch_);
  uint64_t oldest =
      epochs_ != nullptr ? epochs_->OldestLiveSnapshot() : kEpochLatest;
  size_t pruned = 0;
  SweepChains(Value(), rows_.size(), /*skip=*/nullptr, oldest, &pruned);
  pruned += DrainGraveyard();
  if (pruned > 0) GcPrunedCounter().Add(static_cast<int64_t>(pruned));
  return pruned;
}

size_t Table::version_count() const {
  ReaderLock lk(latch_);
  size_t n = 0;
  for (auto it = rows_.Begin(); it.Valid(); it.Next()) {
    for (const RowVersion* v = it.payload().head; v != nullptr; v = v->older) {
      ++n;
    }
  }
  for (const RetiredChain& rc : graveyard_) {
    for (const RowVersion* v = rc.row.head; v != nullptr; v = v->older) ++n;
  }
  return n;
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::string& column) {
  for (const auto& idx : indexes_) {
    if (EqualsIgnoreCase(idx->name(), index_name)) {
      return Status::AlreadyExists("index " + index_name);
    }
  }
  int ci = schema_.IndexOf(column);
  if (ci < 0) {
    return Status::NotFound("column " + column + " in table " + name_);
  }
  auto idx = std::make_unique<SecondaryIndex>(index_name, ci);
  // Backfill from the latest state (chain heads), matching the eager
  // maintenance the write path performs: pending rows get postings at
  // install time and lose them on abort.
  for (auto it = rows_.Begin(); it.Valid(); it.Next()) {
    const RowVersion* head = it.payload().head;
    if (head != nullptr && !head->deleted) {
      idx->Add(head->data[static_cast<size_t>(ci)], it.key());
    }
  }
  indexes_.push_back(std::move(idx));
  return Status::OK();
}

const SecondaryIndex* Table::FindIndexOn(int column_index) const {
  for (const auto& idx : indexes_) {
    if (idx->column_index() == column_index) return idx.get();
  }
  return nullptr;
}

}  // namespace sphere::storage
