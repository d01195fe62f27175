#ifndef SPHERE_ENGINE_ROW_BATCH_H_
#define SPHERE_ENGINE_ROW_BATCH_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/value.h"

namespace sphere::engine {

/// Process-wide recycler for row storage (DESIGN.md §12).
///
/// Two things are pooled, separately:
///  - *shells*: empty `std::vector<Row>` batch vectors that keep their
///    element capacity, so a drain/projection loop never regrows its spine;
///  - *rows*: individual `Row`s whose `Value` cells keep their string
///    capacity, so projecting a row into one reuses the string buffer in
///    place (same-alternative variant assignment) instead of allocating.
///
/// The pool is bounded: releases beyond the caps are simply dropped (their
/// storage freed), so a burst cannot pin memory forever. Moved-from husks
/// (capacity-0 rows left behind by a batch move) are filtered out on
/// release — recycling them would defeat the capacity-reuse contract.
///
/// Thread-safe; the internal mutex ranks kCommon (a leaf), so any layer may
/// call in while holding its own locks.
class RowStore {
 public:
  static constexpr size_t kMaxShells = 16;
  static constexpr size_t kMaxRows = 16384;
  static constexpr size_t kMaxBlocks = 64;

  static RowStore& Instance();

  /// An empty batch vector, with recycled spine capacity when available.
  std::vector<Row> AcquireShell() SPHERE_EXCLUDES(mu_);

  /// Appends up to `max` capacity-rich recycled rows to `*out`; returns how
  /// many were appended (0 when the pool is empty).
  size_t AcquireRows(std::vector<Row>* out, size_t max) SPHERE_EXCLUDES(mu_);

  /// Returns a consumed batch: non-husk rows feed the row pool, the cleared
  /// spine feeds the shell pool; anything over the caps is freed.
  void Release(std::vector<Row>&& batch) SPHERE_EXCLUDES(mu_);

  /// Recycled spine for a result's column labels (empty; capacity reused).
  std::vector<std::string> AcquireLabelShell() SPHERE_EXCLUDES(mu_);

  /// Returns a label vector: cleared, spine pooled up to kMaxShells.
  void ReleaseLabels(std::vector<std::string>&& labels) SPHERE_EXCLUDES(mu_);

  /// Fixed-size raw block recycler backing VectorResultSet's operator new.
  /// All blocks in the pool share one size (`block_size`); a mismatched
  /// request empties the pool and falls back to the heap.
  void* AcquireBlock(size_t size) SPHERE_EXCLUDES(mu_);
  bool ReleaseBlock(void* p, size_t size) SPHERE_EXCLUDES(mu_);

  /// Pool occupancy (tests/observability).
  size_t pooled_rows() const SPHERE_EXCLUDES(mu_);
  size_t pooled_shells() const SPHERE_EXCLUDES(mu_);

  /// Frees everything pooled (tests isolate measurements with this).
  void Clear() SPHERE_EXCLUDES(mu_);

 private:
  RowStore() = default;
  /// Pooled raw blocks are owned pointers; the singleton must free them at
  /// process exit or LeakSanitizer reports every parked block as a leak.
  /// Runs lock-free: static destruction is exclusive by definition, and the
  /// lockdep thread-local state is already gone at that point.
  ~RowStore();

  void ClearLocked() SPHERE_REQUIRES(mu_);

  mutable Mutex mu_{LockRank::kCommon, "engine/row_store"};
  std::vector<std::vector<Row>> shells_ SPHERE_GUARDED_BY(mu_);
  std::vector<Row> rows_ SPHERE_GUARDED_BY(mu_);
  std::vector<std::vector<std::string>> label_shells_ SPHERE_GUARDED_BY(mu_);
  std::vector<void*> blocks_ SPHERE_GUARDED_BY(mu_);
  size_t block_size_ SPHERE_GUARDED_BY(mu_) = 0;
};

/// Convenience for drain loops: hand a fully consumed row batch back to the
/// pool.
inline void RecycleRows(std::vector<Row>&& rows) {
  RowStore::Instance().Release(std::move(rows));
}

/// Statement-local projection scratch: a bounded stash of recycled rows a
/// projection loop pops from instead of default-constructing, plus the
/// acquired output shell. Returns unused rows to the pool on destruction;
/// the filled output itself is moved out by the producer.
class RowBatch {
 public:
  /// Acquires an output shell and up to `spare_hint` recycled rows.
  explicit RowBatch(size_t spare_hint);
  ~RowBatch();

  RowBatch(const RowBatch&) = delete;
  RowBatch& operator=(const RowBatch&) = delete;

  std::vector<Row>* out() { return &out_; }
  std::vector<Row> TakeOut() { return std::move(out_); }

  /// A row to project into: recycled (capacity-rich) when available,
  /// default-constructed otherwise.
  Row NextRow() {
    if (spare_.empty()) return Row{};
    Row r = std::move(spare_.back());
    spare_.pop_back();
    return r;
  }

 private:
  std::vector<Row> out_;
  std::vector<Row> spare_;
};

}  // namespace sphere::engine

#endif  // SPHERE_ENGINE_ROW_BATCH_H_
