#include "engine/row_batch.h"

#include <algorithm>

#include "common/metrics.h"

namespace sphere::engine {

RowStore& RowStore::Instance() {
  static RowStore store;
  // Pool occupancy probes, published once (DESIGN.md §13).
  static bool published = [] {
    auto& registry = metrics::Registry::Instance();
    registry.PublishProbe("row_store.pooled_rows", &store, [] {
      return static_cast<int64_t>(Instance().pooled_rows());
    });
    registry.PublishProbe("row_store.pooled_shells", &store, [] {
      return static_cast<int64_t>(Instance().pooled_shells());
    });
    return true;
  }();
  (void)published;
  return store;
}

std::vector<Row> RowStore::AcquireShell() {
  MutexLock lk(mu_);
  if (shells_.empty()) return {};
  std::vector<Row> shell = std::move(shells_.back());
  shells_.pop_back();
  return shell;
}

size_t RowStore::AcquireRows(std::vector<Row>* out, size_t max) {
  if (max == 0) return 0;
  MutexLock lk(mu_);
  size_t n = std::min(max, rows_.size());
  if (n == 0) return 0;
  out->insert(out->end(), std::make_move_iterator(rows_.end() - n),
              std::make_move_iterator(rows_.end()));
  rows_.resize(rows_.size() - n);
  return n;
}

void RowStore::Release(std::vector<Row>&& batch) {
  MutexLock lk(mu_);
  for (Row& row : batch) {
    if (rows_.size() >= kMaxRows) break;
    // Husks (rows whose storage was moved elsewhere) carry no reusable
    // capacity; recycling them would just hand out empty rows.
    if (row.capacity() == 0) continue;
    rows_.push_back(std::move(row));
  }
  if (shells_.size() < kMaxShells && batch.capacity() > 0) {
    batch.clear();
    shells_.push_back(std::move(batch));
  }
}

std::vector<std::string> RowStore::AcquireLabelShell() {
  MutexLock lk(mu_);
  if (label_shells_.empty()) return {};
  std::vector<std::string> shell = std::move(label_shells_.back());
  label_shells_.pop_back();
  return shell;
}

void RowStore::ReleaseLabels(std::vector<std::string>&& labels) {
  if (labels.capacity() == 0) return;
  labels.clear();
  MutexLock lk(mu_);
  if (label_shells_.size() < kMaxShells) {
    label_shells_.push_back(std::move(labels));
  }
}

void* RowStore::AcquireBlock(size_t size) {
  {
    MutexLock lk(mu_);
    if (!blocks_.empty() && block_size_ == size) {
      void* p = blocks_.back();
      blocks_.pop_back();
      return p;
    }
  }
  return ::operator new(size);
}

bool RowStore::ReleaseBlock(void* p, size_t size) {
  MutexLock lk(mu_);
  if (block_size_ != size) {
    // First release (or a size change, e.g. a new subclass) repoints the
    // pool; stale blocks of the old size are freed by the caller's fallback.
    if (!blocks_.empty()) return false;
    block_size_ = size;
  }
  if (blocks_.size() >= kMaxBlocks) return false;
  blocks_.push_back(p);
  return true;
}

size_t RowStore::pooled_rows() const {
  MutexLock lk(mu_);
  return rows_.size();
}

size_t RowStore::pooled_shells() const {
  MutexLock lk(mu_);
  return shells_.size();
}

void RowStore::Clear() {
  MutexLock lk(mu_);
  ClearLocked();
}

void RowStore::ClearLocked() {
  shells_.clear();
  rows_.clear();
  label_shells_.clear();
  for (void* p : blocks_) ::operator delete(p);
  blocks_.clear();
  block_size_ = 0;
}

RowStore::~RowStore() SPHERE_NO_THREAD_SAFETY_ANALYSIS { ClearLocked(); }

RowBatch::RowBatch(size_t spare_hint)
    : out_(RowStore::Instance().AcquireShell()) {
  RowStore::Instance().AcquireRows(&spare_, spare_hint);
}

RowBatch::~RowBatch() {
  RowStore::Instance().Release(std::move(spare_));
  // Whatever is still in out_ was never taken by the producer (early error
  // path); its rows are reusable as-is.
  RowStore::Instance().Release(std::move(out_));
}

}  // namespace sphere::engine
