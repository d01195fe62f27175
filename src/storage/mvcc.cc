#include "storage/mvcc.h"

#include <algorithm>
#include <limits>

#include "common/metrics.h"

namespace sphere::storage {

// ---------------------------------------------------------------------------
// VersionPool
// ---------------------------------------------------------------------------

VersionPool::VersionPool() {
  metrics::Registry::Instance().PublishProbe(
      "storage.mvcc.versions", this, [this] { return live(); });
}

VersionPool& VersionPool::Instance() {
  static VersionPool* pool = new VersionPool();  // immortal, like RowStore
  return *pool;
}

RowVersion* VersionPool::Acquire() {
  live_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lk(mu_);
    if (!free_.empty()) {
      RowVersion* v = free_.back();
      free_.pop_back();
      return v;
    }
  }
  return new RowVersion();
}

void VersionPool::Release(RowVersion* v) {
  live_.fetch_sub(1, std::memory_order_relaxed);
  v->stamp.store(0, std::memory_order_relaxed);
  v->deleted = false;
  v->older = nullptr;
  v->data.clear();  // keeps element capacity for the next writer
  {
    MutexLock lk(mu_);
    if (free_.size() < kMaxFree) {
      free_.push_back(v);
      return;
    }
  }
  delete v;
}

void VersionPool::ReleaseChain(RowVersion* head) {
  while (head != nullptr) {
    RowVersion* next = head->older;
    Release(head);
    head = next;
  }
}

void VersionPool::Clear() {
  std::vector<RowVersion*> drained;
  {
    MutexLock lk(mu_);
    drained.swap(free_);
  }
  for (RowVersion* v : drained) delete v;
}

// ---------------------------------------------------------------------------
// EpochManager
// ---------------------------------------------------------------------------

namespace {

/// Process-wide set of live epoch managers so `storage.mvcc.snapshot_age`
/// reports the worst lag across every storage node in the process.
class EpochManagerDirectory {
 public:
  static EpochManagerDirectory& Instance() {
    static EpochManagerDirectory* dir = new EpochManagerDirectory();
    return *dir;
  }

  void Register(const EpochManager* em) {
    MutexLock lk(mu_);
    managers_.push_back(em);
  }
  void Unregister(const EpochManager* em) {
    MutexLock lk(mu_);
    managers_.erase(std::remove(managers_.begin(), managers_.end(), em),
                    managers_.end());
  }

  int64_t MaxSnapshotAge() const {
    MutexLock lk(mu_);
    int64_t worst = 0;
    for (const EpochManager* em : managers_) {
      worst = std::max(worst, em->SnapshotAge());
    }
    return worst;
  }

 private:
  EpochManagerDirectory() {
    metrics::Registry::Instance().PublishProbe(
        "storage.mvcc.snapshot_age", this, [this] { return MaxSnapshotAge(); });
  }

  mutable Mutex mu_{LockRank::kCommon, "storage/mvcc.epoch_directory"};
  std::vector<const EpochManager*> managers_ SPHERE_GUARDED_BY(mu_);
};

}  // namespace

EpochManager::EpochManager() {
  EpochManagerDirectory::Instance().Register(this);
}

EpochManager::~EpochManager() {
  EpochManagerDirectory::Instance().Unregister(this);
}

uint64_t EpochManager::BeginCommit() {
  commit_mu_.Lock();
  return visible_.load(std::memory_order_relaxed) + 1;
}

void EpochManager::EndCommit(uint64_t epoch) {
  visible_.store(epoch, std::memory_order_release);
  commit_mu_.Unlock();
}

void EpochManager::AbortCommit() { commit_mu_.Unlock(); }

int EpochManager::Pin(uint64_t* out_epoch, uint64_t* out_pinned) {
  // Pin-then-reread: publish a provisional pin first (seq_cst), then read
  // the epoch actually used for the snapshot. Any commit that publishes
  // after the pin is visible to GC's slot scan, and the re-read can only
  // observe a larger epoch than the pin — so the pinned floor is always at
  // or below the snapshot, never above it.
  uint64_t provisional = visible_.load(std::memory_order_seq_cst);
  uint32_t start = pin_cursor_.fetch_add(1, std::memory_order_relaxed);
  int slot = -1;
  for (size_t i = 0; i < kPinSlots; ++i) {
    size_t idx = (start + i) % kPinSlots;
    uint64_t expected = 0;
    if (pins_[idx].epoch.compare_exchange_strong(
            expected, provisional, std::memory_order_seq_cst)) {
      slot = static_cast<int>(idx);
      break;
    }
  }
  if (slot < 0) {
    MutexLock lk(overflow_mu_);
    overflow_pins_.push_back(provisional);
  }
  *out_pinned = provisional;
  *out_epoch = visible_.load(std::memory_order_seq_cst);
  return slot;
}

void EpochManager::Unpin(int slot, uint64_t pinned) {
  if (slot >= 0) {
    pins_[static_cast<size_t>(slot)].epoch.store(0, std::memory_order_release);
    return;
  }
  MutexLock lk(overflow_mu_);
  auto it = std::find(overflow_pins_.begin(), overflow_pins_.end(), pinned);
  if (it != overflow_pins_.end()) overflow_pins_.erase(it);
}

uint64_t EpochManager::OldestLiveSnapshot() const {
  // The visible epoch must be read *before* the pin slots, in its own
  // statement (the order in which function arguments are evaluated is
  // unspecified). Scanning first is unsafe: a reader can CAS its slot just
  // after the scan passed it and reread epoch E, a commit can then publish
  // E+1, and the late load returns E+1 as the floor, above the reader's
  // snapshot; GC would free the version E resolves to. With the load first,
  // a slot the scan misses was claimed after that load (seq_cst total
  // order), so the reader's reread sees at least the loaded epoch and the
  // floor stays at or below its snapshot.
  const uint64_t visible = visible_.load(std::memory_order_seq_cst);
  return std::min(visible, OldestPinOrMax());
}

uint64_t EpochManager::OldestPinOrMax() const {
  uint64_t oldest = std::numeric_limits<uint64_t>::max();
  for (const PinSlot& p : pins_) {
    uint64_t e = p.epoch.load(std::memory_order_seq_cst);
    if (e != 0 && e < oldest) oldest = e;
  }
  {
    MutexLock lk(overflow_mu_);
    for (uint64_t e : overflow_pins_) {
      if (e != 0 && e < oldest) oldest = e;
    }
  }
  return oldest;
}

int64_t EpochManager::SnapshotAge() const {
  return static_cast<int64_t>(visible()) -
         static_cast<int64_t>(OldestLiveSnapshot());
}

}  // namespace sphere::storage
