#ifndef SPHERE_COMMON_LRU_CACHE_H_
#define SPHERE_COMMON_LRU_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/mutex.h"

namespace sphere {

/// Counters of one cache instance. `hits`/`misses` are cumulative lookup
/// outcomes, `evictions` counts capacity-driven removals (explicit Clear and
/// Erase are not evictions), `entries` is the current resident count.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
};

/// Capacity-bounded LRU map with sharded locking.
///
/// The key space is partitioned over independently locked shards so
/// concurrent hot-path lookups from many sessions do not serialize on one
/// mutex; each shard keeps its own recency list and evicts locally once it
/// exceeds its slice of the capacity. Values should be cheap to copy —
/// typically a `shared_ptr` to an immutable payload, which also makes a hit
/// safe to use after the entry is evicted by another thread.
///
/// `KeyHash` and `KeyEqual` must be transparent (usable with any lookup type
/// convertible to a key view, e.g. `std::string_view` against `std::string`
/// keys) so Get never has to materialize a key just to probe.
///
/// A capacity of 0 disables the cache entirely: every lookup misses and Put
/// is a no-op (the miss counter still advances, so observability keeps
/// working when the cache is turned off).
template <typename Key, typename Value, typename KeyHash = std::hash<Key>,
          typename KeyEqual = std::equal_to<>>
class ShardedLRUCache {
 public:
  explicit ShardedLRUCache(size_t capacity, size_t num_shards = 8)
      : capacity_(capacity) {
    if (num_shards == 0) num_shards = 1;
    // No point in more shards than capacity slots; with capacity 0 keep one
    // (empty) shard so the code below never dereferences an empty vector.
    if (capacity > 0 && num_shards > capacity) num_shards = capacity;
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
    // Ceiling split: the shard capacities sum to >= capacity, and no shard
    // gets zero slots.
    per_shard_capacity_ = (capacity + num_shards - 1) / num_shards;
  }

  ShardedLRUCache(const ShardedLRUCache&) = delete;
  ShardedLRUCache& operator=(const ShardedLRUCache&) = delete;

  /// Looks up `key`, refreshing its recency. Returns a copy of the value.
  template <typename LookupKey>
  std::optional<Value> Get(const LookupKey& key) {
    if (capacity_ == 0) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    Shard& shard = ShardFor(key);
    MutexLock lk(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->value;
  }

  /// Inserts or overwrites `key`, making it most recent; evicts the shard's
  /// least recently used entry when over capacity. The evicted value is
  /// destroyed after the shard lock is released.
  template <typename LookupKey>
  void Put(const LookupKey& key, Value value) {
    if (capacity_ == 0) return;
    Shard& shard = ShardFor(key);
    EntryList evicted;  // declared before the lock, so destroyed after it
    MutexLock lk(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->value = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.lru.push_front(Entry{Key(key), std::move(value)});
    shard.index.emplace(shard.lru.front().key, shard.lru.begin());
    if (shard.lru.size() > per_shard_capacity_) {
      shard.index.erase(shard.lru.back().key);
      evicted.splice(evicted.begin(), shard.lru, std::prev(shard.lru.end()));
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Removes `key`; returns whether it was present.
  template <typename LookupKey>
  bool Erase(const LookupKey& key) {
    if (capacity_ == 0) return false;
    Shard& shard = ShardFor(key);
    MutexLock lk(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return false;
    shard.lru.erase(it->second);
    shard.index.erase(it);
    return true;
  }

  /// Drops every entry (counters are preserved).
  void Clear() {
    for (auto& shard : shards_) {
      MutexLock lk(shard->mu);
      shard->lru.clear();
      shard->index.clear();
    }
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& shard : shards_) {
      MutexLock lk(shard->mu);
      n += shard->lru.size();
    }
    return n;
  }

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }

  CacheStats stats() const {
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.entries = size();
    return s;
  }

 private:
  struct Entry {
    Key key;
    Value value;
  };
  using EntryList = std::list<Entry>;

  struct Shard {
    mutable Mutex mu{LockRank::kCommon, "common/lru_cache.shard"};
    /// Front = most recently used.
    EntryList lru SPHERE_GUARDED_BY(mu);
    std::unordered_map<Key, typename EntryList::iterator, KeyHash, KeyEqual>
        index SPHERE_GUARDED_BY(mu);
  };

  template <typename LookupKey>
  Shard& ShardFor(const LookupKey& key) {
    // Re-mix the hash: shard choice and in-shard bucketing would otherwise
    // correlate, clustering collisions onto one shard.
    return *shards_[Hash64(KeyHash()(key)) % shards_.size()];
  }

  size_t capacity_;
  size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace sphere

#endif  // SPHERE_COMMON_LRU_CACHE_H_
