#ifndef SPHERE_CORE_STATEMENT_CACHE_H_
#define SPHERE_CORE_STATEMENT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/lru_cache.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/strings.h"
#include "core/rewrite.h"
#include "core/route.h"
#include "sql/dialect.h"
#include "sql/parser.h"

namespace sphere::core {

/// The routed + rewritten form of one statement under one rule epoch.
///
/// For a statement whose physical SQL does not depend on parameter values
/// (today: zero-parameter SELECTs), the route and rewrite results are fully
/// deterministic given the sharding rule, so repeat executions can reuse them
/// wholesale and jump straight to the executor. A plan is built only from a
/// statement's second execution on (StatementPlan::NoteUnroutedExecution).
/// The epoch ties the plan to the rule it was computed under; SetRule bumps
/// the epoch, which silently retires every routed plan still in flight.
struct RoutedPlan {
  uint64_t rule_epoch = 0;
  RouteResult route;
  RewriteResult rewritten;
};

/// One cached statement: the shared immutable AST plus per-statement
/// metadata that stays valid when parameter values change (the parameter
/// count, the statement kind via the AST, and — when eligible — the full
/// routed plan). Instances are immutable to callers and shared across
/// sessions via shared_ptr; the lazily published RoutedPlan is the only
/// mutable slot and is guarded by its own mutex.
class StatementPlan {
 public:
  StatementPlan(sql::SharedStatement parsed, sql::DialectType dialect)
      : stmt_(std::move(parsed.stmt)), param_count_(parsed.param_count),
        dialect_(dialect) {}

  const sql::Statement& stmt() const { return *stmt_; }
  std::shared_ptr<const sql::Statement> shared_stmt() const { return stmt_; }
  int param_count() const { return param_count_; }
  sql::DialectType dialect() const { return dialect_; }

  /// The routed plan if one was published for `current_epoch`, else null.
  std::shared_ptr<const RoutedPlan> routed(uint64_t current_epoch) const
      SPHERE_EXCLUDES(mu_);

  /// Publishes a routed plan (last writer wins; concurrent executions may
  /// race to compute the same plan, which is benign).
  void StoreRouted(std::shared_ptr<const RoutedPlan> plan) const
      SPHERE_EXCLUDES(mu_);

  /// Records an execution that found no routed plan and returns whether one
  /// happened before. Routed plans are published on repeat: the first
  /// execution routes in its statement arena and publishes nothing, so a
  /// text seen once costs no heap build and no cache memory.
  bool NoteUnroutedExecution() const {
    return seen_.exchange(true, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const sql::Statement> stmt_;
  const int param_count_;
  const sql::DialectType dialect_;
  mutable Mutex mu_{LockRank::kCore, "core/statement_plan.routed"};
  mutable std::shared_ptr<const RoutedPlan> routed_ SPHERE_GUARDED_BY(mu_);
  mutable std::atomic<bool> seen_{false};
};

/// The SQL parse/plan cache (the reproduction of the original system's SQL
/// parse result cache): maps (dialect, SQL text) to a StatementPlan so
/// repeated statements skip lexing and parsing entirely, and zero-parameter
/// SELECTs additionally skip routing and rewriting.
///
/// Sharded-lock LRU underneath; capacity-bounded (capacity 0 disables
/// caching); hit/miss/eviction counters exposed through stats(). Invalidate()
/// — called on SetRule and any other metadata change — clears the cache and
/// bumps the rule epoch that retires outstanding RoutedPlans.
class StatementCache {
 public:
  explicit StatementCache(size_t capacity, size_t num_shards = 8)
      : cache_(capacity, num_shards) {
    // Registry publication (DESIGN.md §13): snapshot-time probes read the
    // shard atomics in place; the CacheStats accessor below survives only
    // as a compat shim for per-instance test accounting. Several runtimes
    // in one process share the names — last construction wins, and each
    // destructor removes only its own entries.
    auto& registry = metrics::Registry::Instance();
    registry.PublishProbe("statement_cache.hits", this, [this] {
      return static_cast<int64_t>(cache_.stats().hits);
    });
    registry.PublishProbe("statement_cache.misses", this, [this] {
      return static_cast<int64_t>(cache_.stats().misses);
    });
    registry.PublishProbe("statement_cache.evictions", this, [this] {
      return static_cast<int64_t>(cache_.stats().evictions);
    });
    registry.PublishProbe("statement_cache.entries", this, [this] {
      return static_cast<int64_t>(cache_.stats().entries);
    });
  }

  ~StatementCache() { metrics::Registry::Instance().UnpublishProbes(this); }

  StatementCache(const StatementCache&) = delete;
  StatementCache& operator=(const StatementCache&) = delete;

  std::shared_ptr<const StatementPlan> Get(sql::DialectType dialect,
                                           std::string_view sql);
  void Put(sql::DialectType dialect, std::string_view sql,
           std::shared_ptr<const StatementPlan> plan);

  /// Drops all entries and retires every outstanding routed plan.
  void Invalidate();

  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  size_t capacity() const { return cache_.capacity(); }
  CacheStats stats() const { return cache_.stats(); }

 private:
  // Keyed by SQL text alone (no per-lookup key allocation); the dialect half
  // of the logical (dialect, SQL) key lives in the plan and is verified on
  // every hit, so a same-text statement of another dialect displaces rather
  // than aliases the entry. A runtime owns one dialect, so in practice the
  // check never fires.
  ShardedLRUCache<std::string, std::shared_ptr<const StatementPlan>,
                  TransparentStringHash>
      cache_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace sphere::core

#endif  // SPHERE_CORE_STATEMENT_CACHE_H_
