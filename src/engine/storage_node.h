#ifndef SPHERE_ENGINE_STORAGE_NODE_H_
#define SPHERE_ENGINE_STORAGE_NODE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "engine/result_set.h"
#include "sql/dialect.h"
#include "storage/database.h"
#include "storage/txn.h"

namespace sphere::engine {

/// Concurrency-control choice for a node's read path (DESIGN.md §15). Both
/// modes resolve rows against the same snapshot epoch, so results are
/// identical; they differ only in how long readers hold the table latch:
///  - kLatch: a scan holds the table's shared latch end to end (the pre-MVCC
///    blocking profile — writers wait for the whole scan to drain).
///  - kMvcc: the scan cursor takes the shared latch only in short bursts to
///    navigate B+Tree structure, resolving row content from pinned version
///    chains; writers interleave between bursts and never wait on row reads.
enum class ConcurrencyControl { kLatch, kMvcc };

/// One underlying "database server" (the paper's data source): catalog +
/// transaction manager + SQL executor, addressed by name. Stands in for a
/// MySQL/PostgreSQL instance; the middleware talks to it through sessions
/// (its connections) and, remotely, through the net module's channels.
class StorageNode {
 public:
  explicit StorageNode(std::string name,
                       sql::DialectType dialect = sql::DialectType::kMySQL);
  ~StorageNode();

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  const std::string& name() const { return name_; }
  const sql::Dialect& dialect() const { return dialect_; }
  storage::Database* database() { return &db_; }
  storage::TransactionManager* txn_manager() { return &txn_manager_; }

  /// A connection to this node. Holds at most one open transaction.
  class Session {
   public:
    explicit Session(StorageNode* node) : node_(node) {}
    ~Session();

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /// Parses and executes one statement. BEGIN/COMMIT/ROLLBACK manage this
    /// session's transaction; other statements run inside it when open.
    Result<ExecResult> Execute(std::string_view sql_text,
                               const std::vector<Value>& params = {});

    /// Executes an already-parsed statement (in-process fast path).
    Result<ExecResult> ExecuteStatement(const sql::Statement& stmt,
                                        const std::vector<Value>& params = {});

    /// Starts a transaction; `xid` ties it to a global XA transaction.
    Status Begin(const std::string& xid = "");
    /// 1PC commit of the open transaction.
    Status Commit();
    Status Rollback();
    /// XA phase 1 on the open transaction (leaves it prepared; the session
    /// no longer owns it).
    Status Prepare();

    bool in_transaction() const { return txn_ != nullptr; }
    StorageNode* node() { return node_; }

   private:
    StorageNode* node_;
    storage::Transaction* txn_ = nullptr;
  };

  std::unique_ptr<Session> OpenSession() {
    return std::make_unique<Session>(this);
  }

  /// XA phase 2 verbs, addressable without the original session (the TM may
  /// resolve in-doubt branches from any connection after a failure).
  Status CommitPrepared(const std::string& xid);
  Status RollbackPrepared(const std::string& xid);
  std::vector<std::string> InDoubtXids() const {
    return txn_manager_.InDoubtXids();
  }

  /// Crash simulation: all active transactions vanish (rolled back), prepared
  /// branches stay in-doubt. Used by the XA recovery tests.
  void SimulateCrash() { txn_manager_.SimulateCrash(); }

  // Fault injection for transaction tests.
  void InjectPrepareFailure() { fail_next_prepare_ = true; }
  void InjectCommitFailure() { fail_next_commit_ = true; }

  /// Total statements executed (monitoring). Compat shim over the striped
  /// registry counter; also published as `node.<name>.statements`.
  int64_t statements_executed() const { return statements_executed_.value(); }

  /// Server-side statement-cache observability: a hit skips the parser, a
  /// miss pays a full parse. The write-lane tests and benchmarks use these
  /// to prove the cached-text lane re-parses nothing and the structured lane
  /// never even consults the cache. Per-instance shims over the registry
  /// counters published as `node.<name>.parse_cache.{hits,misses}`.
  int64_t parse_cache_hits() const { return parse_cache_hits_.value(); }
  int64_t parse_cache_misses() const { return parse_cache_misses_.value(); }

  /// Distinct statement texts the parse cache keeps (least recently used
  /// texts are evicted beyond this).
  static constexpr size_t kParseCacheCapacity = 4096;

  /// Fixed extra latency per statement (microseconds). Benchmarks use this to
  /// model storage-stack effects the in-memory engine doesn't have: buffer
  /// pool misses on large tables, or Aurora's offloaded storage fleet.
  void set_statement_delay_us(int64_t us) { statement_delay_us_ = us; }
  int64_t statement_delay_us() const { return statement_delay_us_; }

  /// Read-path concurrency control (default kMvcc). Live: each statement
  /// reads the mode once when it starts, so switching between statements
  /// (the latch-vs-mvcc differentials and the rwmix bench) is safe.
  ConcurrencyControl concurrency_control() const {
    return concurrency_control_.load(std::memory_order_relaxed);
  }
  void set_concurrency_control(ConcurrencyControl cc) {
    concurrency_control_.store(cc, std::memory_order_relaxed);
  }

  /// Caps how many delayed statements progress concurrently on this node
  /// (a disk-queue/worker-pool model; 0 = unlimited). Only the simulated
  /// delay is serialized, not the in-memory execution.
  void set_io_concurrency(int slots);

 private:
  friend class Session;

  /// Server-side statement cache: SQL text -> parsed AST. Plays the role of
  /// a prepared-statement cache for the units that still ship text (DDL and
  /// the DML text lanes).
  Result<std::shared_ptr<const sql::Statement>> ParseCached(
      std::string_view sql_text);

  const std::string name_;
  const sql::Dialect& dialect_;
  // analyze-exempt(guarded-by): internally synchronized (catalog SharedMutex)
  storage::Database db_;
  // analyze-exempt(guarded-by): internally synchronized (own Mutex)
  storage::TransactionManager txn_manager_;
  // Sharded-lock LRU: a full cache evicts one entry per miss, never the
  // whole map under one lock. Transparent hashing: hits probe by
  // string_view, so the hot path never materializes a std::string key.
  ShardedLRUCache<std::string, std::shared_ptr<const sql::Statement>,
                  TransparentStringHash>
      stmt_cache_{kParseCacheCapacity};
  std::atomic<bool> fail_next_prepare_{false};
  std::atomic<bool> fail_next_commit_{false};
  // Thread-striped counters owned per instance (tests create many same-named
  // nodes in one process, so process-global names can't carry the per-node
  // accounting); the constructor publishes them as registry probes.
  // analyze-exempt(guarded-by): internally synchronized (striped atomics)
  metrics::Counter statements_executed_;
  // analyze-exempt(guarded-by): internally synchronized (striped atomics)
  metrics::Counter parse_cache_hits_;
  // analyze-exempt(guarded-by): internally synchronized (striped atomics)
  metrics::Counter parse_cache_misses_;
  std::atomic<int64_t> statement_delay_us_{0};
  std::atomic<ConcurrencyControl> concurrency_control_{ConcurrencyControl::kMvcc};
  Mutex io_mu_{LockRank::kEngine, "engine/storage_node.io"};
  CondVar io_cv_;
  int io_slots_ SPHERE_GUARDED_BY(io_mu_) = 0;  ///< 0 = unlimited
  int io_in_use_ SPHERE_GUARDED_BY(io_mu_) = 0;
};

}  // namespace sphere::engine

#endif  // SPHERE_ENGINE_STORAGE_NODE_H_
