#ifndef SPHERE_CORE_EXECUTE_H_
#define SPHERE_CORE_EXECUTE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/result.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/rewrite.h"
#include "net/pool.h"

namespace sphere::core {

/// The two connection modes of the SQL executor (paper §VI-D).
enum class ConnectionMode {
  kMemoryStrictly,      ///< one connection per SQL: parallel, stream merge
  kConnectionStrictly,  ///< limited connections, serial batches, memory merge
};

/// Registry of attached data sources. Lookup is case-insensitive (SQL
/// identifier semantics) and allocation-free: the map hashes the query string
/// in place instead of materializing a lowered copy per Find — Find sits on
/// the per-unit hot path of every executed statement.
class DataSourceRegistry {
 public:
  Status Register(std::unique_ptr<net::DataSource> ds);
  net::DataSource* Find(std::string_view name);
  /// Registered names (sorted, original casing).
  std::vector<std::string> Names() const;

 private:
  std::unordered_map<std::string, std::unique_ptr<net::DataSource>,
                     CaseInsensitiveHash, CaseInsensitiveEqual>
      sources_;
};

/// Provides transaction-affine connections: when a logical session has an
/// open distributed transaction, all SQL on one data source must reuse that
/// transaction's connection. Implemented by the adaptor's connection object;
/// the default (nullptr source) means auto-commit execution from the pools.
class ConnectionSource {
 public:
  virtual ~ConnectionSource() = default;
  /// The exclusive connection for `data_source` (opening/enlisting it in the
  /// transaction as needed), or nullptr when this session is in auto-commit.
  virtual Result<net::RemoteConnection*> TransactionConnection(
      const std::string& data_source) = 0;
};

/// Observes each SQL unit on its actual connection, before and after it
/// runs. The BASE transaction manager uses this to register branches, take
/// AT-mode before-images and commit branch-locally around every write.
///
/// AfterUnit runs for every unit whose BeforeUnit succeeded, including units
/// whose execution FAILED — the observer must see failures so it can roll
/// back branch-local state and report the branch outcome (a failed branch
/// that goes unreported would let the global transaction commit anyway).
class UnitObserver {
 public:
  virtual ~UnitObserver() = default;
  virtual Status BeforeUnit(net::RemoteConnection* conn, const SQLUnit& unit) = 0;
  virtual Status AfterUnit(net::RemoteConnection* conn, const SQLUnit& unit,
                           const Result<engine::ExecResult>& result) = 0;
};

/// Outcome of executing the SQL units of one logical statement.
struct ExecutionOutcome {
  ArenaVector<engine::ExecResult> results;  ///< aligned with the input units
  ConnectionMode mode = ConnectionMode::kMemoryStrictly;
};

/// The automatic execution engine (paper §VI-D, Fig. 8).
///
/// Preparation phase: group SQL units by data source; per group compute
/// θ = ⌈#SQL / MaxCon⌉ and pick the connection mode (θ > 1 forces connection-
/// strictly + memory merge). Connections for one group are acquired
/// atomically from the pool, which prevents the hold-and-wait deadlock the
/// paper describes; single-connection groups skip the batch lock.
/// Execution phase: groups and the connections inside a group run in
/// parallel, each connection draining its assigned SQL list serially.
///
/// Parallel slices are dispatched to a persistent scheduler: the caller
/// submits every slice but its own, executes its own slice inline, and joins
/// on a latch — so no path constructs a thread per statement. The pool is
/// injectable at construction for tests and sizing experiments; nullptr
/// means the process-wide SharedThreadPool, so the pool is never null.
///
/// Every unit runs the same way: its AST goes to the node session through
/// RemoteConnection::ExecuteStatement, with its text (when present) pricing
/// the request on the modeled wire (DESIGN.md §10).
class ExecutionEngine {
 public:
  ExecutionEngine(DataSourceRegistry* registry, int max_connections_per_query,
                  ThreadPool* pool = nullptr)
      : registry_(registry),
        max_con_(max_connections_per_query),
        pool_(pool != nullptr ? pool : SharedThreadPool()) {}

  void set_max_connections_per_query(int n) { max_con_ = n < 1 ? 1 : n; }
  int max_connections_per_query() const { return max_con_; }

  ThreadPool* thread_pool() const { return pool_; }

  /// Executes every unit; `txn_source` may be nullptr (auto-commit) and
  /// `observer` may be nullptr (no per-unit hooks).
  Result<ExecutionOutcome> Execute(const std::vector<SQLUnit>& units,
                                   ConnectionSource* txn_source,
                                   UnitObserver* observer = nullptr) const;

 private:
  DataSourceRegistry* registry_;
  int max_con_;
  ThreadPool* pool_;
};

}  // namespace sphere::core

#endif  // SPHERE_CORE_EXECUTE_H_
