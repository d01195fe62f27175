#ifndef SPHERE_ENGINE_EXECUTOR_H_
#define SPHERE_ENGINE_EXECUTOR_H_

#include <vector>

#include "common/result.h"
#include "engine/evaluator.h"
#include "engine/result_set.h"
#include "engine/scan_cursor.h"
#include "sql/ast.h"
#include "storage/database.h"
#include "storage/txn.h"

namespace sphere::engine {

/// A storage node's read-path concurrency control; defined in storage_node.h.
enum class ConcurrencyControl;

/// Executes one parsed statement against a storage::Database — the SQL
/// execution layer that makes every storage node a small standalone RDBMS.
///
/// Supported surface: SELECT with joins (inner/left/cross, hash join on
/// equi-conditions), WHERE, GROUP BY + HAVING, the five SQL aggregates
/// (including DISTINCT, nested anywhere in an expression), ORDER BY,
/// LIMIT/OFFSET, DISTINCT; INSERT (multi-row), UPDATE, DELETE;
/// CREATE/DROP/TRUNCATE TABLE, CREATE INDEX. Point and range predicates on
/// the primary key and equality on secondarily indexed columns use index
/// scans.
///
/// Every SELECT runs one pipeline (DESIGN.md §9): source → WHERE →
/// (group-aggregate | project + order keys) → sink (sort, DISTINCT,
/// OFFSET/LIMIT). UPDATE and DELETE each have one lane: the access-path
/// cursor under one writer section (DESIGN.md §10).
class Executor {
 public:
  /// `cc` is the owning node's read-path concurrency control.
  Executor(storage::Database* db, storage::TransactionManager* txn_manager,
           ConcurrencyControl cc)
      : db_(db), txn_manager_(txn_manager), cc_(cc) {}

  /// Executes `stmt`. When `txn` is non-null, DML changes append undo records
  /// to it; otherwise each statement is atomic by itself (auto-commit).
  Result<ExecResult> Execute(const sql::Statement& stmt,
                             const std::vector<Value>& params,
                             storage::Transaction* txn);

 private:
  /// The SELECT pipeline. A single table streams through a scan cursor;
  /// only projected rows and order keys outlive a source row.
  Result<ExecResult> ExecuteSelect(const sql::SelectStatement& stmt,
                                   const std::vector<Value>& params);
  Result<ExecResult> ExecuteInsert(const sql::InsertStatement& stmt,
                                   const std::vector<Value>& params,
                                   storage::Transaction* txn);
  Result<ExecResult> ExecuteUpdate(const sql::UpdateStatement& stmt,
                                   const std::vector<Value>& params,
                                   storage::Transaction* txn);
  Result<ExecResult> ExecuteDelete(const sql::DeleteStatement& stmt,
                                   const std::vector<Value>& params,
                                   storage::Transaction* txn);
  Result<ExecResult> ExecuteDDL(const sql::Statement& stmt);

  /// Picks the access path (PK point/range, secondary index, or full scan)
  /// for one table reference under `where`.
  Result<ScanPlan> PlanScan(const sql::TableRef& ref, const sql::Expr* where,
                            const std::vector<Value>& params);

  /// Materializes the joined relation of a SELECT with joins or comma joins
  /// into `rows` (bound by `columns`); the WHERE runs later, in the pipeline.
  Status MaterializeJoin(const sql::SelectStatement& stmt,
                         const std::vector<Value>& params,
                         BoundColumns* columns, std::vector<Row>* rows);

  /// Auto-commit epilogue: restamps the statement's pending versions with a
  /// fresh commit epoch. Takes the commit section *before* the table latch
  /// (lock-rank order), so the statement's writer latch must already be
  /// released.
  void CommitAutoCommit(storage::Table* table, const std::vector<Value>& pks,
                        int64_t writer);

  /// True when reads self-latch against a pinned snapshot (kMvcc).
  bool mvcc() const;

  storage::Database* db_;
  storage::TransactionManager* txn_manager_;
  const ConcurrencyControl cc_;
  /// Snapshot view for this statement's reads: the transaction's Begin-time
  /// snapshot, a statement-scoped pin (auto-commit SELECT under mvcc), or
  /// latest-committed. Executor is constructed per statement, so these are
  /// statement-scoped.
  storage::ReadView read_view_;
  storage::Snapshot stmt_snapshot_;
};

}  // namespace sphere::engine

#endif  // SPHERE_ENGINE_EXECUTOR_H_
