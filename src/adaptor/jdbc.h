#ifndef SPHERE_ADAPTOR_JDBC_H_
#define SPHERE_ADAPTOR_JDBC_H_

#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "core/runtime.h"
#include "engine/result_set.h"
#include "engine/row_batch.h"
#include "distsql/distsql.h"
#include "governor/config_manager.h"
#include "transaction/manager.h"

namespace sphere::adaptor {

class ShardingConnection;
class ShardingStatement;
class ShardingPreparedStatement;

/// The embedded adaptor (paper's ShardingSphere-JDBC): lives in the
/// application's process and talks to the data sources directly, which is why
/// it outruns the proxy. The public API mirrors JDBC: DataSource ->
/// Connection -> (Prepared)Statement -> ResultSet.
class ShardingDataSource {
 public:
  explicit ShardingDataSource(
      core::RuntimeConfig config = core::RuntimeConfig(),
      net::NetworkConfig network = net::NetworkConfig());

  /// Attaches a storage node under a data source name (caller keeps
  /// ownership; the node must outlive this object).
  Status AttachNode(const std::string& name, engine::StorageNode* node);

  /// Installs the sharding rule programmatically (the config-file path);
  /// DistSQL is the other way to do this.
  Status SetRule(core::ShardingRuleConfig config);

  /// Joins a governed cluster (paper §V): registers this instance as an
  /// ephemeral node in the registry (its marker disappears when the instance
  /// dies) and persists every rule change — whether made through SetRule or
  /// DistSQL — under /config so other instances can pick it up.
  Status BindGovernor(governor::ConfigManager* config_manager,
                      const std::string& instance_id);
  /// Writes the current rules to the bound registry (no-op when unbound).
  void PersistRules();

  /// Opens a logical connection.
  std::unique_ptr<ShardingConnection> GetConnection();

  core::ShardingRuntime* runtime() { return &runtime_; }
  transaction::TransactionContext* transaction_context() { return &txn_context_; }
  distsql::DistSQLEngine* distsql() { return &distsql_; }
  Mutex* distsql_mutex() SPHERE_RETURN_CAPABILITY(distsql_mu_) {
    return &distsql_mu_;
  }

 private:
  // analyze-exempt(guarded-by): internally synchronized subsystem
  core::ShardingRuntime runtime_;
  // analyze-exempt(guarded-by): internally synchronized subsystem
  transaction::TransactionContext txn_context_;
  // analyze-exempt(guarded-by): internally synchronized subsystem
  distsql::DistSQLEngine distsql_;
  Mutex distsql_mu_{LockRank::kAdaptor, "adaptor/jdbc.distsql"};
  // analyze-exempt(guarded-by): bound once in BindGovernor during setup,
  // before the data source is shared across threads
  governor::ConfigManager* governor_ = nullptr;
  // analyze-exempt(guarded-by): bound once in BindGovernor during setup
  governor::Registry::SessionId governor_session_ = 0;
};

/// Cursor wrapper with JDBC-style typed getters.
class ShardingResultSet {
 public:
  explicit ShardingResultSet(engine::ResultSetPtr rs)
      : rs_(std::move(rs)),
        buffer_(engine::RowStore::Instance().AcquireShell()) {}
  ~ShardingResultSet() {
    // The batch buffer (and the consumed rows swapped back into it) returns
    // to the recycler; no-op when pooling is off.
    engine::RowStore::Instance().Release(std::move(buffer_));
  }

  ShardingResultSet(ShardingResultSet&&) = default;
  ShardingResultSet& operator=(ShardingResultSet&&) = default;

  /// Advances to the next row; false at end. Rows are pulled from the merge
  /// pipeline a batch at a time (engine::kBatchSize rows), so per-row cost
  /// is one buffer index, not a virtual call down the decorator stack.
  bool Next() {
    if (pos_ >= buffer_.size()) {
      if (rs_ == nullptr) return false;
      buffer_.clear();
      pos_ = 0;
      if (rs_->NextBatch(&buffer_, engine::kBatchSize) == 0) {
        return false;
      }
    }
    // Swap instead of move: the previous row's storage lands back in the
    // buffer slot, so the batch returns to the pool capacity-rich instead
    // of as a husk.
    std::swap(current_, buffer_[pos_++]);
    return true;
  }

  const std::vector<std::string>& columns() const { return rs_->columns(); }
  /// Column index by (case-insensitive) label, or -1.
  int ColumnIndex(const std::string& label) const;

  const Value& Get(int index) const { return current_[static_cast<size_t>(index)]; }
  int64_t GetInt(int index) const { return Get(index).ToInt(); }
  double GetDouble(int index) const { return Get(index).ToDouble(); }
  std::string GetString(int index) const { return Get(index).ToString(); }
  bool IsNull(int index) const { return Get(index).is_null(); }

  int64_t GetInt(const std::string& label) const {
    return Get(ColumnIndex(label)).ToInt();
  }
  std::string GetString(const std::string& label) const {
    return Get(ColumnIndex(label)).ToString();
  }

  const Row& row() const { return current_; }

 private:
  engine::ResultSetPtr rs_;
  std::vector<Row> buffer_;
  size_t pos_ = 0;
  Row current_;
};

/// A logical connection: the unit of transaction scope. Holds at most one
/// open distributed transaction whose type is switchable between statements
/// (`SET VARIABLE transaction_type = LOCAL|XA|BASE`).
class ShardingConnection {
 public:
  explicit ShardingConnection(ShardingDataSource* data_source)
      : data_source_(data_source) {}
  ~ShardingConnection();

  ShardingConnection(const ShardingConnection&) = delete;
  ShardingConnection& operator=(const ShardingConnection&) = delete;

  /// Executes any statement: ordinary SQL, TCL, or DistSQL.
  Result<engine::ExecResult> ExecuteSQL(std::string_view sql_text,
                                        std::vector<Value> params = {});
  /// Convenience: query returning a cursor.
  Result<ShardingResultSet> ExecuteQuery(std::string_view sql_text,
                                         std::vector<Value> params = {});
  /// Convenience: update returning the affected row count.
  Result<int64_t> ExecuteUpdate(std::string_view sql_text,
                                std::vector<Value> params = {});

  /// JDBC-style autocommit. Turning it off opens a transaction on the next
  /// statement; turning it on commits any open transaction.
  Status SetAutoCommit(bool autocommit);
  bool autocommit() const { return autocommit_; }

  Status Begin();
  Status Commit();
  Status Rollback();
  bool in_transaction() const { return txn_ != nullptr; }

  /// Switches the distributed transaction type (outside a transaction only).
  Status SetTransactionType(transaction::TransactionType type);
  transaction::TransactionType transaction_type() const { return txn_type_; }

  std::unique_ptr<ShardingStatement> CreateStatement();
  Result<std::unique_ptr<ShardingPreparedStatement>> PrepareStatement(
      std::string_view sql_text);

  ShardingDataSource* data_source() { return data_source_; }

 private:
  friend class ShardingPreparedStatement;

  Result<engine::ExecResult> ExecutePlanned(const core::StatementPlan& plan,
                                            std::vector<Value> params);
  Status EnsureTransaction();

  ShardingDataSource* data_source_;
  bool autocommit_ = true;
  transaction::TransactionType txn_type_ = transaction::TransactionType::kLocal;
  std::unique_ptr<transaction::DistributedTransaction> txn_;
};

/// Plain statement (parse per execution).
class ShardingStatement {
 public:
  explicit ShardingStatement(ShardingConnection* conn) : conn_(conn) {}

  Result<ShardingResultSet> ExecuteQuery(std::string_view sql_text) {
    return conn_->ExecuteQuery(sql_text);
  }
  Result<int64_t> ExecuteUpdate(std::string_view sql_text) {
    return conn_->ExecuteUpdate(sql_text);
  }
  Result<engine::ExecResult> Execute(std::string_view sql_text) {
    return conn_->ExecuteSQL(sql_text);
  }

 private:
  ShardingConnection* conn_;
};

/// Prepared statement: parsed once (through the runtime's statement cache, so
/// preparing the same text twice shares one AST), parameters bound per
/// execution (1-indexed setters, JDBC style).
class ShardingPreparedStatement {
 public:
  ShardingPreparedStatement(ShardingConnection* conn,
                            std::shared_ptr<const core::StatementPlan> plan)
      : conn_(conn), plan_(std::move(plan)),
        params_(static_cast<size_t>(plan_->param_count()), Value::Null()) {}

  void SetValue(int index, Value v) {
    if (index >= 1 && static_cast<size_t>(index) <= params_.size()) {
      params_[static_cast<size_t>(index - 1)] = std::move(v);
    }
  }
  void SetInt(int index, int64_t v) { SetValue(index, Value(v)); }
  void SetDouble(int index, double v) { SetValue(index, Value(v)); }
  void SetString(int index, std::string v) { SetValue(index, Value(std::move(v))); }
  void SetNull(int index) { SetValue(index, Value::Null()); }

  Result<ShardingResultSet> ExecuteQuery();
  Result<int64_t> ExecuteUpdate();
  Result<engine::ExecResult> Execute();

  /// JDBC-style batching: snapshots the currently bound parameters as one
  /// batch entry. Re-bind and call again for the next entry.
  void AddBatch() { batch_.push_back(params_); }
  size_t batch_size() const { return batch_.size(); }
  /// Replays every entry through the write-path fast lane (DESIGN.md §10) —
  /// one shared AST, per-entry parameter vectors, zero re-parses — and
  /// returns per-entry affected-row counts. Clears the batch, even on error
  /// (JDBC clearBatch-on-failure semantics).
  Result<std::vector<int64_t>> ExecuteBatch();

 private:
  ShardingConnection* conn_;
  std::shared_ptr<const core::StatementPlan> plan_;
  std::vector<Value> params_;
  std::vector<std::vector<Value>> batch_;
};

}  // namespace sphere::adaptor

#endif  // SPHERE_ADAPTOR_JDBC_H_
