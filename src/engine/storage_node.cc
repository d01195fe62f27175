#include "engine/storage_node.h"

#include "common/arena.h"
#include "common/clock.h"
#include "sql/parser.h"

namespace sphere::engine {

StorageNode::StorageNode(std::string name, sql::DialectType dialect)
    : name_(std::move(name)), dialect_(sql::Dialect::Get(dialect)),
      db_(name_), txn_manager_(&db_) {
  // Per-node liveness of these names follows the node: probes read the
  // instance-owned striped counters, and the destructor retracts exactly
  // this node's entries (same-named nodes in tests overwrite, last wins).
  auto& registry = metrics::Registry::Instance();
  registry.PublishProbe("node." + name_ + ".statements", this,
                        [this] { return statements_executed_.value(); });
  registry.PublishProbe("node." + name_ + ".parse_cache.hits", this,
                        [this] { return parse_cache_hits_.value(); });
  registry.PublishProbe("node." + name_ + ".parse_cache.misses", this,
                        [this] { return parse_cache_misses_.value(); });
}

StorageNode::~StorageNode() {
  metrics::Registry::Instance().UnpublishProbes(this);
}

StorageNode::Session::~Session() {
  if (txn_ != nullptr) {
    (void)node_->txn_manager_.Rollback(txn_);
    txn_ = nullptr;
  }
}

Result<std::shared_ptr<const sql::Statement>> StorageNode::ParseCached(
    std::string_view sql_text) {
  if (std::optional<std::shared_ptr<const sql::Statement>> hit =
          stmt_cache_.Get(sql_text)) {
    parse_cache_hits_.Increment();
    return *std::move(hit);
  }
  parse_cache_misses_.Increment();
  // The cached AST outlives every statement, so it must be heap-built even
  // when the serving thread is inside a statement arena scope.
  ArenaSuspend heap_scope;
  sql::Parser parser(dialect_);
  SPHERE_ASSIGN_OR_RETURN(sql::StatementPtr stmt, parser.Parse(sql_text));
  std::shared_ptr<const sql::Statement> shared(std::move(stmt));
  stmt_cache_.Put(sql_text, shared);
  return shared;
}

Result<ExecResult> StorageNode::Session::Execute(
    std::string_view sql_text, const std::vector<Value>& params) {
  SPHERE_ASSIGN_OR_RETURN(std::shared_ptr<const sql::Statement> stmt,
                          node_->ParseCached(sql_text));
  return ExecuteStatement(*stmt, params);
}

Result<ExecResult> StorageNode::Session::ExecuteStatement(
    const sql::Statement& stmt, const std::vector<Value>& params) {
  // Node-side statement scope: executor scratch (condition groups, sort
  // keys, temporary expression nodes) bump-allocates. No-ops when the
  // middleware's scope is already active on this thread (inline execution);
  // on pool threads this is the owning scope. The returned result set uses
  // plain heap containers, so it safely outlives the scope.
  ArenaScope arena_scope(true);
  node_->statements_executed_.Increment();
  int64_t delay = node_->statement_delay_us_.load(std::memory_order_relaxed);
  if (delay > 0) {
    // Occupy an IO slot for the duration of the simulated storage access.
    bool limited;
    {
      MutexLock lk(node_->io_mu_);
      limited = node_->io_slots_ > 0;
      if (limited) {
        node_->io_cv_.Wait(node_->io_mu_, [&]() SPHERE_REQUIRES(node_->io_mu_) {
          // Re-read io_slots_: set_io_concurrency(0) (unlimited) while we
          // wait must release us instead of leaving the predicate false.
          return node_->io_slots_ <= 0 ||
                 node_->io_in_use_ < node_->io_slots_;
        });
        ++node_->io_in_use_;
      }
    }
    SleepMicros(delay);
    if (limited) {
      {
        MutexLock lk(node_->io_mu_);
        --node_->io_in_use_;
      }
      node_->io_cv_.NotifyOne();
    }
  }
  switch (stmt.kind()) {
    case sql::StatementKind::kBegin:
      SPHERE_RETURN_NOT_OK(Begin());
      return ExecResult::Update(0);
    case sql::StatementKind::kCommit:
      SPHERE_RETURN_NOT_OK(Commit());
      return ExecResult::Update(0);
    case sql::StatementKind::kRollback:
      SPHERE_RETURN_NOT_OK(Rollback());
      return ExecResult::Update(0);
    default: {
      Executor executor(&node_->db_, &node_->txn_manager_,
                        node_->concurrency_control());
      return executor.Execute(stmt, params, txn_);
    }
  }
}

Status StorageNode::Session::Begin(const std::string& xid) {
  if (txn_ != nullptr) {
    // Implicit commit of the previous transaction (MySQL behaviour).
    SPHERE_RETURN_NOT_OK(Commit());
  }
  txn_ = node_->txn_manager_.Begin(xid);
  return Status::OK();
}

Status StorageNode::Session::Commit() {
  if (txn_ == nullptr) return Status::OK();  // no-op outside a transaction
  if (node_->fail_next_commit_.exchange(false)) {
    storage::Transaction* t = txn_;
    txn_ = nullptr;
    (void)node_->txn_manager_.Rollback(t);
    return Status::Unavailable("injected commit failure on " + node_->name_);
  }
  Status st = node_->txn_manager_.Commit(txn_);
  txn_ = nullptr;
  return st;
}

Status StorageNode::Session::Rollback() {
  if (txn_ == nullptr) return Status::OK();
  Status st = node_->txn_manager_.Rollback(txn_);
  txn_ = nullptr;
  return st;
}

Status StorageNode::Session::Prepare() {
  if (txn_ == nullptr) {
    return Status::TransactionError("prepare without open transaction");
  }
  if (node_->fail_next_prepare_.exchange(false)) {
    // Vote NO: the RM rolls back its branch (paper Fig. 5(c), phase 1).
    storage::Transaction* t = txn_;
    txn_ = nullptr;
    (void)node_->txn_manager_.Rollback(t);
    return Status::TransactionError("injected prepare failure on " + node_->name_);
  }
  Status st = node_->txn_manager_.Prepare(txn_);
  if (st.ok()) txn_ = nullptr;  // ownership moves to the prepared set
  return st;
}

void StorageNode::set_io_concurrency(int slots) {
  {
    MutexLock lk(io_mu_);
    io_slots_ = slots;
  }
  io_cv_.NotifyAll();
}

Status StorageNode::CommitPrepared(const std::string& xid) {
  return txn_manager_.CommitPrepared(xid);
}

Status StorageNode::RollbackPrepared(const std::string& xid) {
  return txn_manager_.RollbackPrepared(xid);
}

}  // namespace sphere::engine
