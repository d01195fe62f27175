#include "baselines/simple_middleware.h"

#include <algorithm>

#include "baselines/naive_merge.h"
#include "common/clock.h"
#include "common/strings.h"
#include "core/rewrite.h"
#include "sql/condition.h"
#include "sql/parser.h"

namespace sphere::baselines {

Status SimpleMiddleware::AttachNode(const std::string& name,
                                    engine::StorageNode* node) {
  if (backends_.count(ToLower(name))) {
    return Status::AlreadyExists("backend " + name);
  }
  backends_[ToLower(name)] =
      std::make_unique<net::DataSource>(name, node, network_, 64);
  return Status::OK();
}

Status SimpleMiddleware::AddShardedTable(const std::string& logic_table,
                                         const std::string& column,
                                         const std::string& nodes_expr) {
  TableInfo info;
  info.column = column;
  SPHERE_ASSIGN_OR_RETURN(info.nodes, core::ExpandDataNodes(nodes_expr));
  for (const auto& node : info.nodes) {
    if (std::find(info.table_names.begin(), info.table_names.end(), node.table) ==
        info.table_names.end()) {
      info.table_names.push_back(node.table);
    }
    if (!backends_.count(ToLower(node.data_source))) {
      return Status::NotFound("backend " + node.data_source);
    }
  }
  Properties props;
  props.Set("sharding-count", std::to_string(info.table_names.size()));
  SPHERE_ASSIGN_OR_RETURN(info.algorithm, core::CreateShardingAlgorithm("MOD", props));
  tables_[ToLower(logic_table)] = std::move(info);
  return Status::OK();
}

/// One vtgate/coordinator session.
class SimpleMiddleware::Session : public SqlSession {
 public:
  explicit Session(SimpleMiddleware* mw) : mw_(mw) {}
  ~Session() override {
    for (auto& [ds, lease] : txn_conns_) (void)lease->Rollback();
  }

  Result<engine::ExecResult> Execute(std::string_view sql_text,
                                     const std::vector<Value>& params) override {
    // Client -> middleware round trip (proxy architecture).
    mw_->network_->Transfer(sql_text.size() + params.size() * 16 + 16);
    auto result = ExecuteInner(sql_text, params);
    mw_->network_->Transfer(result.ok() ? 256 : 64);
    return result;
  }

 private:
  Result<net::RemoteConnection*> ConnFor(const std::string& ds_name) {
    auto it = mw_->backends_.find(ToLower(ds_name));
    if (it == mw_->backends_.end()) return Status::NotFound("backend " + ds_name);
    if (in_txn_) {
      auto held = txn_conns_.find(ToLower(ds_name));
      if (held != txn_conns_.end()) return held->second.get();
      auto lease = it->second->pool().Acquire();
      net::RemoteConnection* conn = lease.get();
      SPHERE_RETURN_NOT_OK(conn->Begin(xid_));
      txn_conns_.emplace(ToLower(ds_name), std::move(lease));
      return conn;
    }
    scratch_lease_ = it->second->pool().Acquire();
    return scratch_lease_.get();
  }

  Result<engine::ExecResult> ExecuteInner(std::string_view sql_text,
                                          const std::vector<Value>& params) {
    SleepMicros(mw_->options_.plan_overhead_us);
    sql::Parser parser;
    SPHERE_ASSIGN_OR_RETURN(sql::StatementPtr stmt, parser.Parse(sql_text));

    switch (stmt->kind()) {
      case sql::StatementKind::kBegin: {
        in_txn_ = true;
        xid_ = mw_->options_.name + "-" +
               std::to_string(mw_->xid_counter_.fetch_add(1));
        return engine::ExecResult::Update(0);
      }
      case sql::StatementKind::kCommit:
        return FinishTxn(/*commit=*/true);
      case sql::StatementKind::kRollback:
        return FinishTxn(/*commit=*/false);
      default:
        break;
    }

    // Joins: supported only when every sharded table routes to exactly one
    // node on the same backend (single-shard join; vtgate-style restriction).
    if (stmt->kind() == sql::StatementKind::kSelect) {
      const auto& sel = static_cast<const sql::SelectStatement&>(*stmt);
      if (sel.AllTables().size() > 1) {
        return ExecuteSingleShardJoin(sel, *stmt, params);
      }
    }

    // Route.
    std::string table = TableOf(*stmt);
    auto info_it = mw_->tables_.find(ToLower(table));
    if (info_it == mw_->tables_.end()) {
      // Unsharded: first backend hosts reference tables.
      SPHERE_ASSIGN_OR_RETURN(net::RemoteConnection * conn,
                              ConnFor(mw_->backends_.begin()->second->name()));
      return conn->Execute(sql_text, params);
    }
    const TableInfo& info = info_it->second;

    if (stmt->kind() == sql::StatementKind::kInsert) {
      const auto& ins = static_cast<const sql::InsertStatement&>(*stmt);
      if (ins.rows.size() > 1) {
        return ExecuteBatchInsert(ins, info, params);
      }
    }

    SPHERE_ASSIGN_OR_RETURN(std::vector<const core::DataNode*> targets,
                            RouteTargets(*stmt, info, params));

    // DDL fans out to every node (like a vindex-backed schema change).
    std::vector<engine::ExecResult> partials;
    for (const core::DataNode* node : targets) {
      core::RouteUnit unit;
      unit.data_source = node->data_source;
      unit.mappings.push_back({table, node->table});
      sql::StatementPtr clone = stmt->Clone();
      core::ApplyTableMappings(clone.get(), unit);
      SPHERE_ASSIGN_OR_RETURN(net::RemoteConnection * conn,
                              ConnFor(node->data_source));
      auto r = conn->Execute(clone->ToSQL(sql::Dialect::MySQL()), params);
      if (!r.ok()) return r.status();
      partials.push_back(std::move(r).value());
    }
    return NaiveMerge(*stmt, std::move(partials));
  }

  /// Splits a multi-row INSERT into per-shard inserts (placeholders are
  /// materialized so row subsets stay self-contained).
  Result<engine::ExecResult> ExecuteBatchInsert(
      const sql::InsertStatement& ins, const TableInfo& info,
      const std::vector<Value>& params) {
    int col = -1;
    for (size_t c = 0; c < ins.columns.size(); ++c) {
      if (EqualsIgnoreCase(ins.columns[c], info.column)) col = static_cast<int>(c);
    }
    if (col < 0) return Status::RouteError("INSERT misses the distribution column");
    std::map<std::string, std::vector<size_t>> rows_by_table;
    for (size_t r = 0; r < ins.rows.size(); ++r) {
      auto v = sql::EvalConstExpr(ins.rows[r][static_cast<size_t>(col)].get(),
                                  params);
      if (!v.has_value()) {
        return Status::RouteError("non-constant distribution value");
      }
      SPHERE_ASSIGN_OR_RETURN(std::string target,
                              info.algorithm->DoSharding(info.table_names, *v));
      rows_by_table[target].push_back(r);
    }
    int64_t affected = 0;
    for (const auto& [target, row_indices] : rows_by_table) {
      SPHERE_ASSIGN_OR_RETURN(std::vector<const core::DataNode*> nodes,
                              PickNodes(info, {target}));
      auto clone = std::make_unique<sql::InsertStatement>();
      clone->table.name = nodes[0]->table;
      clone->columns = ins.columns;
      for (size_t r : row_indices) {
        std::vector<sql::ExprPtr> row;
        row.reserve(ins.rows[r].size());
        for (const auto& e : ins.rows[r]) {
          row.push_back(sql::InlineParameters(e.get(), params));
        }
        clone->rows.push_back(std::move(row));
      }
      SPHERE_ASSIGN_OR_RETURN(net::RemoteConnection * conn,
                              ConnFor(nodes[0]->data_source));
      auto r = conn->Execute(clone->ToSQL(sql::Dialect::MySQL()), {});
      if (!r.ok()) return r.status();
      affected += r->affected_rows;
    }
    return engine::ExecResult::Update(affected);
  }

  Result<engine::ExecResult> ExecuteSingleShardJoin(
      const sql::SelectStatement& sel, const sql::Statement& stmt,
      const std::vector<Value>& params) {
    core::RouteUnit unit;
    for (const sql::TableRef* ref : sel.AllTables()) {
      auto info_it = mw_->tables_.find(ToLower(ref->name));
      if (info_it == mw_->tables_.end()) continue;  // reference table
      SPHERE_ASSIGN_OR_RETURN(
          std::vector<const core::DataNode*> nodes,
          RouteSingleTable(sel.where.get(), ref->name, info_it->second, params));
      if (nodes.size() != 1) {
        return Status::Unsupported(mw_->options_.name +
                                   ": cross-shard joins are not supported");
      }
      if (!unit.data_source.empty() &&
          !EqualsIgnoreCase(unit.data_source, nodes[0]->data_source)) {
        return Status::Unsupported(mw_->options_.name +
                                   ": join spans multiple backends");
      }
      unit.data_source = nodes[0]->data_source;
      unit.mappings.push_back({ref->name, nodes[0]->table});
    }
    if (unit.data_source.empty()) {
      unit.data_source = mw_->backends_.begin()->second->name();
    }
    sql::StatementPtr clone = stmt.Clone();
    core::ApplyTableMappings(clone.get(), unit);
    SPHERE_ASSIGN_OR_RETURN(net::RemoteConnection * conn,
                            ConnFor(unit.data_source));
    return conn->Execute(clone->ToSQL(sql::Dialect::MySQL()), params);
  }

  Result<engine::ExecResult> FinishTxn(bool commit) {
    Status first = Status::OK();
    if (commit) {
      // Plain 2PC over the touched shards.
      for (auto& [ds, lease] : txn_conns_) {
        Status st = lease->PrepareXa();
        if (!st.ok()) {
          for (auto& [ds2, lease2] : txn_conns_) {
            if (ds2 == ds) continue;
            (void)lease2->Rollback();
            (void)lease2->RollbackPrepared(xid_);
          }
          txn_conns_.clear();
          in_txn_ = false;
          return st;
        }
      }
      for (auto& [ds, lease] : txn_conns_) {
        Status st = lease->CommitPrepared(xid_);
        if (!st.ok() && first.ok()) first = st;
      }
    } else {
      for (auto& [ds, lease] : txn_conns_) {
        Status st = lease->Rollback();
        if (!st.ok() && first.ok()) first = st;
      }
    }
    txn_conns_.clear();
    in_txn_ = false;
    if (!first.ok()) return first;
    return engine::ExecResult::Update(0);
  }

  static std::string TableOf(const sql::Statement& stmt) {
    switch (stmt.kind()) {
      case sql::StatementKind::kSelect: {
        const auto& sel = static_cast<const sql::SelectStatement&>(stmt);
        return sel.from.empty() ? "" : sel.from[0].name;
      }
      case sql::StatementKind::kInsert:
        return static_cast<const sql::InsertStatement&>(stmt).table.name;
      case sql::StatementKind::kUpdate:
        return static_cast<const sql::UpdateStatement&>(stmt).table.name;
      case sql::StatementKind::kDelete:
        return static_cast<const sql::DeleteStatement&>(stmt).table.name;
      case sql::StatementKind::kCreateTable:
        return static_cast<const sql::CreateTableStatement&>(stmt).table;
      case sql::StatementKind::kDropTable:
        return static_cast<const sql::DropTableStatement&>(stmt).table;
      case sql::StatementKind::kTruncate:
        return static_cast<const sql::TruncateStatement&>(stmt).table;
      case sql::StatementKind::kCreateIndex:
        return static_cast<const sql::CreateIndexStatement&>(stmt).table;
      default:
        return "";
    }
  }

  Result<std::vector<const core::DataNode*>> RouteTargets(
      const sql::Statement& stmt, const TableInfo& info,
      const std::vector<Value>& params) {
    std::vector<const core::DataNode*> all;
    all.reserve(info.nodes.size());
    for (const auto& n : info.nodes) all.push_back(&n);

    // Joins are not scatter-planned by this middleware.
    if (stmt.kind() == sql::StatementKind::kSelect) {
      const auto& sel = static_cast<const sql::SelectStatement&>(stmt);
      if (sel.AllTables().size() > 1) {
        return Status::Unsupported(mw_->options_.name +
                                   ": cross-shard joins are not supported");
      }
    }

    if (stmt.kind() == sql::StatementKind::kInsert) {
      const auto& ins = static_cast<const sql::InsertStatement&>(stmt);
      if (ins.rows.size() != 1) {
        return Status::Unsupported(mw_->options_.name +
                                   ": multi-row sharded inserts");
      }
      auto values = sql::ExtractInsertValues(ins, info.column, params);
      if (!values.has_value()) {
        return Status::RouteError("INSERT misses the distribution column");
      }
      SPHERE_ASSIGN_OR_RETURN(std::string target,
                              info.algorithm->DoSharding(info.table_names,
                                                         (*values)[0]));
      return PickNodes(info, {target});
    }

    const sql::Expr* where = nullptr;
    switch (stmt.kind()) {
      case sql::StatementKind::kSelect:
        where = static_cast<const sql::SelectStatement&>(stmt).where.get();
        break;
      case sql::StatementKind::kUpdate:
        where = static_cast<const sql::UpdateStatement&>(stmt).where.get();
        break;
      case sql::StatementKind::kDelete:
        where = static_cast<const sql::DeleteStatement&>(stmt).where.get();
        break;
      default:
        return all;  // DDL: everywhere
    }
    return RouteByWhere(where, info, params);
  }

  Result<std::vector<const core::DataNode*>> RouteByWhere(
      const sql::Expr* where, const TableInfo& info,
      const std::vector<Value>& params) {
    std::vector<const core::DataNode*> all;
    all.reserve(info.nodes.size());
    for (const auto& n : info.nodes) all.push_back(&n);
    auto groups = sql::ExtractConditionGroups(where, params);
    if (groups.size() != 1) return all;
    for (const auto& cond : groups[0]) {
      if (!EqualsIgnoreCase(cond.column, info.column)) continue;
      if (cond.kind == sql::ColumnCondition::Kind::kEqual ||
          cond.kind == sql::ColumnCondition::Kind::kIn) {
        std::vector<std::string> names;
        for (const Value& v : cond.values) {
          SPHERE_ASSIGN_OR_RETURN(std::string t,
                                  info.algorithm->DoSharding(info.table_names, v));
          if (std::find(names.begin(), names.end(), t) == names.end()) {
            names.push_back(t);
          }
        }
        return PickNodes(info, names);
      }
      if (cond.kind == sql::ColumnCondition::Kind::kRange) {
        auto names = info.algorithm->DoRangeSharding(info.table_names, cond.low,
                                                     cond.high);
        return PickNodes(info, names);
      }
    }
    return all;
  }

  Result<std::vector<const core::DataNode*>> RouteSingleTable(
      const sql::Expr* where, const std::string& table_name,
      const TableInfo& info, const std::vector<Value>& params) {
    (void)table_name;
    return RouteByWhere(where, info, params);
  }

  Result<std::vector<const core::DataNode*>> PickNodes(
      const TableInfo& info, const std::vector<std::string>& table_names) {
    std::vector<const core::DataNode*> out;
    for (const auto& name : table_names) {
      bool found = false;
      for (const auto& node : info.nodes) {
        if (EqualsIgnoreCase(node.table, name)) {
          out.push_back(&node);
          found = true;
          break;
        }
      }
      if (!found) return Status::RouteError("no node hosts " + name);
    }
    return out;
  }

  Result<engine::ExecResult> NaiveMerge(const sql::Statement& stmt,
                                        std::vector<engine::ExecResult> partials) {
    if (partials.empty()) return Status::Internal("no partial results");
    if (!partials[0].is_query) return SumAffected(std::move(partials));
    if (partials.size() == 1) return std::move(partials[0]);
    return NaiveScatterMerge(static_cast<const sql::SelectStatement&>(stmt),
                             std::move(partials), mw_->options_.name);
  }

  SimpleMiddleware* mw_;
  bool in_txn_ = false;
  std::string xid_;
  std::map<std::string, net::ConnectionPool::Lease> txn_conns_;
  net::ConnectionPool::Lease scratch_lease_;
};

std::unique_ptr<SqlSession> SimpleMiddleware::Connect() {
  return std::make_unique<Session>(this);
}

}  // namespace sphere::baselines
