#include "baselines/raftdb.h"

#include <set>

#include "baselines/naive_merge.h"
#include "common/clock.h"
#include "common/strings.h"
#include "sql/condition.h"
#include "sql/parser.h"

namespace sphere::baselines {

namespace {

/// Replicated command layout: a prefix line selects the handler.
///   SQL\n<statement>            plain auto-commit statement
///   XAPREP <xid>\n<stmt>\n...   open txn, run statements, prepare
///   XACOMMIT <xid>              commit the prepared branch
///   XAABORT <xid>               roll back the prepared branch
constexpr char kSqlPrefix[] = "SQL\n";
constexpr char kPrepPrefix[] = "XAPREP ";
constexpr char kCommitPrefix[] = "XACOMMIT ";
constexpr char kAbortPrefix[] = "XAABORT ";

}  // namespace

RaftDb::RaftDb(RaftDbOptions options, const net::LatencyModel* network)
    : options_(std::move(options)), network_(network) {
  regions_.resize(static_cast<size_t>(options_.num_regions));
  for (int r = 0; r < options_.num_regions; ++r) {
    Region& region = regions_[static_cast<size_t>(r)];
    for (int i = 0; i < options_.replicas_per_region; ++i) {
      region.replicas.push_back(std::make_unique<engine::StorageNode>(
          options_.name + "-r" + std::to_string(r) + "-" + std::to_string(i)));
    }
    Region* region_ptr = &region;
    region.group = std::make_unique<raft::RaftGroup>(
        options_.replicas_per_region, network_,
        [this, region_ptr](int replica_id, const std::string& command) {
          Apply(region_ptr, replica_id, command);
        });
  }
}

void RaftDb::AddPartitionedTable(const std::string& table,
                                 const std::string& column) {
  partition_column_[ToLower(table)] = column;
}

void RaftDb::Apply(Region* region, int replica_id, const std::string& command) {
  engine::StorageNode* node = region->replicas[static_cast<size_t>(replica_id)].get();
  auto session = node->OpenSession();
  if (command.rfind(kSqlPrefix, 0) == 0) {
    (void)session->Execute(command.substr(sizeof(kSqlPrefix) - 1));
    return;
  }
  if (command.rfind(kPrepPrefix, 0) == 0) {
    auto lines = Split(command.substr(sizeof(kPrepPrefix) - 1), '\n');
    if (lines.empty()) return;
    std::string xid = lines[0];
    (void)session->Begin(xid);
    for (size_t i = 1; i < lines.size(); ++i) {
      if (!lines[i].empty()) (void)session->Execute(lines[i]);
    }
    (void)session->Prepare();
    return;
  }
  if (command.rfind(kCommitPrefix, 0) == 0) {
    (void)node->CommitPrepared(command.substr(sizeof(kCommitPrefix) - 1));
    return;
  }
  if (command.rfind(kAbortPrefix, 0) == 0) {
    (void)node->RollbackPrepared(command.substr(sizeof(kAbortPrefix) - 1));
    return;
  }
}

Status RaftDb::ExecuteDDL(const std::string& ddl_sql) {
  for (auto& region : regions_) {
    auto r = region.group->Propose(std::string(kSqlPrefix) + ddl_sql);
    SPHERE_RETURN_NOT_OK(r.status());
  }
  return Status::OK();
}

class RaftDb::Session : public SqlSession {
 public:
  explicit Session(RaftDb* db) : db_(db) {}

  Result<engine::ExecResult> Execute(std::string_view sql_text,
                                     const std::vector<Value>& params) override {
    // Client -> SQL layer hop + planner overhead.
    db_->network_->Transfer(sql_text.size() + params.size() * 16 + 16);
    auto result = ExecuteInner(sql_text, params);
    db_->network_->Transfer(result.ok() ? 256 : 64);
    return result;
  }

 private:
  Result<engine::ExecResult> ExecuteInner(std::string_view sql_text,
                                          const std::vector<Value>& params) {
    SleepMicros(db_->options_.sql_layer_overhead_us);
    sql::Parser parser;
    SPHERE_ASSIGN_OR_RETURN(sql::StatementPtr stmt, parser.Parse(sql_text));

    switch (stmt->kind()) {
      case sql::StatementKind::kBegin:
        in_txn_ = true;
        buffered_.clear();
        touched_.clear();
        return engine::ExecResult::Update(0);
      case sql::StatementKind::kCommit:
        return CommitTxn();
      case sql::StatementKind::kRollback:
        in_txn_ = false;
        buffered_.clear();
        touched_.clear();
        return engine::ExecResult::Update(0);
      default:
        break;
    }

    if (stmt->kind() == sql::StatementKind::kCreateTable ||
        stmt->kind() == sql::StatementKind::kDropTable ||
        stmt->kind() == sql::StatementKind::kTruncate ||
        stmt->kind() == sql::StatementKind::kCreateIndex) {
      sql::StatementPtr inlined = sql::InlineParameters(*stmt, params);
      SPHERE_RETURN_NOT_OK(
          db_->ExecuteDDL(inlined->ToSQL(sql::Dialect::MySQL())));
      return engine::ExecResult::Update(0);
    }

    SPHERE_ASSIGN_OR_RETURN(std::vector<int> regions, RouteRegions(*stmt, params));

    if (stmt->kind() == sql::StatementKind::kSelect) {
      // Reads execute on each region's leader replica, over the storage
      // protocol (the SQL layer talks to the storage layer across the
      // network, like TiDB server -> TiKV).
      std::vector<engine::ExecResult> partials;
      for (int r : regions) {
        if (db_->options_.quorum_reads) {
          // CRDB-profile consistency: confirm the lease with the quorum.
          for (int i = 1; i < db_->options_.replicas_per_region; ++i) {
            db_->network_->Transfer(48);
          }
        }
        SPHERE_ASSIGN_OR_RETURN(net::RemoteConnection * conn, LeaderConn(r));
        auto res = conn->Execute(sql_text, params);
        if (!res.ok()) return res.status();
        partials.push_back(std::move(res).value());
      }
      return MergeReads(*stmt, std::move(partials));
    }

    // Batched INSERTs must split their rows per region (each region applies
    // the full command it receives).
    if (stmt->kind() == sql::StatementKind::kInsert) {
      const auto& ins = static_cast<const sql::InsertStatement&>(*stmt);
      auto col = db_->partition_column_.find(ToLower(ins.table.name));
      if (col != db_->partition_column_.end() && ins.rows.size() > 1) {
        return ExecuteBatchInsert(ins, col->second, params);
      }
    }

    // Writes replicate through Raft.
    sql::StatementPtr inlined = sql::InlineParameters(*stmt, params);
    std::string text = inlined->ToSQL(sql::Dialect::MySQL());
    if (in_txn_) {
      for (int r : regions) {
        touched_.insert(r);
        buffered_[r].push_back(text);
      }
      // Affected counts are only known at commit in this buffered model;
      // report one row per statement (the common case for the workloads).
      return engine::ExecResult::Update(1);
    }
    int64_t affected = 0;
    for (int r : regions) {
      auto res = db_->regions_[static_cast<size_t>(r)].group->Propose(
          std::string(kSqlPrefix) + text);
      SPHERE_RETURN_NOT_OK(res.status());
      affected += 1;
    }
    return engine::ExecResult::Update(affected);
  }

  Result<engine::ExecResult> ExecuteBatchInsert(
      const sql::InsertStatement& ins, const std::string& column,
      const std::vector<Value>& params) {
    std::map<int, std::vector<size_t>> rows_by_region;
    auto values = sql::ExtractInsertValues(ins, column, params);
    if (!values.has_value()) {
      return Status::RouteError("INSERT misses the partition column");
    }
    for (size_t r = 0; r < values->size(); ++r) {
      int64_t v = (*values)[r].ToInt();
      int region = static_cast<int>(((v % db_->options_.num_regions) +
                                     db_->options_.num_regions) %
                                    db_->options_.num_regions);
      rows_by_region[region].push_back(r);
    }
    int64_t affected = 0;
    for (const auto& [region, row_indices] : rows_by_region) {
      auto clone = std::make_unique<sql::InsertStatement>();
      clone->table = ins.table;
      clone->columns = ins.columns;
      for (size_t r : row_indices) {
        std::vector<sql::ExprPtr> row;
        row.reserve(ins.rows[r].size());
        for (const auto& e : ins.rows[r]) {
          row.push_back(sql::InlineParameters(e.get(), params));
        }
        clone->rows.push_back(std::move(row));
      }
      std::string text = clone->ToSQL(sql::Dialect::MySQL());
      if (in_txn_) {
        touched_.insert(region);
        buffered_[region].push_back(text);
      } else {
        auto res = db_->regions_[static_cast<size_t>(region)].group->Propose(
            std::string(kSqlPrefix) + text);
        SPHERE_RETURN_NOT_OK(res.status());
      }
      affected += static_cast<int64_t>(row_indices.size());
    }
    return engine::ExecResult::Update(affected);
  }

  Result<engine::ExecResult> CommitTxn() {
    in_txn_ = false;
    if (touched_.empty()) return engine::ExecResult::Update(0);
    std::string xid =
        db_->options_.name + "-x" + std::to_string(db_->xid_counter_.fetch_add(1));
    // 2PC where each phase is itself a Raft proposal per region.
    for (int r : touched_) {
      std::string command = std::string(kPrepPrefix) + xid;
      for (const auto& text : buffered_[r]) {
        command += "\n" + text;
      }
      auto res = db_->regions_[static_cast<size_t>(r)].group->Propose(command);
      if (!res.ok()) {
        for (int r2 : touched_) {
          (void)db_->regions_[static_cast<size_t>(r2)].group->Propose(
              std::string(kAbortPrefix) + xid);
        }
        buffered_.clear();
        touched_.clear();
        return res.status();
      }
    }
    for (int r : touched_) {
      auto res = db_->regions_[static_cast<size_t>(r)].group->Propose(
          std::string(kCommitPrefix) + xid);
      SPHERE_RETURN_NOT_OK(res.status());
    }
    buffered_.clear();
    touched_.clear();
    return engine::ExecResult::Update(0);
  }

  Result<std::vector<int>> RouteRegions(const sql::Statement& stmt,
                                        const std::vector<Value>& params) {
    std::string table;
    const sql::Expr* where = nullptr;
    switch (stmt.kind()) {
      case sql::StatementKind::kSelect: {
        const auto& sel = static_cast<const sql::SelectStatement&>(stmt);
        if (sel.from.empty()) return std::vector<int>{0};
        table = sel.from[0].name;
        where = sel.where.get();
        break;
      }
      case sql::StatementKind::kInsert: {
        const auto& ins = static_cast<const sql::InsertStatement&>(stmt);
        table = ins.table.name;
        auto col = db_->partition_column_.find(ToLower(table));
        if (col == db_->partition_column_.end()) return std::vector<int>{0};
        auto values = sql::ExtractInsertValues(ins, col->second, params);
        if (!values.has_value() || values->empty()) {
          return Status::RouteError("INSERT misses the partition column");
        }
        std::set<int> out;
        for (const Value& v : *values) {
          out.insert(static_cast<int>(((v.ToInt() % db_->options_.num_regions) +
                                       db_->options_.num_regions) %
                                      db_->options_.num_regions));
        }
        return std::vector<int>(out.begin(), out.end());
      }
      case sql::StatementKind::kUpdate:
        table = static_cast<const sql::UpdateStatement&>(stmt).table.name;
        where = static_cast<const sql::UpdateStatement&>(stmt).where.get();
        break;
      case sql::StatementKind::kDelete:
        table = static_cast<const sql::DeleteStatement&>(stmt).table.name;
        where = static_cast<const sql::DeleteStatement&>(stmt).where.get();
        break;
      default:
        break;
    }
    auto col = db_->partition_column_.find(ToLower(table));
    if (col == db_->partition_column_.end()) return std::vector<int>{0};
    auto groups = sql::ExtractConditionGroups(where, params);
    if (groups.size() == 1) {
      for (const auto& cond : groups[0]) {
        if (!EqualsIgnoreCase(cond.column, col->second)) continue;
        if (cond.kind == sql::ColumnCondition::Kind::kEqual ||
            cond.kind == sql::ColumnCondition::Kind::kIn) {
          std::set<int> out;
          for (const Value& v : cond.values) {
            out.insert(static_cast<int>(
                ((v.ToInt() % db_->options_.num_regions) +
                 db_->options_.num_regions) %
                db_->options_.num_regions));
          }
          return std::vector<int>(out.begin(), out.end());
        }
      }
    }
    std::vector<int> all;
    for (int r = 0; r < db_->options_.num_regions; ++r) all.push_back(r);
    return all;
  }

  Result<engine::ExecResult> MergeReads(const sql::Statement& stmt,
                                        std::vector<engine::ExecResult> partials) {
    if (partials.empty()) return Status::Internal("no partials");
    if (partials.size() == 1) return std::move(partials[0]);
    return NaiveScatterMerge(static_cast<const sql::SelectStatement&>(stmt),
                             std::move(partials), db_->options_.name);
  }

  /// Cached storage-protocol connection to a region's current leader.
  Result<net::RemoteConnection*> LeaderConn(int region_idx) {
    RaftDb::Region& region = db_->regions_[static_cast<size_t>(region_idx)];
    int leader = region.group->leader();
    auto key = std::make_pair(region_idx, leader);
    auto it = leader_conns_.find(key);
    if (it == leader_conns_.end()) {
      it = leader_conns_
               .emplace(key, std::make_unique<net::RemoteConnection>(
                                 region.replicas[static_cast<size_t>(leader)].get(),
                                 db_->network_))
               .first;
    }
    return it->second.get();
  }

  RaftDb* db_;
  bool in_txn_ = false;
  std::map<int, std::vector<std::string>> buffered_;
  std::set<int> touched_;
  std::map<std::pair<int, int>, std::unique_ptr<net::RemoteConnection>>
      leader_conns_;
};

std::unique_ptr<SqlSession> RaftDb::Connect() {
  return std::make_unique<Session>(this);
}

}  // namespace sphere::baselines
