// The traced sessions. Spans are taken from here, around calls into each
// layer's public functions; nothing inside the program is instrumented.
//
// The SSJ replay mirrors ShardingConnection::ExecutePlanned and
// ShardingRuntime::ExecutePlan / ExecuteStatement for what the sbtest mixes
// use: TCL handled by the session's own DistributedTransaction, routed-plan
// reuse for zero-parameter SELECTs, a statement ArenaScope around route ->
// execute -> merge. The sbtest rule has no key generator and the benchmark
// installs no interceptors or hints, so those stages are empty in both paths.

#include <chrono>

#include "common/arena.h"
#include "core/hint.h"
#include "core/runtime.h"
#include "paperbench.h"
#include "transaction/manager.h"

namespace sphere::paperbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times each unit and its wait for dispatch, then forwards to the
/// transaction's own observer (null for LOCAL).
class TimingObserver : public core::UnitObserver {
 public:
  explicit TimingObserver(LayerTotals* totals) : totals_(totals) {}

  void Arm(int64_t execute_start_ns, core::UnitObserver* forward) {
    execute_start_ns_ = execute_start_ns;
    forward_ = forward;
  }

  Status BeforeUnit(net::RemoteConnection* conn, const core::SQLUnit& unit) override {
    // A pool worker runs its units one after another, so the unit in flight
    // on this thread is the one AfterUnit closes.
    unit_start_ns_ = NowNs();
    totals_->dispatch_wait.Add(unit_start_ns_ - execute_start_ns_);
    return forward_ != nullptr ? forward_->BeforeUnit(conn, unit) : Status::OK();
  }

  Status AfterUnit(net::RemoteConnection* conn, const core::SQLUnit& unit,
                   const Result<engine::ExecResult>& result) override {
    Status st = forward_ != nullptr ? forward_->AfterUnit(conn, unit, result) : Status::OK();
    totals_->unit.Add(NowNs() - unit_start_ns_);
    return st;
  }

 private:
  static thread_local int64_t unit_start_ns_;
  LayerTotals* totals_;
  int64_t execute_start_ns_ = 0;
  core::UnitObserver* forward_ = nullptr;
};

thread_local int64_t TimingObserver::unit_start_ns_ = 0;

class TracedJdbcSession : public Session {
 public:
  TracedJdbcSession(adaptor::ShardingDataSource* ds, LayerTotals* totals)
      : ds_(ds), runtime_(ds->runtime()), totals_(totals),
        executor_(runtime_->data_sources(), runtime_->max_connections_per_query()),
        observer_(totals) {}

  ~TracedJdbcSession() override {
    if (txn_ != nullptr) (void)txn_->Rollback();
  }

  Status Execute(std::string_view sql, const std::vector<Value>& params,
                 Answer* answer) override {
    int64_t t = NowNs();
    auto parsed = runtime_->GetOrParse(sql);
    totals_->parse.Add(NowNs() - t);
    if (!parsed.ok()) return parsed.status();
    const core::StatementPlan& plan = **parsed;

    switch (plan.stmt().kind()) {
      case sql::StatementKind::kBegin:
        if (txn_ != nullptr) SPHERE_RETURN_NOT_OK(Commit());  // implicit commit
        txn_ = std::make_unique<transaction::DistributedTransaction>(
            transaction::TransactionType::kLocal, ds_->transaction_context());
        DrainInto(engine::ExecResult::Update(0), answer);
        return Status::OK();
      case sql::StatementKind::kCommit:
        SPHERE_RETURN_NOT_OK(Commit());
        DrainInto(engine::ExecResult::Update(0), answer);
        return Status::OK();
      case sql::StatementKind::kRollback:
        if (txn_ != nullptr) {
          Status st = txn_->Rollback();
          txn_.reset();
          SPHERE_RETURN_NOT_OK(st);
        }
        DrainInto(engine::ExecResult::Update(0), answer);
        return Status::OK();
      default:
        break;
    }
    return Run(plan, params, answer);
  }

 private:
  Status Commit() {
    if (txn_ == nullptr) return Status::OK();
    totals_->participants.Add(static_cast<int64_t>(txn_->Participants().size()));
    int64_t t = NowNs();
    Status st = txn_->Commit();
    totals_->commit.Add(NowNs() - t);
    txn_.reset();
    return st;
  }

  Status Run(const core::StatementPlan& plan, const std::vector<Value>& params,
             Answer* answer) {
    core::ConnectionSource* source = txn_.get();
    core::UnitObserver* forward = txn_ != nullptr ? txn_->observer() : nullptr;
    const sql::Statement& stmt = plan.stmt();
    int64_t merge_start = 0;
    Result<engine::ExecResult> merged = Status::Internal("not merged");
    {
      ArenaScope arena_scope(true);
      // The routed form is reused exactly when ShardingRuntime::ExecutePlan
      // reuses it.
      const bool reusable = plan.param_count() == 0 &&
                            stmt.kind() == sql::StatementKind::kSelect &&
                            runtime_->rule() != nullptr &&
                            !core::HintManager::GetShardingValue().has_value();
      std::shared_ptr<const core::RoutedPlan> routed;
      core::RouteResult route;
      core::RewriteResult rewritten;
      const core::RewriteResult* use = &rewritten;
      if (reusable) {
        const uint64_t epoch = runtime_->statement_cache().epoch();
        routed = plan.routed(epoch);
        if (routed == nullptr) {
          ArenaSuspend heap_scope;
          auto fresh = std::make_shared<core::RoutedPlan>();
          fresh->rule_epoch = epoch;
          SPHERE_RETURN_NOT_OK(RouteAndRewrite(stmt, params, &fresh->route, &fresh->rewritten));
          routed = fresh;
          plan.StoreRouted(std::move(fresh));
        }
        use = &routed->rewritten;
      } else {
        SPHERE_RETURN_NOT_OK(RouteAndRewrite(stmt, params, &route, &rewritten));
      }

      const int64_t t = NowNs();
      observer_.Arm(t, forward);
      auto outcome = executor_.Execute(use->units, source, &observer_);
      totals_->execute.Add(NowNs() - t);
      if (!outcome.ok()) return outcome.status();
      totals_->strict.Add(outcome->mode == core::ConnectionMode::kConnectionStrictly ? 1 : 0);
      int64_t rows_in = 0;
      for (const engine::ExecResult& r : outcome->results) {
        if (r.result_set == nullptr) continue;
        if (const auto* rows = r.result_set->MaterializedRows()) {
          rows_in += static_cast<int64_t>(rows->size());
        }
      }
      merge_start = NowNs();
      merged = merger_.Merge(std::move(outcome->results), use->merge);
      if (merged.ok() && merged->is_query) totals_->merge_rows_in.Add(rows_in);
    }
    if (!merged.ok()) return merged.status();
    const bool is_query = merged->is_query;
    DrainInto(std::move(merged).value(), answer);
    totals_->merge.Add(NowNs() - merge_start);
    if (is_query) totals_->merge_rows_out.Add(static_cast<int64_t>(answer->rows));
    return Status::OK();
  }

  Status RouteAndRewrite(const sql::Statement& stmt, const std::vector<Value>& params,
                         core::RouteResult* route, core::RewriteResult* rewritten) {
    int64_t t = NowNs();
    auto routed = core::RouteEngine(runtime_->rule()).Route(stmt, params);
    totals_->route.Add(NowNs() - t);
    if (!routed.ok()) return routed.status();
    *route = std::move(routed).value();
    totals_->route_units.Add(static_cast<int64_t>(route->units.size()));
    t = NowNs();
    auto result = core::RewriteEngine(runtime_->dialect()).Rewrite(stmt, *route, params);
    totals_->rewrite.Add(NowNs() - t);
    if (!result.ok()) return result.status();
    *rewritten = std::move(result).value();
    return Status::OK();
  }

  adaptor::ShardingDataSource* ds_;
  core::ShardingRuntime* runtime_;
  LayerTotals* totals_;
  core::ExecutionEngine executor_;
  core::MergeEngine merger_;
  TimingObserver observer_;
  std::unique_ptr<transaction::DistributedTransaction> txn_;
};

/// The proxy stays in the path: only the client-visible round trip is timed.
class TracedProxySession : public Session {
 public:
  TracedProxySession(adaptor::ShardingProxy* proxy, LayerTotals* totals)
      : conn_(proxy->Connect()), totals_(totals) {}

  Status Execute(std::string_view sql, const std::vector<Value>& params,
                 Answer* answer) override {
    const int64_t t = NowNs();
    auto r = conn_->Execute(sql, params);
    totals_->proxy_stmt.Add(NowNs() - t);
    if (!r.ok()) return r.status();
    DrainInto(std::move(r).value(), answer);
    return Status::OK();
  }

 private:
  std::unique_ptr<adaptor::ShardingProxy::Connection> conn_;
  LayerTotals* totals_;
};

}  // namespace

std::unique_ptr<Session> OpenTracedSession(Cluster* cluster, LayerTotals* totals) {
  if (cluster->proxy() != nullptr) {
    return std::make_unique<TracedProxySession>(cluster->proxy(), totals);
  }
  return std::make_unique<TracedJdbcSession>(cluster->data_source(), totals);
}

}  // namespace sphere::paperbench
