#include "core/runtime.h"

#include "common/arena.h"
#include "common/strings.h"
#include "common/trace.h"
#include "core/hint.h"

namespace sphere::core {

ShardingRuntime::ShardingRuntime(RuntimeConfig config, net::NetworkConfig network)
    : config_(config), network_(network), dialect_(sql::Dialect::Get(config.dialect)),
      executor_(&registry_, config.max_connections_per_query),
      stmt_cache_(config.statement_cache_capacity) {
  // An empty rule still routes unsharded tables to the default data source
  // once SetRule is called; start with a null rule (Execute requires one).
}

Status ShardingRuntime::AttachNode(const std::string& name,
                                   engine::StorageNode* node) {
  return registry_.Register(std::make_unique<net::DataSource>(
      name, node, &network_, config_.pool_size_per_source));
}

Status ShardingRuntime::SetRule(ShardingRuleConfig config) {
  // Every rule change invalidates the plan cache: cached routed plans were
  // computed against the outgoing rule. (Invalidate also bumps the epoch, so
  // plans still being routed under the old rule can never be republished.)
  stmt_cache_.Invalidate();
  SPHERE_ASSIGN_OR_RETURN(rule_, ShardingRule::Build(std::move(config)));
  // Validate that every referenced data source is attached.
  for (const auto& ds : rule_->AllDataSources()) {
    if (registry_.Find(ds) == nullptr) {
      rule_.reset();
      return Status::NotFound("rule references unattached data source " + ds);
    }
  }
  return Status::OK();
}

Result<sql::StatementPtr> ShardingRuntime::ApplyKeyGeneration(
    const sql::Statement& stmt, std::vector<Value>* params,
    int64_t* generated) const {
  *generated = 0;
  if (stmt.kind() != sql::StatementKind::kInsert || rule_ == nullptr) {
    return sql::StatementPtr(nullptr);
  }
  const auto& ins = static_cast<const sql::InsertStatement&>(stmt);
  const TableRule* table_rule = rule_->FindTableRule(ins.table.name);
  if (table_rule == nullptr || table_rule->key_generator() == nullptr ||
      ins.columns.empty()) {
    return sql::StatementPtr(nullptr);
  }
  for (const auto& c : ins.columns) {
    if (EqualsIgnoreCase(c, table_rule->keygen_column())) {
      return sql::StatementPtr(nullptr);  // caller supplied the key
    }
  }
  // Append the generated-key column with fresh keys on every row. The keys
  // ride as bound parameters, so the statement shape stays stable across
  // executions.
  auto clone = stmt.Clone();
  auto* mutable_ins = static_cast<sql::InsertStatement*>(clone.get());
  mutable_ins->columns.push_back(table_rule->keygen_column());
  for (auto& row : mutable_ins->rows) {
    Value key = table_rule->key_generator()->NextKey();
    if (key.is_int()) *generated = key.AsInt();
    row.push_back(
        std::make_unique<sql::ParamExpr>(static_cast<int>(params->size())));
    params->push_back(std::move(key));
  }
  return clone;
}

Result<engine::ExecResult> ShardingRuntime::ExecuteStatement(
    const sql::Statement& stmt, std::vector<Value> params,
    ConnectionSource* txn_source, UnitObserver* observer) {
  if (rule_ == nullptr) {
    return Status::InvalidArgument("no sharding rule configured");
  }

  // Span tree for this statement: joins a forced (TRACE) or sampled outer
  // trace, samples a fresh one, or no-ops (DESIGN.md §13). Span storage is
  // trace-owned — never the statement arena below, which is reset on return.
  trace::StatementTraceScope tscope(config_.trace_sample_interval);
  if (tscope.active()) {
    tscope.Note("kind", std::string(sql::StatementKindName(stmt.kind())));
  }

  // Statement scope: AST clones (keygen, interceptors, rewrite output) and
  // scratch below bump-allocate and are reclaimed wholesale on return. The
  // merged result escapes the scope, so it must hold no arena memory — its
  // rows and labels use plain std containers (heap) by construction.
  ArenaScope arena_scope(true);

  const sql::Statement* effective = &stmt;
  sql::StatementPtr keygen_stmt;
  int64_t generated_key = 0;
  SPHERE_ASSIGN_OR_RETURN(keygen_stmt,
                          ApplyKeyGeneration(stmt, &params, &generated_key));
  if (keygen_stmt != nullptr) effective = keygen_stmt.get();

  // Feature hooks: statement-level rewrites (encrypt etc.).
  std::vector<sql::StatementPtr> owned;
  for (auto& interceptor : interceptors_) {
    SPHERE_ASSIGN_OR_RETURN(sql::StatementPtr replaced,
                            interceptor->BeforeRoute(*effective, &params));
    if (replaced != nullptr) {
      effective = replaced.get();
      owned.push_back(std::move(replaced));
    }
  }

  RouteEngine router(rule_.get());
  RouteResult route;
  {
    trace::ScopedSpan span("route");
    SPHERE_ASSIGN_OR_RETURN(route, router.Route(*effective, params));
    if (span.active()) {
      span.Note("fan_out", std::to_string(route.units.size()));
    }
  }

  RewriteEngine rewriter(dialect_);
  RewriteResult rewritten;
  {
    trace::ScopedSpan span("rewrite");
    SPHERE_ASSIGN_OR_RETURN(rewritten,
                            rewriter.Rewrite(*effective, route, params));
    if (span.active()) {
      span.Note("units", std::to_string(rewritten.units.size()));
    }
  }

  bool in_txn = txn_source != nullptr;
  for (auto& interceptor : interceptors_) {
    SPHERE_RETURN_NOT_OK(
        interceptor->AfterRewrite(*effective, &rewritten.units, in_txn));
  }

  ExecutionOutcome outcome;
  {
    trace::ScopedSpan span("execute");
    SPHERE_ASSIGN_OR_RETURN(
        outcome, executor_.Execute(rewritten.units, txn_source, observer));
  }
  last_mode_.store(outcome.mode, std::memory_order_relaxed);

  engine::ExecResult merged;
  {
    trace::ScopedSpan span("merge");
    SPHERE_ASSIGN_OR_RETURN(
        merged, merger_.Merge(std::move(outcome.results), rewritten.merge));
  }
  if (generated_key != 0 && merged.last_insert_id == 0) {
    merged.last_insert_id = generated_key;
  }

  for (auto it = interceptors_.rbegin(); it != interceptors_.rend(); ++it) {
    SPHERE_ASSIGN_OR_RETURN(merged,
                            (*it)->DecorateResult(*effective, std::move(merged)));
  }
  return merged;
}

Result<engine::ExecResult> ShardingRuntime::Execute(std::string_view sql_text,
                                                    std::vector<Value> params) {
  // Opened here (not in ExecutePlan) so the parse/cache-lookup stage lands
  // inside the statement span; inner scopes join this one.
  trace::StatementTraceScope tscope(config_.trace_sample_interval);
  SPHERE_ASSIGN_OR_RETURN(std::shared_ptr<const StatementPlan> plan,
                          GetOrParse(sql_text));
  return ExecutePlan(*plan, std::move(params), nullptr);
}

Result<std::shared_ptr<const StatementPlan>> ShardingRuntime::GetOrParse(
    std::string_view sql_text) {
  trace::ScopedSpan span("parse");
  std::shared_ptr<const StatementPlan> plan =
      stmt_cache_.Get(config_.dialect, sql_text);
  if (plan != nullptr) {
    if (span.active()) span.Note("cache", "hit");
    return plan;
  }
  if (span.active()) span.Note("cache", "miss");
  // The parsed AST outlives this statement (it is published to the plan
  // cache), so it must never come from a statement arena.
  ArenaSuspend heap_scope;
  SPHERE_ASSIGN_OR_RETURN(sql::SharedStatement parsed,
                          sql::ParseShared(sql_text, dialect_));
  plan = std::make_shared<StatementPlan>(std::move(parsed), config_.dialect);
  stmt_cache_.Put(config_.dialect, sql_text, plan);
  return plan;
}

Result<engine::ExecResult> ShardingRuntime::ExecutePlan(
    const StatementPlan& plan, std::vector<Value> params,
    ConnectionSource* txn_source, UnitObserver* observer) {
  // The routed/rewritten form is reusable only when nothing outside the AST
  // and the rule can change it: no parameters (the physical SQL embeds
  // parameter-derived routing), no feature interceptors (they may replace the
  // statement or redirect units per call), no thread-local sharding hint, and
  // a SELECT (INSERTs go through key generation, DML through AT-mode
  // observers that want the regular pipeline's statement identity).
  bool reusable = plan.param_count() == 0 &&
                  plan.stmt().kind() == sql::StatementKind::kSelect &&
                  interceptors_.empty() && rule_ != nullptr &&
                  !HintManager::GetShardingValue().has_value();
  if (!reusable) {
    return ExecuteStatement(plan.stmt(), std::move(params), txn_source,
                            observer);
  }

  // Read the epoch before routing: if SetRule lands in between, the plan we
  // publish carries the stale epoch and is never reused.
  uint64_t epoch = stmt_cache_.epoch();
  std::shared_ptr<const RoutedPlan> routed = plan.routed(epoch);
  if (routed == nullptr && !plan.NoteUnroutedExecution()) {
    // Publish on repeat: a first execution routes and rewrites in the
    // statement arena and leaves nothing behind.
    return ExecuteStatement(plan.stmt(), std::move(params), txn_source,
                            observer);
  }

  trace::StatementTraceScope tscope(config_.trace_sample_interval);

  ArenaScope arena_scope(true);

  if (routed == nullptr) {
    // The routed plan is published for reuse by later statements, so its
    // rewrite (clones included) must be heap-built, not arena-built.
    ArenaSuspend heap_scope;
    auto fresh = std::make_shared<RoutedPlan>();
    fresh->rule_epoch = epoch;
    RouteEngine router(rule_.get());
    {
      trace::ScopedSpan span("route");
      SPHERE_ASSIGN_OR_RETURN(fresh->route, router.Route(plan.stmt(), params));
      if (span.active()) {
        span.Note("fan_out", std::to_string(fresh->route.units.size()));
      }
    }
    RewriteEngine rewriter(dialect_);
    {
      trace::ScopedSpan span("rewrite");
      SPHERE_ASSIGN_OR_RETURN(
          fresh->rewritten, rewriter.Rewrite(plan.stmt(), fresh->route, params));
      if (span.active()) {
        span.Note("units", std::to_string(fresh->rewritten.units.size()));
      }
    }
    routed = fresh;
    plan.StoreRouted(std::move(fresh));
  } else if (tscope.active()) {
    tscope.Note("routed_plan", "reused");
  }

  ExecutionOutcome outcome;
  {
    trace::ScopedSpan span("execute");
    SPHERE_ASSIGN_OR_RETURN(
        outcome, executor_.Execute(routed->rewritten.units, txn_source, observer));
  }
  last_mode_.store(outcome.mode, std::memory_order_relaxed);
  trace::ScopedSpan merge_span("merge");
  return merger_.Merge(std::move(outcome.results), routed->rewritten.merge);
}

Result<RouteResult> ShardingRuntime::PreviewRoute(
    const sql::Statement& stmt, const std::vector<Value>& params) const {
  if (rule_ == nullptr) {
    return Status::InvalidArgument("no sharding rule configured");
  }
  RouteEngine router(rule_.get());
  return router.Route(stmt, params);
}

}  // namespace sphere::core
