#include "engine/executor.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>

#include "common/strings.h"
#include "engine/row_batch.h"
#include "engine/row_dedup.h"
#include "engine/storage_node.h"
#include "engine/topk.h"
#include "sql/condition.h"
#include "sql/dialect.h"

namespace sphere::engine {

namespace {

using sql::ColumnCondition;

/// Lexicographic row order for GROUP keys.
struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// Output column labels of a SELECT, resolving `*` against the source.
std::vector<std::string> BuildLabels(const sql::SelectStatement& stmt,
                                     const BoundColumns& cols) {
  const sql::Dialect& dialect = sql::Dialect::MySQL();
  std::vector<std::string> labels = RowStore::Instance().AcquireLabelShell();
  for (const auto& item : stmt.items) {
    if (item.is_star) {
      for (size_t i = 0; i < cols.size(); ++i) {
        if (!item.star_qualifier.empty() &&
            !EqualsIgnoreCase(cols.at(i).first, item.star_qualifier)) {
          continue;
        }
        labels.emplace_back(cols.at(i).second);
      }
    } else {
      labels.push_back(item.Label(dialect));
    }
  }
  return labels;
}

/// Projects one source row through the select list.
Result<Row> ProjectRow(const sql::SelectStatement& stmt,
                       const BoundColumns& cols, const Row& row,
                       const std::vector<Value>& params) {
  Row out;
  out.reserve(stmt.items.size());
  for (const auto& item : stmt.items) {
    if (item.is_star) {
      for (size_t i = 0; i < cols.size(); ++i) {
        if (!item.star_qualifier.empty() &&
            !EqualsIgnoreCase(cols.at(i).first, item.star_qualifier)) {
          continue;
        }
        out.push_back(row[i]);
      }
    } else {
      SPHERE_ASSIGN_OR_RETURN(Value v, EvalExpr(item.expr.get(), cols, row, params));
      out.push_back(std::move(v));
    }
  }
  return out;
}

/// One select-list output cell of the pooled projection: either a direct
/// source-column copy (capacity-reusing assignment into the recycled row)
/// or a general expression evaluation.
struct ProjectionStep {
  int col = -1;                     ///< source column index, or -1
  const sql::Expr* expr = nullptr;  ///< evaluated when col < 0
};

/// Flattens the select list (stars expanded) into per-cell steps. Direct
/// column references skip EvalExpr's value copy so the projection can assign
/// straight from the borrowed source row.
ArenaVector<ProjectionStep> BuildProjectionSteps(
    const sql::SelectStatement& stmt, const BoundColumns& cols) {
  ArenaVector<ProjectionStep> steps;
  steps.reserve(stmt.items.size());
  for (const auto& item : stmt.items) {
    if (item.is_star) {
      for (size_t i = 0; i < cols.size(); ++i) {
        if (!item.star_qualifier.empty() &&
            !EqualsIgnoreCase(cols.at(i).first, item.star_qualifier)) {
          continue;
        }
        steps.push_back(ProjectionStep{static_cast<int>(i), nullptr});
      }
    } else if (item.expr->kind() == sql::ExprKind::kColumnRef) {
      const auto* c = static_cast<const sql::ColumnRefExpr*>(item.expr.get());
      int idx = cols.Resolve(c->table, c->column);
      if (idx >= 0) {
        steps.push_back(ProjectionStep{idx, nullptr});
      } else {
        // Unresolvable reference: defer to EvalExpr for identical errors.
        steps.push_back(ProjectionStep{-1, item.expr.get()});
      }
    } else {
      steps.push_back(ProjectionStep{-1, item.expr.get()});
    }
  }
  return steps;
}

/// Projects into a recycled row: same-position cells are assigned in place
/// (same-alternative variant assignment reuses string capacity), so a warm
/// row projects with zero allocations.
Status ProjectRowInto(const ArenaVector<ProjectionStep>& steps,
                      const BoundColumns& cols, const Row& row,
                      const std::vector<Value>& params, Row* out) {
  if (out->size() > steps.size()) out->resize(steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].col >= 0) {
      const Value& v = row[static_cast<size_t>(steps[i].col)];
      if (i < out->size()) {
        (*out)[i] = v;
      } else {
        out->push_back(v);
      }
    } else {
      SPHERE_ASSIGN_OR_RETURN(Value v,
                              EvalExpr(steps[i].expr, cols, row, params));
      if (i < out->size()) {
        (*out)[i] = std::move(v);
      } else {
        out->push_back(std::move(v));
      }
    }
  }
  return Status::OK();
}

/// Strict weak order over (order-keys, payload) pairs per the ORDER BY spec.
struct KeyedRowLess {
  const std::vector<sql::OrderByItem>* order_by;
  bool operator()(const std::pair<Row, Row>& a,
                  const std::pair<Row, Row>& b) const {
    for (size_t i = 0; i < order_by->size(); ++i) {
      int c = a.first[i].Compare(b.first[i]);
      if (c != 0) return (*order_by)[i].desc ? c > 0 : c < 0;
    }
    return false;
  }
};

/// True when `cond`'s qualifier can refer to this table.
bool ConditionApplies(const ColumnCondition& cond, const sql::TableRef& ref,
                      const Schema& schema) {
  if (!cond.table.empty() && !EqualsIgnoreCase(cond.table, ref.EffectiveName())) {
    return false;
  }
  return schema.IndexOf(cond.column) >= 0;
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

enum class AggType { kCount, kSum, kMin, kMax, kAvg };

Result<AggType> AggTypeOf(const std::string& name) {
  if (EqualsIgnoreCase(name, "COUNT")) return AggType::kCount;
  if (EqualsIgnoreCase(name, "SUM")) return AggType::kSum;
  if (EqualsIgnoreCase(name, "MIN")) return AggType::kMin;
  if (EqualsIgnoreCase(name, "MAX")) return AggType::kMax;
  if (EqualsIgnoreCase(name, "AVG")) return AggType::kAvg;
  return Status::Unsupported("aggregate " + name);
}

/// One aggregate accumulator.
struct AggState {
  AggType type = AggType::kCount;
  bool distinct = false;
  int64_t count = 0;
  double sum = 0;
  bool sum_is_int = true;
  int64_t isum = 0;
  Value min, max;
  std::set<Value> distinct_values;

  void Accumulate(const Value& v) {
    if (v.is_null()) return;
    if (distinct) {
      if (!distinct_values.insert(v).second) return;
    }
    ++count;
    if (v.is_int()) {
      isum += v.AsInt();
      sum += static_cast<double>(v.AsInt());
    } else if (v.is_double()) {
      sum_is_int = false;
      sum += v.AsDouble();
    }
    if (min.is_null() || v.Compare(min) < 0) min = v;
    if (max.is_null() || v.Compare(max) > 0) max = v;
  }

  Value Finish() const {
    switch (type) {
      case AggType::kCount:
        return Value(count);
      case AggType::kSum:
        if (count == 0) return Value::Null();
        return sum_is_int ? Value(isum) : Value(sum);
      case AggType::kMin:
        return min;
      case AggType::kMax:
        return max;
      case AggType::kAvg:
        if (count == 0) return Value::Null();
        return Value(sum / static_cast<double>(count));
    }
    return Value::Null();
  }
};

/// The aggregates referenced by a query, keyed by their normalized SQL text.
struct AggPlan {
  std::vector<const sql::FuncCallExpr*> exprs;  ///< unique aggregate calls
  std::map<std::string, size_t> index_by_key;

  static std::string KeyOf(const sql::FuncCallExpr* f) {
    return f->ToSQL(sql::Dialect::MySQL());
  }

  void Collect(const sql::Expr* e) {
    sql::WalkExpr(e, [this](const sql::Expr* node) {
      if (node->kind() == sql::ExprKind::kFuncCall) {
        const auto* f = static_cast<const sql::FuncCallExpr*>(node);
        if (f->IsAggregate()) {
          std::string key = KeyOf(f);
          if (!index_by_key.count(key)) {
            index_by_key[key] = exprs.size();
            exprs.push_back(f);
          }
        }
      }
    });
  }
};

/// One group's accumulated state.
struct Group {
  Row key;
  Row first_row;  ///< first source row of the group (for non-agg items)
  std::vector<AggState> aggs;
};

/// Evaluates an expression over a finished group: aggregate calls resolve to
/// their accumulated value, everything else evaluates against the group's
/// first source row.
Result<Value> EvalOverGroup(const sql::Expr* e, const AggPlan& plan,
                            const Group& g, const BoundColumns& cols,
                            const std::vector<Value>& params) {
  if (e->kind() == sql::ExprKind::kFuncCall) {
    const auto* f = static_cast<const sql::FuncCallExpr*>(e);
    if (f->IsAggregate()) {
      auto it = plan.index_by_key.find(AggPlan::KeyOf(f));
      if (it == plan.index_by_key.end()) {
        return Status::Internal("aggregate not planned: " + f->name);
      }
      return g.aggs[it->second].Finish();
    }
  }
  if (e->kind() == sql::ExprKind::kBinary) {
    const auto* b = static_cast<const sql::BinaryExpr*>(e);
    SPHERE_ASSIGN_OR_RETURN(Value l, EvalOverGroup(b->left.get(), plan, g, cols, params));
    SPHERE_ASSIGN_OR_RETURN(Value r, EvalOverGroup(b->right.get(), plan, g, cols, params));
    // Re-evaluate the operator on computed operands via a tiny literal tree.
    sql::BinaryExpr tmp(b->op, std::make_unique<sql::LiteralExpr>(l),
                        std::make_unique<sql::LiteralExpr>(r));
    return EvalExpr(&tmp, cols, g.first_row, params);
  }
  return EvalExpr(e, cols, g.first_row, params);
}

}  // namespace

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

Result<ScanPlan> Executor::PlanScan(const sql::TableRef& ref,
                                    const sql::Expr* where,
                                    const std::vector<Value>& params) {
  storage::Table* table = db_->FindTable(ref.name);
  if (table == nullptr) {
    return Status::NotFound("table " + ref.name);
  }
  ScanPlan plan;
  plan.table = table;

  // Try to find an index-friendly condition (single AND-group only).
  ArenaVector<sql::ConditionGroup> groups =
      sql::ExtractConditionGroups(where, params);
  int pk = table->pk_index();
  if (groups.size() == 1) {
    for (const auto& cond : groups[0]) {
      if (!ConditionApplies(cond, ref, table->schema())) continue;
      int ci = table->schema().IndexOf(cond.column);
      if (ci == pk && !plan.pk_cond.has_value()) {
        plan.pk_cond = cond;
      } else if (cond.kind == ColumnCondition::Kind::kEqual &&
                 table->FindIndexOn(ci) != nullptr &&
                 !plan.idx_cond.has_value()) {
        plan.idx_cond = cond;
      }
    }
  }
  return plan;
}

Result<Executor::SourceRows> Executor::ScanTable(
    const sql::TableRef& ref, const sql::Expr* where,
    const std::vector<Value>& params,
    const storage::ReadView* view_override) {
  SPHERE_ASSIGN_OR_RETURN(ScanPlan plan, PlanScan(ref, where, params));
  SourceRows out;
  const std::string& qual = ref.EffectiveName();
  for (const auto& col : plan.table->schema().columns()) {
    out.columns.Add(qual, col.name);
  }

  // Rows must outlive the latch, so the multi-table/aggregated path still
  // materializes the scan here; the copy is the price of releasing the latch
  // before join/merge work (single-table SELECTs bypass this entirely via
  // Executor::TryStreamSelect). Under mvcc the cursor self-latches in short
  // bursts instead of freezing the table for the whole copy; DML fallback
  // lanes (view_override) keep the blocking reader section — their caller
  // re-checks every row under the writer latch anyway.
  const bool self_latch =
      view_override == nullptr && mvcc();
  storage::ReadView view = view_override != nullptr ? *view_override
                                                    : read_view_;
  OptionalReaderLock lk(self_latch ? nullptr : &plan.table->latch());
  if (!plan.pk_cond.has_value() && !plan.idx_cond.has_value()) {
    out.rows.reserve(plan.table->row_count());
  }
  TableScanCursor cursor(plan, view, self_latch);
  for (const Row* row = cursor.Next(); row != nullptr; row = cursor.Next()) {
    out.rows.push_back(*row);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Streaming fast path
// ---------------------------------------------------------------------------

Result<std::optional<ExecResult>> Executor::TryStreamSelect(
    const sql::SelectStatement& stmt, const std::vector<Value>& params) {
  std::optional<ExecResult> fallback;  // nullopt → materializing path
  if (stmt.from.size() != 1 || !stmt.joins.empty()) return fallback;

  // Global aggregates (no GROUP BY) stream too: every item must be a plain
  // non-DISTINCT aggregate call, and the one-row result leaves nothing for
  // ORDER BY / LIMIT / HAVING to do, so those shapes stay on the
  // materializing path. Everything else aggregated falls back as before.
  ArenaVector<const sql::FuncCallExpr*> agg_items;
  if (stmt.HasAggregation() || !stmt.group_by.empty()) {
    if (!stmt.group_by.empty() || stmt.distinct || stmt.having != nullptr ||
        !stmt.order_by.empty() || stmt.limit.has_value()) {
      return fallback;
    }
    for (const auto& item : stmt.items) {
      if (item.is_star || item.expr == nullptr ||
          item.expr->kind() != sql::ExprKind::kFuncCall) {
        return fallback;
      }
      const auto* f = static_cast<const sql::FuncCallExpr*>(item.expr.get());
      if (!f->IsAggregate() || f->distinct ||
          (!f->star && f->args.size() != 1)) {
        return fallback;
      }
      agg_items.push_back(f);
    }
  }

  SPHERE_ASSIGN_OR_RETURN(ScanPlan plan,
                          PlanScan(stmt.from[0], stmt.where.get(), params));
  storage::Table* table = plan.table;

  // Bind source columns (single table ⇒ source index == schema index).
  BoundColumns columns;
  const std::string& qual = stmt.from[0].EffectiveName();
  for (const auto& col : table->schema().columns()) {
    columns.Add(qual, col.name);
  }

  if (!agg_items.empty()) {
    // Aggregate fold: accumulators on the stack, source rows consumed batch
    // by batch off the cursor — nothing is materialized, so the read path
    // stays allocation-free per row (the accumulator vector and the single
    // output row are the statement's O(1) footprint).
    std::vector<AggState> states(agg_items.size());
    for (size_t i = 0; i < agg_items.size(); ++i) {
      SPHERE_ASSIGN_OR_RETURN(states[i].type, AggTypeOf(agg_items[i]->name));
    }
    {
      // Same latch profile as the row stream below: mvcc self-latches per
      // batch against the statement snapshot; latch mode holds one shared
      // section across the whole fold.
      const bool self_latch = mvcc();
      OptionalReaderLock lk(self_latch ? nullptr : &table->latch());
      TableScanCursor cursor(plan, read_view_, self_latch);
      for (const Row* row = cursor.Next(); row != nullptr;
           row = cursor.Next()) {
        if (stmt.where != nullptr) {
          SPHERE_ASSIGN_OR_RETURN(
              Value ok, EvalExpr(stmt.where.get(), columns, *row, params));
          if (!IsTruthy(ok)) continue;
        }
        for (size_t i = 0; i < agg_items.size(); ++i) {
          if (agg_items[i]->star) {
            states[i].Accumulate(Value(int64_t{1}));
          } else {
            SPHERE_ASSIGN_OR_RETURN(
                Value v,
                EvalExpr(agg_items[i]->args[0].get(), columns, *row, params));
            states[i].Accumulate(v);
          }
        }
      }
    }
    std::vector<Row> output = RowStore::Instance().AcquireShell();
    std::vector<Row> one = RowStore::Instance().AcquireShell();
    RowStore::Instance().AcquireRows(&one, 1);
    Row out_row;
    if (!one.empty()) {
      out_row = std::move(one.back());
      one.pop_back();
    }
    RowStore::Instance().Release(std::move(one));
    out_row.clear();
    out_row.reserve(states.size());
    for (const AggState& s : states) out_row.push_back(s.Finish());
    output.push_back(std::move(out_row));
    return std::optional<ExecResult>(
        ExecResult::Query(std::make_unique<VectorResultSet>(
            BuildLabels(stmt, columns), std::move(output))));
  }

  // Every ORDER BY column must resolve against the source; otherwise the
  // materializing path owns the statement, including its error reporting.
  for (const auto& ob : stmt.order_by) {
    if (ob.expr->kind() == sql::ExprKind::kColumnRef) {
      const auto* c = static_cast<const sql::ColumnRefExpr*>(ob.expr.get());
      if (columns.Resolve(c->table, c->column) < 0) return fallback;
    }
  }

  // Classify the ORDER BY. An ascending first key on the primary key of a
  // pk-ordered scan makes the sort a no-op: the key is unique, so later
  // ORDER BY columns can never break a tie.
  enum class OrderMode { kNone, kIndexOrdered, kTopK };
  OrderMode order = OrderMode::kNone;
  if (!stmt.order_by.empty()) {
    order = OrderMode::kTopK;
    const auto& first = stmt.order_by[0];
    if (!first.desc && first.expr->kind() == sql::ExprKind::kColumnRef &&
        table->pk_index() >= 0 && plan.pk_ordered()) {
      const auto* c = static_cast<const sql::ColumnRefExpr*>(first.expr.get());
      if (columns.Resolve(c->table, c->column) == table->pk_index()) {
        order = OrderMode::kIndexOrdered;
      }
    }
  }

  bool has_count = stmt.limit.has_value() && stmt.limit->count >= 0;
  size_t offset =
      stmt.limit.has_value()
          ? static_cast<size_t>(std::max<int64_t>(0, stmt.limit->offset))
          : 0;
  size_t budget = has_count
                      ? offset + static_cast<size_t>(stmt.limit->count)
                      : std::numeric_limits<size_t>::max();

  if (order == OrderMode::kTopK && (!has_count || stmt.distinct)) {
    // Without a LIMIT count there is nothing to bound; with DISTINCT the
    // baseline dedups *after* sorting, so truncating to k rows first would
    // let duplicates consume the budget. Both use the materializing path.
    return fallback;
  }

  std::vector<std::string> labels = BuildLabels(stmt, columns);
  // Output spine and (on the plain-stream path) projection rows come from
  // the recycler.
  std::vector<Row> output = RowStore::Instance().AcquireShell();
  std::vector<Row> spare = RowStore::Instance().AcquireShell();
  {
    // mvcc: the cursor self-latches per batch and resolves version chains
    // against the statement snapshot — writers never wait for this drain.
    // latch: one shared section across the whole drain, the blocking
    // baseline profile (identical results, old latch behaviour).
    const bool self_latch = mvcc();
    OptionalReaderLock lk(self_latch ? nullptr : &table->latch());
    TableScanCursor cursor(plan, read_view_, self_latch);
    if (order == OrderMode::kTopK) {
      // Bounded top-k: keep the first `offset+count` rows of the stable sort
      // order, O(n log k) instead of O(n log n) and O(k) extra memory.
      TopKHeap<std::pair<Row, Row>, KeyedRowLess> heap(
          budget, KeyedRowLess{&stmt.order_by});
      for (const Row* row = cursor.Next(); row != nullptr;
           row = cursor.Next()) {
        if (stmt.where != nullptr) {
          SPHERE_ASSIGN_OR_RETURN(
              Value ok, EvalExpr(stmt.where.get(), columns, *row, params));
          if (!IsTruthy(ok)) continue;
        }
        Row keys;
        keys.reserve(stmt.order_by.size());
        for (const auto& ob : stmt.order_by) {
          SPHERE_ASSIGN_OR_RETURN(
              Value v, EvalExpr(ob.expr.get(), columns, *row, params));
          keys.push_back(std::move(v));
        }
        SPHERE_ASSIGN_OR_RETURN(Row projected,
                                ProjectRow(stmt, columns, *row, params));
        heap.Push({std::move(keys), std::move(projected)});
      }
      std::vector<std::pair<Row, Row>> sorted = heap.TakeSorted();
      output.reserve(sorted.size());
      for (auto& [keys, row] : sorted) output.push_back(std::move(row));
    } else if (stmt.distinct) {
      // Dedup in scan order; stop once `offset+count` distinct rows exist.
      RowIndexSet seen(&output);
      for (const Row* row = cursor.Next();
           row != nullptr && output.size() < budget; row = cursor.Next()) {
        if (stmt.where != nullptr) {
          SPHERE_ASSIGN_OR_RETURN(
              Value ok, EvalExpr(stmt.where.get(), columns, *row, params));
          if (!IsTruthy(ok)) continue;
        }
        SPHERE_ASSIGN_OR_RETURN(Row projected,
                                ProjectRow(stmt, columns, *row, params));
        output.push_back(std::move(projected));
        if (!seen.Admit(output.size() - 1)) output.pop_back();
      }
    } else {
      // Plain stream: skip the first `offset` matches without projecting
      // them, stop as soon as `count` rows are emitted.
      size_t count_limit = has_count
                               ? static_cast<size_t>(stmt.limit->count)
                               : std::numeric_limits<size_t>::max();
      // Pooled projection: recycled rows are pulled in bounded chunks (one
      // pool lock per chunk) and assigned in place. The first chunk is
      // capped by what the access path can possibly emit, so a point lookup
      // borrows one row, not a whole chunk.
      constexpr size_t kSpareChunk = 256;
      ArenaVector<ProjectionStep> steps = BuildProjectionSteps(stmt, columns);
      size_t dry_until = 0;  ///< probe the pool again at this output size
      size_t bound = count_limit;
      if (plan.pk_cond.has_value() &&
          plan.pk_cond->kind != ColumnCondition::Kind::kRange) {
        bound = std::min(bound, plan.pk_cond->values.size());
      }
      RowStore::Instance().AcquireRows(&spare, std::min(bound, kSpareChunk));
      size_t skipped = 0;
      for (const Row* row = cursor.Next();
           row != nullptr && output.size() < count_limit;
           row = cursor.Next()) {
        if (stmt.where != nullptr) {
          SPHERE_ASSIGN_OR_RETURN(
              Value ok, EvalExpr(stmt.where.get(), columns, *row, params));
          if (!IsTruthy(ok)) continue;
        }
        if (skipped < offset) {
          ++skipped;
          continue;
        }
        if (spare.empty() && output.size() >= dry_until) {
          if (RowStore::Instance().AcquireRows(&spare, kSpareChunk) == 0) {
            dry_until = output.size() + kSpareChunk;
          }
        }
        Row projected;
        if (!spare.empty()) {
          projected = std::move(spare.back());
          spare.pop_back();
        }
        SPHERE_RETURN_NOT_OK(
            ProjectRowInto(steps, columns, *row, params, &projected));
        output.push_back(std::move(projected));
      }
      offset = 0;  // already applied during the scan
    }
  }
  RowStore::Instance().Release(std::move(spare));

  // TopK/DISTINCT paths produced rows [0, offset+count); drop the offset.
  if (offset > 0) {
    if (offset >= output.size()) {
      output.clear();
    } else {
      output.erase(output.begin(), output.begin() + static_cast<long>(offset));
    }
  }
  return std::optional<ExecResult>(ExecResult::Query(
      std::make_unique<VectorResultSet>(std::move(labels), std::move(output))));
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

Result<Executor::SourceRows> Executor::BuildSource(
    const sql::SelectStatement& stmt, const std::vector<Value>& params) {
  if (stmt.from.empty()) {
    // SELECT without FROM: one empty row.
    SourceRows out;
    out.rows.emplace_back();
    return out;
  }
  SPHERE_ASSIGN_OR_RETURN(SourceRows acc,
                          ScanTable(stmt.from[0], stmt.where.get(), params));

  // Comma-joined tables: cross product (WHERE filters later).
  for (size_t i = 1; i < stmt.from.size(); ++i) {
    SPHERE_ASSIGN_OR_RETURN(SourceRows next,
                            ScanTable(stmt.from[i], stmt.where.get(), params));
    SourceRows combined;
    combined.columns = acc.columns;
    for (size_t c = 0; c < next.columns.size(); ++c) {
      combined.columns.Add(next.columns.at(c).first, next.columns.at(c).second);
    }
    combined.rows.reserve(acc.rows.size() * next.rows.size());
    for (const Row& l : acc.rows) {
      for (const Row& r : next.rows) {
        Row joined = l;
        joined.insert(joined.end(), r.begin(), r.end());
        combined.rows.push_back(std::move(joined));
      }
    }
    acc = std::move(combined);
  }

  // Explicit JOIN ... ON clauses.
  for (const auto& join : stmt.joins) {
    SPHERE_ASSIGN_OR_RETURN(SourceRows right,
                            ScanTable(join.table, stmt.where.get(), params));
    SourceRows combined;
    combined.columns = acc.columns;
    for (size_t c = 0; c < right.columns.size(); ++c) {
      combined.columns.Add(right.columns.at(c).first, right.columns.at(c).second);
    }

    // Hash join when ON is a single equality with one side from each input.
    int left_key = -1, right_key = -1;
    if (join.on != nullptr && join.on->kind() == sql::ExprKind::kBinary) {
      const auto* b = static_cast<const sql::BinaryExpr*>(join.on.get());
      if (b->op == sql::BinaryOp::kEq &&
          b->left->kind() == sql::ExprKind::kColumnRef &&
          b->right->kind() == sql::ExprKind::kColumnRef) {
        const auto* lc = static_cast<const sql::ColumnRefExpr*>(b->left.get());
        const auto* rc = static_cast<const sql::ColumnRefExpr*>(b->right.get());
        int l_in_acc = acc.columns.Resolve(lc->table, lc->column);
        int r_in_right = right.columns.Resolve(rc->table, rc->column);
        if (l_in_acc >= 0 && r_in_right >= 0) {
          left_key = l_in_acc;
          right_key = r_in_right;
        } else {
          int r_in_acc = acc.columns.Resolve(rc->table, rc->column);
          int l_in_right = right.columns.Resolve(lc->table, lc->column);
          if (r_in_acc >= 0 && l_in_right >= 0) {
            left_key = r_in_acc;
            right_key = l_in_right;
          }
        }
      }
    }

    bool left_outer = join.type == sql::JoinClause::Type::kLeft;
    if (join.type == sql::JoinClause::Type::kRight) {
      return Status::Unsupported("RIGHT JOIN (rewrite as LEFT JOIN)");
    }

    if (left_key >= 0) {
      std::unordered_multimap<uint64_t, const Row*> hash;
      hash.reserve(right.rows.size());
      for (const Row& r : right.rows) {
        hash.emplace(r[static_cast<size_t>(right_key)].Hash(), &r);
      }
      for (const Row& l : acc.rows) {
        const Value& key = l[static_cast<size_t>(left_key)];
        bool matched = false;
        auto [lo, hi] = hash.equal_range(key.Hash());
        for (auto it = lo; it != hi; ++it) {
          const Row& r = *it->second;
          if (r[static_cast<size_t>(right_key)].Compare(key) != 0) continue;
          Row joined = l;
          joined.insert(joined.end(), r.begin(), r.end());
          combined.rows.push_back(std::move(joined));
          matched = true;
        }
        if (!matched && left_outer) {
          Row joined = l;
          joined.insert(joined.end(), right.columns.size(), Value::Null());
          combined.rows.push_back(std::move(joined));
        }
      }
    } else {
      // Nested-loop join with ON predicate (or cross join).
      for (const Row& l : acc.rows) {
        bool matched = false;
        for (const Row& r : right.rows) {
          Row joined = l;
          joined.insert(joined.end(), r.begin(), r.end());
          if (join.on != nullptr) {
            SPHERE_ASSIGN_OR_RETURN(
                Value ok, EvalExpr(join.on.get(), combined.columns, joined, params));
            if (!IsTruthy(ok)) continue;
          }
          combined.rows.push_back(std::move(joined));
          matched = true;
        }
        if (!matched && left_outer) {
          Row joined = l;
          joined.insert(joined.end(), right.columns.size(), Value::Null());
          combined.rows.push_back(std::move(joined));
        }
      }
    }
    acc = std::move(combined);
  }

  // WHERE filter.
  if (stmt.where != nullptr) {
    std::vector<Row> filtered;
    filtered.reserve(acc.rows.size());
    for (Row& row : acc.rows) {
      SPHERE_ASSIGN_OR_RETURN(
          Value ok, EvalExpr(stmt.where.get(), acc.columns, row, params));
      if (IsTruthy(ok)) filtered.push_back(std::move(row));
    }
    acc.rows = std::move(filtered);
  }
  return acc;
}

Result<ExecResult> Executor::ExecuteSelect(const sql::SelectStatement& stmt,
                                           const std::vector<Value>& params) {
  SPHERE_ASSIGN_OR_RETURN(std::optional<ExecResult> streamed,
                          TryStreamSelect(stmt, params));
  if (streamed.has_value()) return std::move(*streamed);

  SPHERE_ASSIGN_OR_RETURN(SourceRows src, BuildSource(stmt, params));
  std::vector<std::string> labels = BuildLabels(stmt, src.columns);

  bool aggregated = stmt.HasAggregation() || !stmt.group_by.empty();
  std::vector<Row> output;

  if (aggregated) {
    AggPlan plan;
    for (const auto& item : stmt.items) {
      if (item.expr) plan.Collect(item.expr.get());
    }
    if (stmt.having) plan.Collect(stmt.having.get());

    std::map<Row, Group, RowLess> groups;
    for (const Row& row : src.rows) {
      Row key;
      key.reserve(stmt.group_by.size());
      for (const auto& g : stmt.group_by) {
        SPHERE_ASSIGN_OR_RETURN(Value v, EvalExpr(g.get(), src.columns, row, params));
        key.push_back(std::move(v));
      }
      auto [it, inserted] = groups.try_emplace(key);
      Group& group = it->second;
      if (inserted) {
        group.key = key;
        group.first_row = row;
        group.aggs.resize(plan.exprs.size());
        for (size_t i = 0; i < plan.exprs.size(); ++i) {
          SPHERE_ASSIGN_OR_RETURN(group.aggs[i].type, AggTypeOf(plan.exprs[i]->name));
          group.aggs[i].distinct = plan.exprs[i]->distinct;
        }
      }
      for (size_t i = 0; i < plan.exprs.size(); ++i) {
        const auto* f = plan.exprs[i];
        if (f->star) {
          group.aggs[i].Accumulate(Value(int64_t{1}));
        } else if (!f->args.empty()) {
          SPHERE_ASSIGN_OR_RETURN(
              Value v, EvalExpr(f->args[0].get(), src.columns, row, params));
          group.aggs[i].Accumulate(v);
        }
      }
    }
    // Global aggregate over empty input still yields one row.
    if (groups.empty() && stmt.group_by.empty()) {
      Group g;
      g.first_row.assign(src.columns.size(), Value::Null());
      g.aggs.resize(plan.exprs.size());
      for (size_t i = 0; i < plan.exprs.size(); ++i) {
        SPHERE_ASSIGN_OR_RETURN(g.aggs[i].type, AggTypeOf(plan.exprs[i]->name));
        g.aggs[i].distinct = plan.exprs[i]->distinct;
      }
      groups.emplace(Row{}, std::move(g));
    }

    for (auto& [key, group] : groups) {
      if (stmt.having) {
        SPHERE_ASSIGN_OR_RETURN(
            Value ok, EvalOverGroup(stmt.having.get(), plan, group, src.columns, params));
        if (!IsTruthy(ok)) continue;
      }
      Row out_row;
      out_row.reserve(stmt.items.size());
      for (const auto& item : stmt.items) {
        if (item.is_star) {
          return Status::InvalidArgument("SELECT * cannot be aggregated");
        }
        SPHERE_ASSIGN_OR_RETURN(
            Value v, EvalOverGroup(item.expr.get(), plan, group, src.columns, params));
        out_row.push_back(std::move(v));
      }
      output.push_back(std::move(out_row));
    }
  } else {
    // Pre-projection ORDER BY when every key resolves in the source.
    bool sort_pre_projection = !stmt.order_by.empty();
    for (const auto& ob : stmt.order_by) {
      if (ob.expr->kind() == sql::ExprKind::kColumnRef) {
        const auto* c = static_cast<const sql::ColumnRefExpr*>(ob.expr.get());
        if (src.columns.Resolve(c->table, c->column) < 0) {
          sort_pre_projection = false;
        }
      }
    }
    if (sort_pre_projection) {
      // Decorate-sort: evaluate keys once per row.
      std::vector<std::pair<Row, Row>> keyed;  // (keys, row)
      keyed.reserve(src.rows.size());
      for (Row& row : src.rows) {
        Row keys;
        keys.reserve(stmt.order_by.size());
        for (const auto& ob : stmt.order_by) {
          SPHERE_ASSIGN_OR_RETURN(Value v,
                                  EvalExpr(ob.expr.get(), src.columns, row, params));
          keys.push_back(std::move(v));
        }
        keyed.emplace_back(std::move(keys), std::move(row));
      }
      // Rows beyond the pushed-down `offset+count` window can never appear in
      // the output (DISTINCT dedups only after this sort, so it blocks the
      // truncation), so a bounded top-k replaces the full stable sort.
      size_t keep = keyed.size();
      if (stmt.limit.has_value() && stmt.limit->count >= 0 && !stmt.distinct) {
        size_t off = static_cast<size_t>(std::max<int64_t>(0, stmt.limit->offset));
        keep = std::min(keep, off + static_cast<size_t>(stmt.limit->count));
      }
      TopKStable(&keyed, keep, KeyedRowLess{&stmt.order_by});
      src.rows.clear();
      for (auto& [k, row] : keyed) src.rows.push_back(std::move(row));
    }

    output.reserve(src.rows.size());
    for (const Row& row : src.rows) {
      SPHERE_ASSIGN_OR_RETURN(Row out_row,
                              ProjectRow(stmt, src.columns, row, params));
      output.push_back(std::move(out_row));
    }
  }

  // DISTINCT.
  if (stmt.distinct) {
    DedupRowsInPlace(&output);
  }

  // Post-projection ORDER BY (aggregated queries, or aliases of computed
  // items): resolve keys against output labels.
  bool need_post_sort = !stmt.order_by.empty() && aggregated;
  if (!stmt.order_by.empty() && !aggregated) {
    // Already sorted pre-projection unless some key failed to resolve there.
    for (const auto& ob : stmt.order_by) {
      if (ob.expr->kind() == sql::ExprKind::kColumnRef) {
        const auto* c = static_cast<const sql::ColumnRefExpr*>(ob.expr.get());
        if (src.columns.Resolve(c->table, c->column) < 0) need_post_sort = true;
      }
    }
  }
  if (need_post_sort) {
    std::vector<int> key_idx;
    const sql::Dialect& d = sql::Dialect::MySQL();
    for (const auto& ob : stmt.order_by) {
      std::string key_label;
      if (ob.expr->kind() == sql::ExprKind::kColumnRef) {
        key_label = static_cast<const sql::ColumnRefExpr*>(ob.expr.get())->column;
      } else {
        key_label = ob.expr->ToSQL(d);
      }
      int idx = -1;
      for (size_t i = 0; i < labels.size(); ++i) {
        if (EqualsIgnoreCase(labels[i], key_label)) {
          idx = static_cast<int>(i);
          break;
        }
      }
      // Fall back to matching the serialized select expressions.
      if (idx < 0) {
        for (size_t i = 0; i < stmt.items.size(); ++i) {
          if (stmt.items[i].expr != nullptr &&
              stmt.items[i].expr->ToSQL(d) == ob.expr->ToSQL(d)) {
            idx = static_cast<int>(i);
            break;
          }
        }
      }
      if (idx < 0) {
        return Status::InvalidArgument("ORDER BY key not in select list: " +
                                       key_label);
      }
      key_idx.push_back(idx);
    }
    // DISTINCT already ran, so rows past `offset+count` cannot surface —
    // bound the sort to the limit window.
    size_t keep = output.size();
    if (stmt.limit.has_value() && stmt.limit->count >= 0) {
      size_t off = static_cast<size_t>(std::max<int64_t>(0, stmt.limit->offset));
      keep = std::min(keep, off + static_cast<size_t>(stmt.limit->count));
    }
    TopKStable(&output, keep, [&](const Row& a, const Row& b) {
      for (size_t i = 0; i < key_idx.size(); ++i) {
        int c = a[static_cast<size_t>(key_idx[i])].Compare(
            b[static_cast<size_t>(key_idx[i])]);
        if (c != 0) return stmt.order_by[i].desc ? c > 0 : c < 0;
      }
      return false;
    });
  }

  // LIMIT / OFFSET.
  if (stmt.limit.has_value()) {
    size_t off = static_cast<size_t>(std::max<int64_t>(0, stmt.limit->offset));
    if (off >= output.size()) {
      output.clear();
    } else {
      output.erase(output.begin(), output.begin() + static_cast<long>(off));
      if (stmt.limit->count >= 0 &&
          output.size() > static_cast<size_t>(stmt.limit->count)) {
        output.resize(static_cast<size_t>(stmt.limit->count));
      }
    }
  }

  return ExecResult::Query(
      std::make_unique<VectorResultSet>(std::move(labels), std::move(output)));
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

Result<ExecResult> Executor::ExecuteInsert(const sql::InsertStatement& stmt,
                                           const std::vector<Value>& params,
                                           storage::Transaction* txn) {
  storage::Table* table = db_->FindTable(stmt.table.name);
  if (table == nullptr) return Status::NotFound("table " + stmt.table.name);
  const Schema& schema = table->schema();
  BoundColumns no_cols;
  Row empty;

  // Map statement columns to schema positions.
  std::vector<int> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.size(); ++i) positions.push_back(static_cast<int>(i));
  } else {
    for (const auto& c : stmt.columns) {
      int idx = schema.IndexOf(c);
      if (idx < 0) return Status::NotFound("column " + c + " in " + stmt.table.name);
      positions.push_back(idx);
    }
  }

  // Evaluate every VALUES row before taking the writer latch: the
  // expressions reference no table state, so concurrent readers keep running
  // while the rows are built, and arity/evaluation errors surface before any
  // mutation happens.
  std::vector<Row> rows;
  rows.reserve(stmt.rows.size());
  for (const auto& value_row : stmt.rows) {
    if (value_row.size() != positions.size()) {
      return Status::InvalidArgument("VALUES arity mismatch");
    }
    Row row(schema.size(), Value::Null());
    for (size_t i = 0; i < positions.size(); ++i) {
      SPHERE_ASSIGN_OR_RETURN(Value v,
                              EvalExpr(value_row[i].get(), no_cols, empty, params));
      row[static_cast<size_t>(positions[i])] = std::move(v);
    }
    rows.push_back(std::move(row));
  }

  // Pending versions are installed under one writer section, stamped with
  // `writer` (the transaction's id, or an ephemeral statement id). They stay
  // invisible to every reader until the transaction commits — or, for
  // auto-commit, until CommitAutoCommit restamps them below.
  int64_t writer = txn != nullptr ? txn->id() : db_->epochs()->NextWriterId();
  int64_t inserted = 0;
  Value last_pk;
  std::vector<Value> applied;  ///< inserted PKs, for statement-level rollback
  applied.reserve(rows.size());
  {
    WriterLock lk(table->latch());
    for (const Row& row : rows) {
      Value pk;
      Status st = table->Insert(row, &pk, writer);
      if (!st.ok()) {
        // Statement atomicity: a mid-loop failure (PK conflict, validation)
        // must not leave the earlier rows of a multi-row INSERT behind.
        // Unlinking the never-visible pending versions rolls them back; the
        // newest-only form leaves versions older statements of the same
        // transaction installed under the same key untouched.
        for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
          table->AbortWrite(*it, writer, /*newest_only=*/true);
        }
        return st;
      }
      applied.push_back(std::move(pk));
      last_pk = applied.back();
      ++inserted;
    }
    if (txn != nullptr) {
      // Undo records only once the whole statement succeeded: the statement-
      // level rollback above must not leave stale insert-undos behind.
      for (const Value& pk : applied) {
        txn->AddUndo({storage::UndoRecord::Op::kInsert, table->name(), pk, {}});
      }
    }
  }
  if (txn == nullptr) CommitAutoCommit(table, applied, writer);
  return ExecResult::Update(inserted, last_pk.is_int() ? last_pk.AsInt() : 0);
}

Result<ExecResult> Executor::ExecuteUpdate(const sql::UpdateStatement& stmt,
                                           const std::vector<Value>& params,
                                           storage::Transaction* txn) {
  storage::Table* table = db_->FindTable(stmt.table.name);
  if (table == nullptr) return Status::NotFound("table " + stmt.table.name);
  int pk = table->pk_index();
  if (pk < 0) return Status::Unsupported("UPDATE on table without primary key");

  std::vector<int> target_cols;
  for (const auto& a : stmt.assignments) {
    int ci = table->schema().IndexOf(a.column);
    if (ci < 0) return Status::NotFound("column " + a.column);
    target_cols.push_back(ci);
  }

  // Index-backed point path (DESIGN.md §10): when the WHERE pins the primary
  // key or a secondary-indexed column, find, filter and mutate under one
  // writer section — O(matches · log n) instead of a full reader-lock
  // snapshot followed by a per-row re-lookup.
  SPHERE_ASSIGN_OR_RETURN(ScanPlan plan,
                          PlanScan(stmt.table, stmt.where.get(), params));
  if (plan.pk_cond.has_value() || plan.idx_cond.has_value()) {
    BoundColumns columns;
    const std::string& qual = stmt.table.EffectiveName();
    for (const auto& col : table->schema().columns()) {
      columns.Add(qual, col.name);
    }
    int64_t writer =
        txn != nullptr ? txn->id() : db_->epochs()->NextWriterId();
    storage::ReadView wview = storage::ReadView::Latest(writer);
    std::vector<std::pair<Value, Row>> pending;  // pk -> new image
    std::vector<Row> old_images;
    std::vector<Value> applied;  ///< updated PKs, for auto-commit restamp
    {
      WriterLock lk(table->latch());
      {
        TableScanCursor cursor(plan, wview, /*self_latch=*/false);
        for (const Row* row = cursor.Next(); row != nullptr;
             row = cursor.Next()) {
          if (stmt.where != nullptr) {
            SPHERE_ASSIGN_OR_RETURN(
                Value ok, EvalExpr(stmt.where.get(), columns, *row, params));
            if (!IsTruthy(ok)) continue;
          }
          Row new_row = *row;
          for (size_t i = 0; i < stmt.assignments.size(); ++i) {
            SPHERE_ASSIGN_OR_RETURN(
                Value v, EvalExpr(stmt.assignments[i].value.get(), columns,
                                  *row, params));
            new_row[static_cast<size_t>(target_cols[i])] = std::move(v);
          }
          pending.emplace_back((*row)[static_cast<size_t>(pk)],
                               std::move(new_row));
          if (txn != nullptr) old_images.push_back(*row);
        }
      }
      // Apply after the scan: Update rewrites secondary-index postings the
      // cursor may still be iterating.
      applied.reserve(pending.size());
      for (size_t i = 0; i < pending.size(); ++i) {
        Status st = table->Update(pending[i].first, pending[i].second, writer);
        if (!st.ok()) {
          // Auto-commit: unlink this statement's pending versions so a
          // mid-apply failure leaves no invisible garbage; in a txn the
          // undo records already written cover rollback.
          if (txn == nullptr) {
            for (const Value& p : applied) {
              table->AbortWrite(p, writer, /*newest_only=*/true);
            }
          }
          return st;
        }
        applied.push_back(pending[i].first);
        if (txn != nullptr) {
          txn->AddUndo({storage::UndoRecord::Op::kUpdate, table->name(),
                        pending[i].first, std::move(old_images[i])});
        }
      }
    }
    if (txn == nullptr) CommitAutoCommit(table, applied, writer);
    return ExecResult::Update(static_cast<int64_t>(pending.size()));
  }

  int64_t writer = txn != nullptr ? txn->id() : db_->epochs()->NextWriterId();
  storage::ReadView wview = storage::ReadView::Latest(writer);
  SPHERE_ASSIGN_OR_RETURN(
      SourceRows src, ScanTable(stmt.table, stmt.where.get(), params, &wview));

  int64_t updated = 0;
  std::vector<Value> applied;
  {
    WriterLock lk(table->latch());
    for (const Row& row : src.rows) {
      if (stmt.where != nullptr) {
        SPHERE_ASSIGN_OR_RETURN(
            Value ok, EvalExpr(stmt.where.get(), src.columns, row, params));
        if (!IsTruthy(ok)) continue;
      }
      // Re-fetch the current image: the scan snapshot may be stale.
      const Value& key = row[static_cast<size_t>(pk)];
      const Row* current = table->FindVisible(key, wview);
      if (current == nullptr) continue;
      Row new_row = *current;
      for (size_t i = 0; i < stmt.assignments.size(); ++i) {
        SPHERE_ASSIGN_OR_RETURN(
            Value v, EvalExpr(stmt.assignments[i].value.get(), src.columns,
                              *current, params));
        new_row[static_cast<size_t>(target_cols[i])] = std::move(v);
      }
      Row old_row = *current;
      Status st = table->Update(key, new_row, writer);
      if (!st.ok()) {
        if (txn == nullptr) {
          for (const Value& p : applied) {
            table->AbortWrite(p, writer, /*newest_only=*/true);
          }
        }
        return st;
      }
      applied.push_back(key);
      ++updated;
      if (txn != nullptr) {
        txn->AddUndo({storage::UndoRecord::Op::kUpdate, table->name(), key,
                      std::move(old_row)});
      }
    }
  }
  if (txn == nullptr) CommitAutoCommit(table, applied, writer);
  return ExecResult::Update(updated);
}

Result<ExecResult> Executor::ExecuteDelete(const sql::DeleteStatement& stmt,
                                           const std::vector<Value>& params,
                                           storage::Transaction* txn) {
  storage::Table* table = db_->FindTable(stmt.table.name);
  if (table == nullptr) return Status::NotFound("table " + stmt.table.name);
  int pk = table->pk_index();
  if (pk < 0) return Status::Unsupported("DELETE on table without primary key");

  // Index-backed point path, mirroring ExecuteUpdate: collect the matching
  // keys through the access-path cursor, then delete — all under one writer
  // section (Delete restructures the leaf chain the cursor walks, so the
  // two phases cannot interleave).
  SPHERE_ASSIGN_OR_RETURN(ScanPlan plan,
                          PlanScan(stmt.table, stmt.where.get(), params));
  if (plan.pk_cond.has_value() || plan.idx_cond.has_value()) {
    BoundColumns columns;
    const std::string& qual = stmt.table.EffectiveName();
    for (const auto& col : table->schema().columns()) {
      columns.Add(qual, col.name);
    }
    int64_t writer =
        txn != nullptr ? txn->id() : db_->epochs()->NextWriterId();
    storage::ReadView wview = storage::ReadView::Latest(writer);
    std::vector<Value> keys;
    std::vector<Value> applied;
    int64_t removed = 0;
    {
      WriterLock lk(table->latch());
      {
        TableScanCursor cursor(plan, wview, /*self_latch=*/false);
        for (const Row* row = cursor.Next(); row != nullptr;
             row = cursor.Next()) {
          if (stmt.where != nullptr) {
            SPHERE_ASSIGN_OR_RETURN(
                Value ok, EvalExpr(stmt.where.get(), columns, *row, params));
            if (!IsTruthy(ok)) continue;
          }
          keys.push_back((*row)[static_cast<size_t>(pk)]);
        }
      }
      applied.reserve(keys.size());
      for (const Value& key : keys) {
        Row old_row;
        Status st = table->Delete(key, &old_row, writer);
        if (!st.ok()) continue;  // already gone
        ++removed;
        applied.push_back(key);
        if (txn != nullptr) {
          txn->AddUndo({storage::UndoRecord::Op::kDelete, table->name(), key,
                        std::move(old_row)});
        }
      }
    }
    if (txn == nullptr) CommitAutoCommit(table, applied, writer);
    return ExecResult::Update(removed);
  }

  int64_t writer = txn != nullptr ? txn->id() : db_->epochs()->NextWriterId();
  storage::ReadView wview = storage::ReadView::Latest(writer);
  SPHERE_ASSIGN_OR_RETURN(
      SourceRows src, ScanTable(stmt.table, stmt.where.get(), params, &wview));

  int64_t deleted = 0;
  std::vector<Value> applied;
  {
    WriterLock lk(table->latch());
    for (const Row& row : src.rows) {
      if (stmt.where != nullptr) {
        SPHERE_ASSIGN_OR_RETURN(
            Value ok, EvalExpr(stmt.where.get(), src.columns, row, params));
        if (!IsTruthy(ok)) continue;
      }
      Row old_row;
      Status st = table->Delete(row[static_cast<size_t>(pk)], &old_row, writer);
      if (!st.ok()) continue;  // already gone
      ++deleted;
      applied.push_back(row[static_cast<size_t>(pk)]);
      if (txn != nullptr) {
        txn->AddUndo({storage::UndoRecord::Op::kDelete, table->name(),
                      row[static_cast<size_t>(pk)], std::move(old_row)});
      }
    }
  }
  if (txn == nullptr) CommitAutoCommit(table, applied, writer);
  return ExecResult::Update(deleted);
}

// ---------------------------------------------------------------------------
// DDL + dispatch
// ---------------------------------------------------------------------------

Result<ExecResult> Executor::ExecuteDDL(const sql::Statement& stmt) {
  switch (stmt.kind()) {
    case sql::StatementKind::kCreateTable: {
      const auto& s = static_cast<const sql::CreateTableStatement&>(stmt);
      Schema schema;
      for (const auto& c : s.columns) {
        schema.AddColumn(Column(c.name, c.type, c.primary_key, c.not_null));
      }
      SPHERE_RETURN_NOT_OK(db_->CreateTable(s.table, std::move(schema),
                                            s.if_not_exists));
      return ExecResult::Update(0);
    }
    case sql::StatementKind::kDropTable: {
      const auto& s = static_cast<const sql::DropTableStatement&>(stmt);
      SPHERE_RETURN_NOT_OK(db_->DropTable(s.table, s.if_exists));
      return ExecResult::Update(0);
    }
    case sql::StatementKind::kTruncate: {
      const auto& s = static_cast<const sql::TruncateStatement&>(stmt);
      storage::Table* table = db_->FindTable(s.table);
      if (table == nullptr) return Status::NotFound("table " + s.table);
      WriterLock lk(table->latch());
      table->Truncate();
      return ExecResult::Update(0);
    }
    case sql::StatementKind::kCreateIndex: {
      const auto& s = static_cast<const sql::CreateIndexStatement&>(stmt);
      storage::Table* table = db_->FindTable(s.table);
      if (table == nullptr) return Status::NotFound("table " + s.table);
      if (s.columns.size() != 1) {
        return Status::Unsupported("multi-column indexes");
      }
      WriterLock lk(table->latch());
      SPHERE_RETURN_NOT_OK(table->CreateIndex(s.index_name, s.columns[0]));
      return ExecResult::Update(0);
    }
    default:
      return Status::Unsupported("statement kind");
  }
}

void Executor::CommitAutoCommit(storage::Table* table,
                                const std::vector<Value>& pks,
                                int64_t writer) {
  if (pks.empty()) return;
  storage::EpochManager* em = db_->epochs();
  // Lock order: the commit section (kTransaction) brackets the table latch
  // (kStorage), so the statement's writer latch was released before this
  // runs and re-taken inside.
  uint64_t epoch = em->BeginCommit();
  {
    WriterLock lk(table->latch());
    for (const Value& pk : pks) table->CommitWrite(pk, writer, epoch);
  }
  em->EndCommit(epoch);
}

bool Executor::mvcc() const { return cc_ == ConcurrencyControl::kMvcc; }

Result<ExecResult> Executor::Execute(const sql::Statement& stmt,
                                     const std::vector<Value>& params,
                                     storage::Transaction* txn) {
  // Establish the statement's read view. Transactions read their Begin-time
  // snapshot plus their own pending writes (repeatable read); auto-commit
  // SELECTs under mvcc pin a statement-scoped snapshot so self-latched scans
  // stay consistent across latch bursts; everything else reads the latest
  // committed state.
  if (txn != nullptr) {
    read_view_ = txn->view();
  } else if (stmt.kind() == sql::StatementKind::kSelect && mvcc()) {
    stmt_snapshot_ = storage::Snapshot(db_->epochs());
    read_view_ = stmt_snapshot_.view();
  } else {
    read_view_ = storage::ReadView{};
  }
  switch (stmt.kind()) {
    case sql::StatementKind::kSelect:
      return ExecuteSelect(static_cast<const sql::SelectStatement&>(stmt), params);
    case sql::StatementKind::kInsert:
      return ExecuteInsert(static_cast<const sql::InsertStatement&>(stmt), params, txn);
    case sql::StatementKind::kUpdate:
      return ExecuteUpdate(static_cast<const sql::UpdateStatement&>(stmt), params, txn);
    case sql::StatementKind::kDelete:
      return ExecuteDelete(static_cast<const sql::DeleteStatement&>(stmt), params, txn);
    case sql::StatementKind::kCreateTable:
    case sql::StatementKind::kDropTable:
    case sql::StatementKind::kTruncate:
    case sql::StatementKind::kCreateIndex:
      return ExecuteDDL(stmt);
    case sql::StatementKind::kSet:
    case sql::StatementKind::kShow:
    case sql::StatementKind::kUse:
      return ExecResult::Update(0);
    default:
      return Status::Unsupported("statement must run through a session");
  }
}

}  // namespace sphere::engine
