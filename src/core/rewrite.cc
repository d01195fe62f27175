#include "core/rewrite.h"

#include <algorithm>

#include "common/strings.h"
#include "core/param_slice.h"

namespace sphere::core {

namespace {

/// Recursively replaces column qualifiers equal to a logic table name with
/// the actual name (alias qualifiers are untouched — aliases stay valid).
void RenameQualifiers(sql::Expr* e, const RouteUnit& unit) {
  if (e == nullptr) return;
  switch (e->kind()) {
    case sql::ExprKind::kColumnRef: {
      auto* c = static_cast<sql::ColumnRefExpr*>(e);
      if (!c->table.empty()) {
        if (const std::string* actual = unit.ActualOf(c->table)) {
          c->table = *actual;
        }
      }
      break;
    }
    case sql::ExprKind::kUnary:
      RenameQualifiers(static_cast<sql::UnaryExpr*>(e)->child.get(), unit);
      break;
    case sql::ExprKind::kBinary: {
      auto* b = static_cast<sql::BinaryExpr*>(e);
      RenameQualifiers(b->left.get(), unit);
      RenameQualifiers(b->right.get(), unit);
      break;
    }
    case sql::ExprKind::kBetween: {
      auto* b = static_cast<sql::BetweenExpr*>(e);
      RenameQualifiers(b->expr.get(), unit);
      RenameQualifiers(b->low.get(), unit);
      RenameQualifiers(b->high.get(), unit);
      break;
    }
    case sql::ExprKind::kIn: {
      auto* in = static_cast<sql::InExpr*>(e);
      RenameQualifiers(in->expr.get(), unit);
      for (auto& i : in->list) RenameQualifiers(i.get(), unit);
      break;
    }
    case sql::ExprKind::kFuncCall: {
      auto* f = static_cast<sql::FuncCallExpr*>(e);
      for (auto& a : f->args) RenameQualifiers(a.get(), unit);
      break;
    }
    case sql::ExprKind::kCase: {
      auto* c = static_cast<sql::CaseExpr*>(e);
      for (auto& [w, t] : c->branches) {
        RenameQualifiers(w.get(), unit);
        RenameQualifiers(t.get(), unit);
      }
      RenameQualifiers(c->else_expr.get(), unit);
      break;
    }
    default:
      break;
  }
}

void RenameTableRef(sql::TableRef* ref, const RouteUnit& unit) {
  if (const std::string* actual = unit.ActualOf(ref->name)) {
    // Keep column references working: an unaliased logic table is usually
    // referenced by its logic name, so alias the actual table back to it...
    // except that dropping the alias matches ShardingSphere (qualifiers are
    // renamed too). We rename and leave existing aliases alone.
    ref->name = *actual;
  }
}

}  // namespace

void ApplyTableMappings(sql::Statement* stmt, const RouteUnit& unit) {
  switch (stmt->kind()) {
    case sql::StatementKind::kSelect: {
      auto* sel = static_cast<sql::SelectStatement*>(stmt);
      for (auto& t : sel->from) RenameTableRef(&t, unit);
      for (auto& j : sel->joins) {
        RenameTableRef(&j.table, unit);
        RenameQualifiers(j.on.get(), unit);
      }
      for (auto& item : sel->items) {
        if (item.is_star && !item.star_qualifier.empty()) {
          if (const std::string* actual = unit.ActualOf(item.star_qualifier)) {
            item.star_qualifier = *actual;
          }
        }
        RenameQualifiers(item.expr.get(), unit);
      }
      RenameQualifiers(sel->where.get(), unit);
      for (auto& g : sel->group_by) RenameQualifiers(g.get(), unit);
      RenameQualifiers(sel->having.get(), unit);
      for (auto& o : sel->order_by) RenameQualifiers(o.expr.get(), unit);
      break;
    }
    case sql::StatementKind::kInsert: {
      auto* ins = static_cast<sql::InsertStatement*>(stmt);
      if (const std::string* actual = unit.ActualOf(ins->table.name)) {
        ins->table.name = *actual;
      }
      break;
    }
    case sql::StatementKind::kUpdate: {
      auto* up = static_cast<sql::UpdateStatement*>(stmt);
      if (const std::string* actual = unit.ActualOf(up->table.name)) {
        up->table.name = *actual;
      }
      for (auto& a : up->assignments) RenameQualifiers(a.value.get(), unit);
      RenameQualifiers(up->where.get(), unit);
      break;
    }
    case sql::StatementKind::kDelete: {
      auto* del = static_cast<sql::DeleteStatement*>(stmt);
      if (const std::string* actual = unit.ActualOf(del->table.name)) {
        del->table.name = *actual;
      }
      RenameQualifiers(del->where.get(), unit);
      break;
    }
    case sql::StatementKind::kCreateTable: {
      auto* ct = static_cast<sql::CreateTableStatement*>(stmt);
      if (const std::string* actual = unit.ActualOf(ct->table)) {
        ct->table = *actual;
      }
      break;
    }
    case sql::StatementKind::kDropTable: {
      auto* dt = static_cast<sql::DropTableStatement*>(stmt);
      if (const std::string* actual = unit.ActualOf(dt->table)) {
        dt->table = *actual;
      }
      break;
    }
    case sql::StatementKind::kTruncate: {
      auto* tr = static_cast<sql::TruncateStatement*>(stmt);
      if (const std::string* actual = unit.ActualOf(tr->table)) {
        tr->table = *actual;
      }
      break;
    }
    case sql::StatementKind::kCreateIndex: {
      auto* ci = static_cast<sql::CreateIndexStatement*>(stmt);
      if (const std::string* actual = unit.ActualOf(ci->table)) {
        ci->index_name += "_" + *actual;  // keep index names unique per node
        ci->table = *actual;
      }
      break;
    }
    default:
      break;
  }
}

namespace {

/// Finds the select item matching an ORDER BY / GROUP BY expression.
/// Returns -1 when the expression is not in the select list.
int FindItemIndex(const std::vector<sql::SelectItem>& items,
                  const sql::Expr* expr, const sql::Dialect& dialect) {
  if (expr->kind() == sql::ExprKind::kColumnRef) {
    const auto* c = static_cast<const sql::ColumnRefExpr*>(expr);
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].is_star) continue;
      if (!items[i].alias.empty() && EqualsIgnoreCase(items[i].alias, c->column)) {
        return static_cast<int>(i);
      }
      if (items[i].expr->kind() == sql::ExprKind::kColumnRef) {
        const auto* ic =
            static_cast<const sql::ColumnRefExpr*>(items[i].expr.get());
        if (EqualsIgnoreCase(ic->column, c->column) &&
            (c->table.empty() || ic->table.empty() ||
             EqualsIgnoreCase(ic->table, c->table))) {
          return static_cast<int>(i);
        }
      }
    }
    return -1;
  }
  std::string key = expr->ToSQL(dialect);
  for (size_t i = 0; i < items.size(); ++i) {
    if (!items[i].is_star && items[i].expr->ToSQL(dialect) == key) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Top-level aggregate of a select item, or nullptr.
const sql::FuncCallExpr* TopLevelAggregate(const sql::SelectItem& item) {
  if (item.is_star || item.expr == nullptr) return nullptr;
  if (item.expr->kind() != sql::ExprKind::kFuncCall) return nullptr;
  const auto* f = static_cast<const sql::FuncCallExpr*>(item.expr.get());
  return f->IsAggregate() ? f : nullptr;
}

std::vector<sql::ExprPtr> CloneArgs(const sql::FuncCallExpr* f) {
  std::vector<sql::ExprPtr> args;
  args.reserve(f->args.size());
  for (const auto& a : f->args) args.push_back(a->Clone());
  return args;
}

/// One SELECT unit: `tmpl` cloned onto the unit's actual tables. The clone
/// is what the node executes; the rendered text prices the request on the
/// modeled wire and is what PREVIEW/TRACE show (DESIGN.md §10).
SQLUnit MakeSelectUnit(const sql::Statement& tmpl, const RouteUnit& unit,
                       const std::vector<Value>& params,
                       const sql::Dialect& dialect) {
  auto clone_stmt = tmpl.Clone();
  ApplyTableMappings(clone_stmt.get(), unit);
  SQLUnit out;
  out.data_source = unit.data_source;
  out.sql = clone_stmt->ToSQL(dialect);
  out.params = params;
  out.stmt = std::shared_ptr<const sql::Statement>(std::move(clone_stmt));
  return out;
}

}  // namespace

Result<RewriteResult> RewriteEngine::RewriteInsert(
    const sql::InsertStatement& stmt, const RouteResult& route,
    const std::vector<Value>& params) const {
  // Write path (DESIGN.md §10): the split keeps `?` placeholders, renumbered
  // per unit against a compact value slice, and the unit ships its AST with
  // no rendered text.
  RewriteResult out;
  out.merge.is_select = false;
  out.merge.pass_through = route.IsSingleUnit();
  for (const RouteUnit& unit : route.units) {
    auto clone = std::make_unique<sql::InsertStatement>();
    clone->table = stmt.table;
    clone->columns = stmt.columns;
    // Batched-insert split (paper §VI-C): only this unit's rows. Dropping
    // rows renumbers the remaining placeholders against a per-unit slice.
    ParamSlicer slicer(params);
    for (size_t r : unit.insert_rows) {
      std::vector<sql::ExprPtr> row;
      row.reserve(stmt.rows[r].size());
      for (const auto& e : stmt.rows[r]) row.push_back(slicer.Remap(e.get()));
      clone->rows.push_back(std::move(row));
    }
    if (clone->rows.empty()) continue;
    ApplyTableMappings(clone.get(), unit);
    SQLUnit out_unit;
    out_unit.data_source = unit.data_source;
    out_unit.params = slicer.TakeParams();
    out_unit.stmt = std::shared_ptr<const sql::Statement>(std::move(clone));
    out.units.push_back(std::move(out_unit));
  }
  return out;
}

Result<RewriteResult> RewriteEngine::RewriteSelect(
    const sql::SelectStatement& stmt, const RouteResult& route,
    const std::vector<Value>& params) const {
  RewriteResult out;
  MergeContext& merge = out.merge;
  merge.is_select = true;
  merge.distinct = stmt.distinct;

  if (route.IsSingleUnit()) {
    // Single-node optimization (paper §VI-C): no derivation, no pagination
    // revision — the one node computes the exact answer.
    merge.pass_through = true;
    out.units.push_back(
        MakeSelectUnit(stmt, route.units[0], params, dialect_));
    return out;
  }

  // The merge folds per-shard partials of top-level aggregate items only. A
  // HAVING would filter partial groups, and an aggregate inside an
  // expression would reach the merge already combined with other values.
  if (stmt.having != nullptr) {
    return Status::Unsupported("HAVING across shards");
  }
  for (const auto& item : stmt.items) {
    if (item.is_star || item.expr == nullptr) continue;
    int aggs = 0;
    sql::WalkExpr(item.expr.get(), [&aggs](const sql::Expr* e) {
      if (e->kind() == sql::ExprKind::kFuncCall &&
          static_cast<const sql::FuncCallExpr*>(e)->IsAggregate()) {
        ++aggs;
      }
    });
    if (aggs > (TopLevelAggregate(item) != nullptr ? 1 : 0)) {
      return Status::Unsupported("aggregate inside an expression across shards");
    }
  }

  bool star = false;
  for (const auto& item : stmt.items) star = star || item.is_star;
  bool has_agg = stmt.HasAggregation();
  if (star && (has_agg || !stmt.group_by.empty())) {
    return Status::Unsupported("SELECT * cannot be merged with aggregation");
  }

  // Build the derived template.
  auto tmpl_owned = stmt.Clone();
  auto* tmpl = static_cast<sql::SelectStatement*>(tmpl_owned.get());
  // Star projections have a data-dependent width; 0 means "all columns"
  // (no derived columns are ever added to star queries).
  merge.visible_columns = star ? 0 : stmt.items.size();

  if (!star) {
    for (const auto& item : stmt.items) {
      merge.labels.push_back(item.Label(dialect_));
    }
    // Aggregation descriptors. AVG appends hidden COUNT and SUM columns
    // (keeping its DISTINCT), each merged as an aggregate of its own.
    int derived = 0;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const sql::FuncCallExpr* agg = TopLevelAggregate(stmt.items[i]);
      if (agg == nullptr) continue;
      AggDesc desc{i, engine::AggKindOf(agg->name), agg->distinct};
      if (desc.kind != engine::AggKind::kAvg) {
        merge.aggregations.push_back(desc);
        continue;
      }
      desc.count_index = static_cast<int>(tmpl->items.size());
      desc.sum_index = desc.count_index + 1;
      merge.aggregations.push_back(desc);
      for (std::string name : {"COUNT", "SUM"}) {
        merge.aggregations.push_back(AggDesc{
            tmpl->items.size(), engine::AggKindOf(name), agg->distinct});
        merge.labels.push_back("AVG_DERIVED_" + name + "_" +
                               std::to_string(derived));
        tmpl->items.emplace_back(
            std::make_unique<sql::FuncCallExpr>(
                name, CloneArgs(agg), agg->distinct,
                agg->star && name == "COUNT"),
            merge.labels.back());
      }
      ++derived;
    }
  }

  // GROUP BY keys: locate or derive.
  int gb_derived = 0;
  for (const auto& g : stmt.group_by) {
    MergeKey key;
    int idx = star ? -1 : FindItemIndex(stmt.items, g.get(), dialect_);
    if (idx >= 0) {
      key.index = idx;
      key.name = merge.labels.empty() ? "" : merge.labels[static_cast<size_t>(idx)];
    } else if (!star) {
      key.index = static_cast<int>(tmpl->items.size());
      key.name = "GROUP_BY_DERIVED_" + std::to_string(gb_derived++);
      tmpl->items.emplace_back(g->Clone(), key.name);
      merge.labels.push_back(key.name);
    } else if (g->kind() == sql::ExprKind::kColumnRef) {
      key.name = static_cast<const sql::ColumnRefExpr*>(g.get())->column;
    } else {
      return Status::Unsupported("GROUP BY expression with SELECT *");
    }
    merge.group_by.push_back(std::move(key));
  }

  // ORDER BY keys: locate or derive.
  int ob_derived = 0;
  for (const auto& o : stmt.order_by) {
    MergeKey key;
    key.desc = o.desc;
    int idx = star ? -1 : FindItemIndex(stmt.items, o.expr.get(), dialect_);
    if (idx >= 0) {
      key.index = idx;
      key.name = merge.labels.empty() ? "" : merge.labels[static_cast<size_t>(idx)];
    } else if (!star) {
      key.index = static_cast<int>(tmpl->items.size());
      key.name = "ORDER_BY_DERIVED_" + std::to_string(ob_derived++);
      tmpl->items.emplace_back(o.expr->Clone(), key.name);
      merge.labels.push_back(key.name);
    } else if (o.expr->kind() == sql::ExprKind::kColumnRef) {
      key.name = static_cast<const sql::ColumnRefExpr*>(o.expr.get())->column;
    } else {
      return Status::Unsupported("ORDER BY expression with SELECT *");
    }
    merge.order_by.push_back(std::move(key));
  }

  // Pagination revision (paper §VI-C): each node must return the first
  // offset+count rows so the merger can skip the true offset globally. Under
  // GROUP BY that holds only while every ORDER BY key is a group key (the
  // same merge column), where a node's first rows are whole groups in the
  // global order. Ordered by an aggregate or any other column, a shard's top
  // rows rank its partial groups, so nodes get no LIMIT (ShardingSphere's
  // max-row-count rule).
  if (stmt.limit.has_value()) {
    merge.limit = stmt.limit;
    bool push = stmt.limit->count >= 0;
    for (size_t o = 0; push && !stmt.group_by.empty() &&
                       o < merge.order_by.size(); ++o) {
      push = std::any_of(
          merge.group_by.begin(), merge.group_by.end(),
          [&](const MergeKey& g) { return g.index == merge.order_by[o].index; });
    }
    if (push) {
      tmpl->limit = sql::LimitClause{0, stmt.limit->offset + stmt.limit->count};
    } else {
      tmpl->limit.reset();  // nodes return everything
    }
  }

  for (const RouteUnit& unit : route.units) {
    out.units.push_back(MakeSelectUnit(*tmpl, unit, params, dialect_));
  }
  return out;
}

Result<RewriteResult> RewriteEngine::Rewrite(
    const sql::Statement& stmt, const RouteResult& route,
    const std::vector<Value>& params) const {
  if (route.units.empty()) {
    return Status::RouteError("empty route result");
  }
  switch (stmt.kind()) {
    case sql::StatementKind::kSelect:
      return RewriteSelect(static_cast<const sql::SelectStatement&>(stmt), route,
                           params);
    case sql::StatementKind::kInsert:
      return RewriteInsert(static_cast<const sql::InsertStatement&>(stmt), route,
                           params);
    default: {
      // UPDATE/DELETE keep their original placeholders (no row splitting),
      // so the full parameter vector rides along unchanged. Every unit
      // carries its rewritten AST; DML skips ToSQL, while DDL keeps its
      // rendered text to price the request on the modeled wire.
      bool is_dml = stmt.kind() == sql::StatementKind::kUpdate ||
                    stmt.kind() == sql::StatementKind::kDelete;
      RewriteResult out;
      out.merge.is_select = false;
      out.merge.pass_through = route.IsSingleUnit();
      for (const RouteUnit& unit : route.units) {
        auto clone_stmt = stmt.Clone();
        ApplyTableMappings(clone_stmt.get(), unit);
        SQLUnit out_unit;
        out_unit.data_source = unit.data_source;
        if (!is_dml) out_unit.sql = clone_stmt->ToSQL(dialect_);
        out_unit.params = params;
        out_unit.stmt =
            std::shared_ptr<const sql::Statement>(std::move(clone_stmt));
        out.units.push_back(std::move(out_unit));
      }
      return out;
    }
  }
}

}  // namespace sphere::core
