#include "baselines/naive_merge.h"

#include <algorithm>
#include <set>

#include "common/strings.h"
#include "engine/aggregate.h"

namespace sphere::baselines {

namespace {
struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};
}  // namespace

engine::ExecResult SumAffected(std::vector<engine::ExecResult> partials) {
  int64_t affected = 0;
  for (const auto& p : partials) affected += p.affected_rows;
  return engine::ExecResult::Update(affected);
}

Result<engine::ExecResult> NaiveScatterMerge(
    const sql::SelectStatement& sel, std::vector<engine::ExecResult> partials,
    const std::string& system_name) {
  if (partials.empty()) return Status::Internal("no partial results");
  if (!partials[0].is_query) return SumAffected(std::move(partials));
  if (partials.size() == 1) return std::move(partials[0]);

  std::vector<std::string> columns = partials[0].result_set->columns();
  std::vector<Row> rows;
  for (auto& p : partials) {
    Row row;
    while (p.result_set->Next(&row)) rows.push_back(std::move(row));
  }

  if (sel.HasAggregation()) {
    if (!sel.group_by.empty()) {
      return Status::Unsupported(system_name +
                                 ": scatter GROUP BY is not supported");
    }
    Row combined;
    for (size_t i = 0; i < sel.items.size(); ++i) {
      const auto* f = sel.items[i].expr != nullptr &&
                              sel.items[i].expr->kind() == sql::ExprKind::kFuncCall
                          ? static_cast<const sql::FuncCallExpr*>(
                                sel.items[i].expr.get())
                          : nullptr;
      if (f == nullptr || !f->IsAggregate()) {
        combined.push_back(rows.empty() ? Value::Null() : rows[0][i]);
        continue;
      }
      engine::AggKind kind = engine::AggKindOf(f->name);
      if (kind == engine::AggKind::kAvg) {
        return Status::Unsupported(system_name +
                                   ": scatter AVG is not supported");
      }
      engine::Aggregator acc(kind);
      for (const Row& row : rows) acc.Combine(row[i]);
      combined.push_back(acc.Finish());
    }
    return engine::ExecResult::Query(std::make_unique<engine::VectorResultSet>(
        std::move(columns), std::vector<Row>{std::move(combined)}));
  }

  if (!sel.order_by.empty()) {
    std::vector<std::pair<int, bool>> keys;
    for (const auto& o : sel.order_by) {
      if (o.expr->kind() != sql::ExprKind::kColumnRef) {
        return Status::Unsupported(system_name + ": scatter ORDER BY expression");
      }
      const auto* c = static_cast<const sql::ColumnRefExpr*>(o.expr.get());
      int idx = -1;
      for (size_t i = 0; i < columns.size(); ++i) {
        if (EqualsIgnoreCase(columns[i], c->column)) idx = static_cast<int>(i);
      }
      if (idx < 0) {
        return Status::Unsupported(system_name +
                                   ": scatter ORDER BY on unselected column");
      }
      keys.emplace_back(idx, o.desc);
    }
    std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
      for (auto [idx, desc] : keys) {
        int c = a[static_cast<size_t>(idx)].Compare(b[static_cast<size_t>(idx)]);
        if (c != 0) return desc ? c > 0 : c < 0;
      }
      return false;
    });
  }
  if (sel.distinct) {
    std::set<Row, RowLess> seen;
    std::vector<Row> deduped;
    for (Row& row : rows) {
      if (seen.insert(row).second) deduped.push_back(std::move(row));
    }
    rows = std::move(deduped);
  }
  if (sel.limit.has_value()) {
    size_t off = static_cast<size_t>(std::max<int64_t>(0, sel.limit->offset));
    if (off >= rows.size()) {
      rows.clear();
    } else {
      rows.erase(rows.begin(), rows.begin() + static_cast<long>(off));
      if (sel.limit->count >= 0 &&
          rows.size() > static_cast<size_t>(sel.limit->count)) {
        rows.resize(static_cast<size_t>(sel.limit->count));
      }
    }
  }
  return engine::ExecResult::Query(std::make_unique<engine::VectorResultSet>(
      std::move(columns), std::move(rows)));
}

}  // namespace sphere::baselines
