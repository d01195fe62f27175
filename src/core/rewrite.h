#ifndef SPHERE_CORE_REWRITE_H_
#define SPHERE_CORE_REWRITE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/route.h"
#include "engine/aggregate.h"
#include "sql/ast.h"
#include "sql/dialect.h"

namespace sphere::core {

/// One aggregate column of the (physical) select list. An AVG column has two
/// hidden partners the rewriter appends, each with its own kSum/kCount entry;
/// the merger finishes the AVG from them.
struct AggDesc {
  size_t index = 0;      ///< column position of the aggregate
  engine::AggKind kind = engine::AggKind::kCount;
  bool distinct = false;
  int sum_index = -1;    ///< kAvg: its derived SUM column
  int count_index = -1;  ///< kAvg: its derived COUNT column
};

/// Merge key: a physical column index when known at rewrite time, otherwise a
/// column name resolved against the first result set (star queries).
struct MergeKey {
  int index = -1;
  std::string name;
  bool desc = false;
};

/// Everything the result merger needs to combine per-shard results (built by
/// the rewriter, which knows what it derived).
struct MergeContext {
  bool is_select = false;
  bool pass_through = false;  ///< single route unit: no merging required
  std::vector<std::string> labels;  ///< physical labels incl. derived columns
  size_t visible_columns = 0;       ///< prefix the client sees
  std::vector<AggDesc> aggregations;
  std::vector<MergeKey> order_by;
  std::vector<MergeKey> group_by;
  bool distinct = false;
  std::optional<sql::LimitClause> limit;  ///< applied after merging
};

/// One executable SQL destined for one data source (DESIGN.md §10).
///
/// Invariant: every unit carries its AST. `stmt` is the unit's rewritten
/// AST and is what the node runs (ExecutionEngine has one dispatch rule), so
/// no node parses SQL text. `sql` is the rendered text, kept only where it
/// prices the request on the modeled wire:
///  - SELECT and DDL units carry both; the text is also what PREVIEW/TRACE
///    display.
///  - DML units leave `sql` empty and ship as a prepared execute. Anything
///    that needs a display text renders it on demand via RenderSQL.
struct SQLUnit {
  std::string data_source;
  std::string sql;
  std::vector<Value> params;
  /// The per-unit rewritten AST (actual table names applied, placeholders
  /// renumbered to `params`). Never null. Shared: interceptors copy units
  /// freely.
  std::shared_ptr<const sql::Statement> stmt;

  /// The unit's SQL text, built from `stmt` when the rewriter skipped
  /// string-building. For display (PREVIEW, logs) — not the execution path.
  std::string RenderSQL(const sql::Dialect& dialect) const {
    if (!sql.empty()) return sql;
    return stmt->ToSQL(dialect);
  }
};

struct RewriteResult {
  std::vector<SQLUnit> units;
  MergeContext merge;
};

/// The SQL rewriter (paper §VI-C): correctness rewrites (identifier renaming,
/// column derivation, pagination revision, batched-insert split) and the
/// single-node short circuit.
class RewriteEngine {
 public:
  explicit RewriteEngine(const sql::Dialect& dialect = sql::Dialect::MySQL())
      : dialect_(dialect) {}

  Result<RewriteResult> Rewrite(const sql::Statement& stmt,
                                const RouteResult& route,
                                const std::vector<Value>& params) const;

 private:
  Result<RewriteResult> RewriteSelect(const sql::SelectStatement& stmt,
                                      const RouteResult& route,
                                      const std::vector<Value>& params) const;
  Result<RewriteResult> RewriteInsert(const sql::InsertStatement& stmt,
                                      const RouteResult& route,
                                      const std::vector<Value>& params) const;

  const sql::Dialect& dialect_;
};

/// Renames logic tables (FROM/JOIN/UPDATE/DELETE targets and matching column
/// qualifiers) to the unit's actual tables, in place.
void ApplyTableMappings(sql::Statement* stmt, const RouteUnit& unit);

}  // namespace sphere::core

#endif  // SPHERE_CORE_REWRITE_H_
