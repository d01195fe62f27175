#ifndef SPHERE_SQL_CONDITION_H_
#define SPHERE_SQL_CONDITION_H_

#include <optional>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/value.h"
#include "sql/ast.h"

namespace sphere::sql {

/// A simple predicate on one column extracted from a WHERE clause, in a form
/// the sharding router can evaluate: equality, IN-list, or range.
///
/// Conditions are statement-scoped scratch: the value list and the group
/// spines below are arena-backed, so per-query extraction on a hot path
/// allocates nothing once a statement arena is warm (plain heap otherwise).
/// Cache-destined plan builds run under ArenaSuspend, which heap-routes them.
struct ColumnCondition {
  enum class Kind { kEqual, kIn, kRange };

  std::string table;   ///< qualifier as written (alias or empty)
  std::string column;
  Kind kind = Kind::kEqual;
  ArenaVector<Value> values;  ///< kEqual: 1 value; kIn: n values
  std::optional<Value> low, high;  ///< kRange bounds (either may be absent)
  bool low_inclusive = true;
  bool high_inclusive = true;
};

/// One AND-connected group of conditions. A WHERE with top-level ORs expands
/// to several groups; route results are unioned across groups.
using ConditionGroup = ArenaVector<ColumnCondition>;

/// Evaluates an expression that must be constant after parameter binding
/// (literal, parameter, or negation of those). Returns nullopt otherwise.
std::optional<Value> EvalConstExpr(const Expr* expr,
                                   const std::vector<Value>& params);

/// Extracts routable condition groups from a WHERE expression.
///
/// The result is a disjunction of conjunctions: `(A AND B) OR (C)` yields two
/// groups. Leaves that are not simple column-vs-constant predicates simply do
/// not contribute a condition (they never make routing incorrect, only less
/// selective). Returns an empty vector when `where` is null (one empty group
/// would mean "no constraints" too; callers treat both as full route).
ArenaVector<ConditionGroup> ExtractConditionGroups(
    const Expr* where, const std::vector<Value>& params);

/// Returns the values of `column` in each VALUES row of an INSERT (resolving
/// parameters); nullopt when the column is absent or any row misses it.
std::optional<std::vector<Value>> ExtractInsertValues(
    const InsertStatement& insert, const std::string& column,
    const std::vector<Value>& params);

/// Deep-clones an expression with every ? placeholder replaced by its bound
/// value, so the text can be re-executed standalone.
ExprPtr InlineParameters(const Expr* expr, const std::vector<Value>& params);

/// Clones a statement with all parameters materialized as literals. Used
/// when a statement must be shipped as self-contained text (replicated state
/// machines, compensation logs).
StatementPtr InlineParameters(const Statement& stmt,
                              const std::vector<Value>& params);

}  // namespace sphere::sql

#endif  // SPHERE_SQL_CONDITION_H_
