#ifndef SPHERE_ENGINE_EVALUATOR_H_
#define SPHERE_ENGINE_EVALUATOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/result.h"
#include "common/value.h"
#include "sql/ast.h"

namespace sphere::engine {

/// Name environment of a row flowing through the executor: one
/// (qualifier, column) pair per value slot. Qualifiers are table aliases (or
/// table names); derived columns have empty qualifiers.
///
/// Entries are views into the statement AST and table schemas, both of which
/// outlive the executor's statement-scoped instances — binding a source
/// copies no strings. The spine is arena-backed inside a statement scope.
class BoundColumns {
 public:
  void Add(std::string_view qualifier, std::string_view name) {
    cols_.emplace_back(qualifier, name);
  }

  size_t size() const { return cols_.size(); }
  const std::pair<std::string_view, std::string_view>& at(size_t i) const {
    return cols_[i];
  }

  /// Resolves a column reference. A qualified ref must match the qualifier;
  /// an unqualified ref matches by name (first match wins, as in MySQL's
  /// permissive mode). Returns -1 when not found.
  int Resolve(std::string_view qualifier, std::string_view name) const;

 private:
  ArenaVector<std::pair<std::string_view, std::string_view>> cols_;
};

/// The finished aggregates of one group: the call node `(*calls)[i]`
/// evaluates to `values[i]`, wherever it sits in an expression.
struct AggregateBinding {
  const ArenaVector<const sql::FuncCallExpr*>* calls;
  const Value* values;
};

/// Evaluates `expr` against one row. Aggregate function calls resolve
/// through `aggs` (an aggregated query's group) and are rejected without it.
/// Scalar functions: ABS, MOD, LENGTH, LOWER, UPPER, SUBSTR, CONCAT,
/// COALESCE, NOW.
Result<Value> EvalExpr(const sql::Expr* expr, const BoundColumns& columns,
                       const Row& row, const std::vector<Value>& params,
                       const AggregateBinding* aggs = nullptr);

/// SQL truthiness: NULL and numeric zero are false.
bool IsTruthy(const Value& v);

}  // namespace sphere::engine

#endif  // SPHERE_ENGINE_EVALUATOR_H_
