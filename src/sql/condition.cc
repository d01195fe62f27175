#include "sql/condition.h"

#include "common/strings.h"

namespace sphere::sql {

std::optional<Value> EvalConstExpr(const Expr* expr,
                                   const std::vector<Value>& params) {
  if (expr == nullptr) return std::nullopt;
  switch (expr->kind()) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr*>(expr)->value;
    case ExprKind::kParam: {
      int idx = static_cast<const ParamExpr*>(expr)->index;
      if (idx < 0 || static_cast<size_t>(idx) >= params.size()) {
        return std::nullopt;
      }
      return params[static_cast<size_t>(idx)];
    }
    case ExprKind::kUnary: {
      const auto* u = static_cast<const UnaryExpr*>(expr);
      if (u->op != UnaryOp::kNeg) return std::nullopt;
      auto v = EvalConstExpr(u->child.get(), params);
      if (!v) return std::nullopt;
      if (v->is_int()) return Value(-v->AsInt());
      if (v->is_double()) return Value(-v->AsDouble());
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

namespace {

/// Builds a ColumnCondition from a leaf predicate, or nullopt if it is not a
/// simple column-vs-constant predicate.
std::optional<ColumnCondition> LeafCondition(const Expr* e,
                                             const std::vector<Value>& params) {
  if (e->kind() == ExprKind::kBinary) {
    const auto* b = static_cast<const BinaryExpr*>(e);
    const Expr* col_side = nullptr;
    const Expr* val_side = nullptr;
    bool flipped = false;
    if (b->left->kind() == ExprKind::kColumnRef) {
      col_side = b->left.get();
      val_side = b->right.get();
    } else if (b->right->kind() == ExprKind::kColumnRef) {
      col_side = b->right.get();
      val_side = b->left.get();
      flipped = true;
    } else {
      return std::nullopt;
    }
    auto v = EvalConstExpr(val_side, params);
    if (!v) return std::nullopt;
    const auto* col = static_cast<const ColumnRefExpr*>(col_side);
    ColumnCondition c;
    c.table = col->table;
    c.column = col->column;
    BinaryOp op = b->op;
    if (flipped) {
      // value OP column  ==  column OP' value
      switch (op) {
        case BinaryOp::kLt: op = BinaryOp::kGt; break;
        case BinaryOp::kLe: op = BinaryOp::kGe; break;
        case BinaryOp::kGt: op = BinaryOp::kLt; break;
        case BinaryOp::kGe: op = BinaryOp::kLe; break;
        default: break;
      }
    }
    switch (op) {
      case BinaryOp::kEq:
        c.kind = ColumnCondition::Kind::kEqual;
        c.values.push_back(*v);
        return c;
      case BinaryOp::kLt:
        c.kind = ColumnCondition::Kind::kRange;
        c.high = *v;
        c.high_inclusive = false;
        return c;
      case BinaryOp::kLe:
        c.kind = ColumnCondition::Kind::kRange;
        c.high = *v;
        return c;
      case BinaryOp::kGt:
        c.kind = ColumnCondition::Kind::kRange;
        c.low = *v;
        c.low_inclusive = false;
        return c;
      case BinaryOp::kGe:
        c.kind = ColumnCondition::Kind::kRange;
        c.low = *v;
        return c;
      default:
        return std::nullopt;
    }
  }
  if (e->kind() == ExprKind::kBetween) {
    const auto* b = static_cast<const BetweenExpr*>(e);
    if (b->negated || b->expr->kind() != ExprKind::kColumnRef) return std::nullopt;
    auto lo = EvalConstExpr(b->low.get(), params);
    auto hi = EvalConstExpr(b->high.get(), params);
    if (!lo || !hi) return std::nullopt;
    const auto* col = static_cast<const ColumnRefExpr*>(b->expr.get());
    ColumnCondition c;
    c.table = col->table;
    c.column = col->column;
    c.kind = ColumnCondition::Kind::kRange;
    c.low = *lo;
    c.high = *hi;
    return c;
  }
  if (e->kind() == ExprKind::kIn) {
    const auto* in = static_cast<const InExpr*>(e);
    if (in->negated || in->expr->kind() != ExprKind::kColumnRef) return std::nullopt;
    ColumnCondition c;
    const auto* col = static_cast<const ColumnRefExpr*>(in->expr.get());
    c.table = col->table;
    c.column = col->column;
    c.kind = ColumnCondition::Kind::kIn;
    for (const auto& item : in->list) {
      auto v = EvalConstExpr(item.get(), params);
      if (!v) return std::nullopt;
      c.values.push_back(*v);
    }
    return c;
  }
  return std::nullopt;
}

/// Recursively produces the OR-of-AND condition groups for an expression.
ArenaVector<ConditionGroup> Extract(const Expr* e,
                                    const std::vector<Value>& params) {
  if (e->kind() == ExprKind::kBinary) {
    const auto* b = static_cast<const BinaryExpr*>(e);
    if (b->op == BinaryOp::kOr) {
      auto left = Extract(b->left.get(), params);
      auto right = Extract(b->right.get(), params);
      left.insert(left.end(), std::make_move_iterator(right.begin()),
                  std::make_move_iterator(right.end()));
      return left;
    }
    if (b->op == BinaryOp::kAnd) {
      auto left = Extract(b->left.get(), params);
      auto right = Extract(b->right.get(), params);
      // Cross-product of the two disjunctions.
      ArenaVector<ConditionGroup> out;
      out.reserve(left.size() * right.size());
      for (const auto& l : left) {
        for (const auto& r : right) {
          ConditionGroup g = l;
          g.insert(g.end(), r.begin(), r.end());
          out.push_back(std::move(g));
        }
      }
      return out;
    }
  }
  ArenaVector<ConditionGroup> out(1);
  if (auto leaf = LeafCondition(e, params)) {
    out[0].push_back(std::move(*leaf));
  }
  return out;
}

}  // namespace

ArenaVector<ConditionGroup> ExtractConditionGroups(
    const Expr* where, const std::vector<Value>& params) {
  if (where == nullptr) return {};
  return Extract(where, params);
}

std::optional<std::vector<Value>> ExtractInsertValues(
    const InsertStatement& insert, const std::string& column,
    const std::vector<Value>& params) {
  int col_idx = -1;
  for (size_t i = 0; i < insert.columns.size(); ++i) {
    if (EqualsIgnoreCase(insert.columns[i], column)) {
      col_idx = static_cast<int>(i);
      break;
    }
  }
  if (col_idx < 0) return std::nullopt;
  std::vector<Value> out;
  out.reserve(insert.rows.size());
  for (const auto& row : insert.rows) {
    if (static_cast<size_t>(col_idx) >= row.size()) return std::nullopt;
    auto v = EvalConstExpr(row[static_cast<size_t>(col_idx)].get(), params);
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  return out;
}

ExprPtr InlineParameters(const Expr* expr, const std::vector<Value>& params) {
  if (expr == nullptr) return nullptr;
  switch (expr->kind()) {
    case ExprKind::kParam: {
      int idx = static_cast<const ParamExpr*>(expr)->index;
      Value v = (idx >= 0 && static_cast<size_t>(idx) < params.size())
                    ? params[static_cast<size_t>(idx)]
                    : Value::Null();
      return std::make_unique<LiteralExpr>(std::move(v));
    }
    case ExprKind::kUnary: {
      const auto* u = static_cast<const UnaryExpr*>(expr);
      return std::make_unique<UnaryExpr>(u->op,
                                         InlineParameters(u->child.get(), params));
    }
    case ExprKind::kBinary: {
      const auto* b = static_cast<const BinaryExpr*>(expr);
      return std::make_unique<BinaryExpr>(b->op,
                                          InlineParameters(b->left.get(), params),
                                          InlineParameters(b->right.get(), params));
    }
    case ExprKind::kBetween: {
      const auto* b = static_cast<const BetweenExpr*>(expr);
      return std::make_unique<BetweenExpr>(
          InlineParameters(b->expr.get(), params),
          InlineParameters(b->low.get(), params),
          InlineParameters(b->high.get(), params), b->negated);
    }
    case ExprKind::kIn: {
      const auto* in = static_cast<const InExpr*>(expr);
      std::vector<ExprPtr> list;
      list.reserve(in->list.size());
      for (const auto& i : in->list) list.push_back(InlineParameters(i.get(), params));
      return std::make_unique<InExpr>(InlineParameters(in->expr.get(), params),
                                      std::move(list), in->negated);
    }
    case ExprKind::kFuncCall: {
      const auto* f = static_cast<const FuncCallExpr*>(expr);
      std::vector<ExprPtr> args;
      args.reserve(f->args.size());
      for (const auto& a : f->args) args.push_back(InlineParameters(a.get(), params));
      return std::make_unique<FuncCallExpr>(f->name, std::move(args), f->distinct,
                                            f->star);
    }
    case ExprKind::kCase: {
      const auto* c = static_cast<const CaseExpr*>(expr);
      auto out = std::make_unique<CaseExpr>();
      for (const auto& [w, t] : c->branches) {
        out->branches.emplace_back(InlineParameters(w.get(), params),
                                   InlineParameters(t.get(), params));
      }
      if (c->else_expr) out->else_expr = InlineParameters(c->else_expr.get(), params);
      return out;
    }
    default:
      return expr->Clone();
  }
}

StatementPtr InlineParameters(const Statement& stmt,
                              const std::vector<Value>& params) {
  StatementPtr clone = stmt.Clone();
  switch (clone->kind()) {
    case StatementKind::kSelect: {
      auto* sel = static_cast<SelectStatement*>(clone.get());
      for (auto& item : sel->items) {
        if (item.expr) item.expr = InlineParameters(item.expr.get(), params);
      }
      for (auto& j : sel->joins) {
        if (j.on) j.on = InlineParameters(j.on.get(), params);
      }
      if (sel->where) sel->where = InlineParameters(sel->where.get(), params);
      for (auto& g : sel->group_by) g = InlineParameters(g.get(), params);
      if (sel->having) sel->having = InlineParameters(sel->having.get(), params);
      for (auto& o : sel->order_by) o.expr = InlineParameters(o.expr.get(), params);
      break;
    }
    case StatementKind::kInsert: {
      auto* ins = static_cast<InsertStatement*>(clone.get());
      for (auto& row : ins->rows) {
        for (auto& e : row) e = InlineParameters(e.get(), params);
      }
      break;
    }
    case StatementKind::kUpdate: {
      auto* up = static_cast<UpdateStatement*>(clone.get());
      for (auto& a : up->assignments) a.value = InlineParameters(a.value.get(), params);
      if (up->where) up->where = InlineParameters(up->where.get(), params);
      break;
    }
    case StatementKind::kDelete: {
      auto* del = static_cast<DeleteStatement*>(clone.get());
      if (del->where) del->where = InlineParameters(del->where.get(), params);
      break;
    }
    default:
      break;
  }
  return clone;
}

}  // namespace sphere::sql
