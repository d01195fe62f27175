#include "engine/evaluator.h"

#include <cmath>

#include "common/clock.h"
#include "common/strings.h"

namespace sphere::engine {

int BoundColumns::Resolve(std::string_view qualifier,
                          std::string_view name) const {
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (!qualifier.empty() && !EqualsIgnoreCase(cols_[i].first, qualifier)) {
      continue;
    }
    if (EqualsIgnoreCase(cols_[i].second, name)) return static_cast<int>(i);
  }
  return -1;
}

bool IsTruthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.is_int()) return v.AsInt() != 0;
  if (v.is_double()) return v.AsDouble() != 0.0;
  return !v.AsString().empty();
}

namespace {

Result<Value> EvalBinary(const sql::BinaryExpr* b, const BoundColumns& cols,
                         const Row& row, const std::vector<Value>& params,
                         const AggregateBinding* aggs) {
  using sql::BinaryOp;
  // Short-circuit logical operators.
  if (b->op == BinaryOp::kAnd || b->op == BinaryOp::kOr) {
    SPHERE_ASSIGN_OR_RETURN(Value l, EvalExpr(b->left.get(), cols, row, params, aggs));
    bool lt = IsTruthy(l);
    if (b->op == BinaryOp::kAnd && !lt) return Value(int64_t{0});
    if (b->op == BinaryOp::kOr && lt) return Value(int64_t{1});
    SPHERE_ASSIGN_OR_RETURN(Value r, EvalExpr(b->right.get(), cols, row, params, aggs));
    return Value(int64_t{IsTruthy(r) ? 1 : 0});
  }

  SPHERE_ASSIGN_OR_RETURN(Value l, EvalExpr(b->left.get(), cols, row, params, aggs));
  SPHERE_ASSIGN_OR_RETURN(Value r, EvalExpr(b->right.get(), cols, row, params, aggs));

  switch (b->op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (l.is_null() || r.is_null()) return Value(int64_t{0});  // UNKNOWN->false
      int c = l.Compare(r);
      bool result = false;
      switch (b->op) {
        case BinaryOp::kEq: result = c == 0; break;
        case BinaryOp::kNe: result = c != 0; break;
        case BinaryOp::kLt: result = c < 0; break;
        case BinaryOp::kLe: result = c <= 0; break;
        case BinaryOp::kGt: result = c > 0; break;
        case BinaryOp::kGe: result = c >= 0; break;
        default: break;
      }
      return Value(int64_t{result ? 1 : 0});
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul: {
      if (l.is_null() || r.is_null()) return Value::Null();
      if (l.is_int() && r.is_int()) {
        int64_t a = l.AsInt(), c = r.AsInt();
        switch (b->op) {
          case BinaryOp::kAdd: return Value(a + c);
          case BinaryOp::kSub: return Value(a - c);
          default: return Value(a * c);
        }
      }
      double a = l.ToDouble(), c = r.ToDouble();
      switch (b->op) {
        case BinaryOp::kAdd: return Value(a + c);
        case BinaryOp::kSub: return Value(a - c);
        default: return Value(a * c);
      }
    }
    case BinaryOp::kDiv: {
      if (l.is_null() || r.is_null()) return Value::Null();
      double d = r.ToDouble();
      if (d == 0.0) return Value::Null();  // SQL: division by zero -> NULL
      return Value(l.ToDouble() / d);
    }
    case BinaryOp::kMod: {
      if (l.is_null() || r.is_null()) return Value::Null();
      int64_t d = r.ToInt();
      if (d == 0) return Value::Null();
      return Value(l.ToInt() % d);
    }
    case BinaryOp::kLike:
    case BinaryOp::kNotLike: {
      if (l.is_null() || r.is_null()) return Value(int64_t{0});
      bool m = LikeMatch(l.ToString(), r.ToString());
      return Value(int64_t{(b->op == BinaryOp::kLike) == m ? 1 : 0});
    }
    case BinaryOp::kConcat: {
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value(l.ToString() + r.ToString());
    }
    default:
      return Status::Internal("unhandled binary operator");
  }
}

Result<Value> EvalFunc(const sql::FuncCallExpr* f, const BoundColumns& cols,
                       const Row& row, const std::vector<Value>& params,
                       const AggregateBinding* aggs) {
  if (f->IsAggregate()) {
    if (aggs != nullptr) {
      for (size_t i = 0; i < aggs->calls->size(); ++i) {
        if ((*aggs->calls)[i] == f) return aggs->values[i];
      }
    }
    return Status::InvalidArgument(
        "aggregate function " + f->name + " outside aggregation context");
  }
  std::vector<Value> args;
  args.reserve(f->args.size());
  for (const auto& a : f->args) {
    SPHERE_ASSIGN_OR_RETURN(Value v, EvalExpr(a.get(), cols, row, params, aggs));
    args.push_back(std::move(v));
  }
  const std::string& n = f->name;
  if (EqualsIgnoreCase(n, "ABS") && args.size() == 1) {
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_int()) {
      return Value(static_cast<int64_t>(std::llabs(args[0].AsInt())));
    }
    return Value(std::fabs(args[0].ToDouble()));
  }
  if (EqualsIgnoreCase(n, "MOD") && args.size() == 2) {
    if (args[0].is_null() || args[1].is_null() || args[1].ToInt() == 0) {
      return Value::Null();
    }
    return Value(args[0].ToInt() % args[1].ToInt());
  }
  if (EqualsIgnoreCase(n, "LENGTH") && args.size() == 1) {
    if (args[0].is_null()) return Value::Null();
    return Value(static_cast<int64_t>(args[0].ToString().size()));
  }
  if (EqualsIgnoreCase(n, "LOWER") && args.size() == 1) {
    if (args[0].is_null()) return Value::Null();
    return Value(ToLower(args[0].ToString()));
  }
  if (EqualsIgnoreCase(n, "UPPER") && args.size() == 1) {
    if (args[0].is_null()) return Value::Null();
    return Value(ToUpper(args[0].ToString()));
  }
  if (EqualsIgnoreCase(n, "SUBSTR") || EqualsIgnoreCase(n, "SUBSTRING")) {
    if (args.size() < 2 || args.size() > 3) {
      return Status::InvalidArgument("SUBSTR takes 2 or 3 arguments");
    }
    if (args[0].is_null()) return Value::Null();
    std::string s = args[0].ToString();
    int64_t start = args[1].ToInt();
    if (start < 1) start = 1;
    size_t from = static_cast<size_t>(start - 1);
    if (from >= s.size()) return Value(std::string());
    size_t len = args.size() == 3 ? static_cast<size_t>(std::max<int64_t>(0, args[2].ToInt()))
                                  : std::string::npos;
    return Value(s.substr(from, len));
  }
  if (EqualsIgnoreCase(n, "CONCAT")) {
    std::string out;
    for (const auto& a : args) {
      if (a.is_null()) return Value::Null();
      out += a.ToString();
    }
    return Value(out);
  }
  if (EqualsIgnoreCase(n, "COALESCE")) {
    for (const auto& a : args) {
      if (!a.is_null()) return a;
    }
    return Value::Null();
  }
  if (EqualsIgnoreCase(n, "NOW")) {
    return Value(WallMillis());
  }
  return Status::Unsupported("function " + n);
}

}  // namespace

Result<Value> EvalExpr(const sql::Expr* expr, const BoundColumns& columns,
                       const Row& row, const std::vector<Value>& params,
                       const AggregateBinding* aggs) {
  using sql::ExprKind;
  switch (expr->kind()) {
    case ExprKind::kLiteral:
      return static_cast<const sql::LiteralExpr*>(expr)->value;
    case ExprKind::kParam: {
      int idx = static_cast<const sql::ParamExpr*>(expr)->index;
      if (idx < 0 || static_cast<size_t>(idx) >= params.size()) {
        return Status::InvalidArgument("missing parameter " + std::to_string(idx));
      }
      return params[static_cast<size_t>(idx)];
    }
    case ExprKind::kColumnRef: {
      const auto* c = static_cast<const sql::ColumnRefExpr*>(expr);
      int idx = columns.Resolve(c->table, c->column);
      if (idx < 0) {
        return Status::NotFound("unknown column " +
                                (c->table.empty() ? c->column
                                                  : c->table + "." + c->column));
      }
      return row[static_cast<size_t>(idx)];
    }
    case ExprKind::kUnary: {
      const auto* u = static_cast<const sql::UnaryExpr*>(expr);
      SPHERE_ASSIGN_OR_RETURN(Value v,
                              EvalExpr(u->child.get(), columns, row, params, aggs));
      switch (u->op) {
        case sql::UnaryOp::kNot:
          return Value(int64_t{IsTruthy(v) ? 0 : 1});
        case sql::UnaryOp::kNeg:
          if (v.is_null()) return Value::Null();
          if (v.is_int()) return Value(-v.AsInt());
          return Value(-v.ToDouble());
        case sql::UnaryOp::kIsNull:
          return Value(int64_t{v.is_null() ? 1 : 0});
        case sql::UnaryOp::kIsNotNull:
          return Value(int64_t{v.is_null() ? 0 : 1});
      }
      return Status::Internal("unhandled unary op");
    }
    case ExprKind::kBinary:
      return EvalBinary(static_cast<const sql::BinaryExpr*>(expr), columns, row,
                        params, aggs);
    case ExprKind::kBetween: {
      const auto* b = static_cast<const sql::BetweenExpr*>(expr);
      SPHERE_ASSIGN_OR_RETURN(Value v, EvalExpr(b->expr.get(), columns, row, params, aggs));
      SPHERE_ASSIGN_OR_RETURN(Value lo, EvalExpr(b->low.get(), columns, row, params, aggs));
      SPHERE_ASSIGN_OR_RETURN(Value hi, EvalExpr(b->high.get(), columns, row, params, aggs));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value(int64_t{0});
      bool in = v.Compare(lo) >= 0 && v.Compare(hi) <= 0;
      return Value(int64_t{in != b->negated ? 1 : 0});
    }
    case ExprKind::kIn: {
      const auto* in = static_cast<const sql::InExpr*>(expr);
      SPHERE_ASSIGN_OR_RETURN(Value v, EvalExpr(in->expr.get(), columns, row, params, aggs));
      if (v.is_null()) return Value(int64_t{0});
      bool found = false;
      for (const auto& item : in->list) {
        SPHERE_ASSIGN_OR_RETURN(Value x, EvalExpr(item.get(), columns, row, params, aggs));
        if (!x.is_null() && v.Compare(x) == 0) {
          found = true;
          break;
        }
      }
      return Value(int64_t{found != in->negated ? 1 : 0});
    }
    case ExprKind::kFuncCall:
      return EvalFunc(static_cast<const sql::FuncCallExpr*>(expr), columns, row,
                      params, aggs);
    case ExprKind::kCase: {
      const auto* c = static_cast<const sql::CaseExpr*>(expr);
      for (const auto& [when, then] : c->branches) {
        SPHERE_ASSIGN_OR_RETURN(Value w, EvalExpr(when.get(), columns, row, params, aggs));
        if (IsTruthy(w)) return EvalExpr(then.get(), columns, row, params, aggs);
      }
      if (c->else_expr) return EvalExpr(c->else_expr.get(), columns, row, params, aggs);
      return Value::Null();
    }
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace sphere::engine
