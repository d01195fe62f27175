#include "engine/executor.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/strings.h"
#include "engine/aggregate.h"
#include "engine/row_batch.h"
#include "engine/row_dedup.h"
#include "engine/storage_node.h"
#include "engine/topk.h"
#include "sql/condition.h"
#include "sql/dialect.h"

namespace sphere::engine {

namespace {

using sql::ColumnCondition;

/// One cell of a pipeline row: either a direct source-column copy
/// (capacity-reusing assignment into the recycled row) or a general
/// expression evaluation.
struct ProjectionStep {
  int col = -1;                     ///< source column index, or -1
  const sql::Expr* expr = nullptr;  ///< evaluated when col < 0
};

/// The step for one expression: a column reference that resolves in the
/// source copies straight from the borrowed row; anything else (including an
/// unresolvable reference, for identical errors) goes through EvalExpr.
ProjectionStep StepFor(const sql::Expr* e, const BoundColumns& cols) {
  if (e->kind() == sql::ExprKind::kColumnRef) {
    const auto* c = static_cast<const sql::ColumnRefExpr*>(e);
    int idx = cols.Resolve(c->table, c->column);
    if (idx >= 0) return ProjectionStep{idx, nullptr};
  }
  return ProjectionStep{-1, e};
}

/// Flattens the select list (stars expanded against the source) into the
/// output labels and one projection step per output cell.
ArenaVector<ProjectionStep> BuildOutput(const sql::SelectStatement& stmt,
                                        const BoundColumns& cols,
                                        std::vector<std::string>* labels) {
  ArenaVector<ProjectionStep> steps;
  steps.reserve(stmt.items.size());
  for (const auto& item : stmt.items) {
    if (!item.is_star) {
      labels->push_back(item.Label(sql::Dialect::MySQL()));
      steps.push_back(StepFor(item.expr.get(), cols));
      continue;
    }
    for (size_t i = 0; i < cols.size(); ++i) {
      if (item.star_qualifier.empty() ||
          EqualsIgnoreCase(cols.at(i).first, item.star_qualifier)) {
        labels->emplace_back(cols.at(i).second);
        steps.push_back(ProjectionStep{static_cast<int>(i), nullptr});
      }
    }
  }
  return steps;
}

/// Projects into a recycled row: same-position cells are assigned in place
/// (same-alternative variant assignment reuses string capacity), so a warm
/// row projects with zero allocations. `aggs` binds an aggregated query's
/// finished aggregates.
Status ProjectRowInto(const ArenaVector<ProjectionStep>& steps,
                      const BoundColumns& cols, const Row& row,
                      const std::vector<Value>& params,
                      const AggregateBinding* aggs, Row* out) {
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
      SPHERE_ASSIGN_OR_RETURN(
          Value v, EvalExpr(steps[i].expr, cols, row, params, aggs));
      if (i < out->size()) {
        (*out)[i] = std::move(v);
      } else {
        out->push_back(std::move(v));
      }
    }
  }
  return Status::OK();
}

/// One ORDER BY key: the pipeline-row cell it reads and its direction.
struct SortKey {
  size_t cell;
  bool desc;
};

/// Pipeline-row order per the ORDER BY keys; ties compare equal, and every
/// sort over it is stable, so ties keep their arrival order.
struct SortKeyLess {
  const ArenaVector<SortKey>* keys;
  bool operator()(const Row& a, const Row& b) const {
    for (const SortKey& k : *keys) {
      int c = a[k.cell].Compare(b[k.cell]);
      if (c != 0) return k.desc ? c > 0 : c < 0;
    }
    return false;
  }
};

/// Resolves every ORDER BY key against the output: a column reference by
/// its column name, anything else by its SQL text, matched first with the
/// output labels, then with the select-expression text.
Status ResolveOutputKeys(const sql::SelectStatement& stmt,
                         const std::vector<std::string>& labels,
                         ArenaVector<SortKey>* keys) {
  const sql::Dialect& d = sql::Dialect::MySQL();
  for (const auto& ob : stmt.order_by) {
    std::string key_label =
        ob.expr->kind() == sql::ExprKind::kColumnRef
            ? static_cast<const sql::ColumnRefExpr*>(ob.expr.get())->column
            : ob.expr->ToSQL(d);
    int idx = -1;
    for (size_t i = 0; i < labels.size() && idx < 0; ++i) {
      if (EqualsIgnoreCase(labels[i], key_label)) idx = static_cast<int>(i);
    }
    // Item positions match output cells only up to a star: stay in the row.
    size_t items = std::min(stmt.items.size(), labels.size());
    for (size_t i = 0; i < items && idx < 0; ++i) {
      if (stmt.items[i].expr != nullptr &&
          stmt.items[i].expr->ToSQL(d) == ob.expr->ToSQL(d)) {
        idx = static_cast<int>(i);
      }
    }
    if (idx < 0) {
      return Status::InvalidArgument("ORDER BY key not in select list: " +
                                     key_label);
    }
    keys->push_back(SortKey{static_cast<size_t>(idx), ob.desc});
  }
  return Status::OK();
}

/// Last stage of the SELECT pipeline: ORDER BY, DISTINCT and OFFSET/LIMIT.
/// A producer projects each row into `Slot()` and hands it over with
/// `Push()`. A pipeline row holds the `width` output cells, then the order
/// keys that are not output cells; those extras are cut before DISTINCT.
///  - Unsorted: rows stream through. The offset is skipped before
///    projection (`SkipNext`), DISTINCT keeps first occurrences in arrival
///    order, and the producer stops once `Done()`.
///  - Sorted with a LIMIT count and no DISTINCT: a bounded TopKHeap keeps
///    the first offset+count rows of the stable order.
///  - Any other sort: every row is kept and stable-sorted in Finish(), then
///    deduplicated (first occurrence wins) and windowed.
/// Slots come from the RowStore recycler in bounded chunks and unused ones
/// go back, so a warm pipeline projects without allocating.
class RowSink {
 public:
  /// `keys` empty means unsorted.
  RowSink(const sql::SelectStatement& stmt, size_t width,
          ArenaVector<SortKey> keys)
      : width_(width),
        keys_(std::move(keys)),
        distinct_(stmt.distinct),
        out_(RowStore::Instance().AcquireShell()),
        spare_(RowStore::Instance().AcquireShell()) {
    if (stmt.limit.has_value()) {
      offset_ = static_cast<size_t>(std::max<int64_t>(0, stmt.limit->offset));
      if (stmt.limit->count >= 0) {
        count_ = static_cast<size_t>(stmt.limit->count);
        budget_ = offset_ + count_;
      }
    }
    if (!keys_.empty() && count_ != kAll && !distinct_) {
      heap_.emplace(budget_, SortKeyLess{&keys_});
    } else if (keys_.empty() && distinct_) {
      seen_.emplace(&out_);
    }
    // At most offset+count rows (and the one a full heap evicts) are held.
    chunk_ = std::min(budget_, kFirstChunk - 1) + 1;
  }

  ~RowSink() {
    if (has_slot_) spare_.push_back(std::move(slot_));
    RowStore::Instance().Release(std::move(spare_));
  }

  RowSink(const RowSink&) = delete;
  RowSink& operator=(const RowSink&) = delete;

  /// True once no further row can reach an unsorted output.
  bool Done() const {
    return keys_.empty() && out_.size() >= (distinct_ ? budget_ : count_);
  }

  /// True (and counted) when the next row falls inside an unsorted,
  /// non-DISTINCT offset: the producer drops it without projecting it.
  bool SkipNext() {
    if (!keys_.empty() || distinct_ || skipped_ >= offset_) return false;
    ++skipped_;
    return true;
  }

  /// The row to project the next output into.
  Row* Slot() {
    if (!has_slot_) {
      if (spare_.empty() && !pool_dry_) {
        pool_dry_ = RowStore::Instance().AcquireRows(&spare_, chunk_) == 0;
        chunk_ = std::min(chunk_ * 2, kSpareChunk);
      }
      if (spare_.empty()) {
        slot_.clear();
      } else {
        slot_ = std::move(spare_.back());
        spare_.pop_back();
      }
      has_slot_ = true;
    }
    return &slot_;
  }

  /// Hands the projected slot to the sort/dedup/window stage.
  void Push() {
    if (heap_.has_value()) {
      heap_->Push(std::move(slot_));
    } else {
      out_.push_back(std::move(slot_));
      if (seen_.has_value() && !seen_->Admit(out_.size() - 1)) {
        slot_ = std::move(out_.back());  // duplicate: reuse its storage
        out_.pop_back();
        return;
      }
    }
    has_slot_ = false;
  }

  /// Sorts, deduplicates and windows the rows; called after the source's
  /// latch scope has closed.
  std::vector<Row> Finish() {
    if (heap_.has_value()) {
      RowStore::Instance().Release(std::move(out_));
      out_ = heap_->TakeSorted();
    } else if (!keys_.empty()) {
      std::stable_sort(out_.begin(), out_.end(), SortKeyLess{&keys_});
    }
    if (!keys_.empty()) {
      for (Row& row : out_) {
        if (row.size() > width_) row.resize(width_);
      }
      if (distinct_ && KeysAreTheOutput()) {
        // Sorted on exactly its output cells: equal rows are adjacent.
        out_.erase(std::unique(out_.begin(), out_.end()), out_.end());
      } else if (distinct_) {
        DedupRowsInPlace(&out_);
      }
    }
    // An unsorted plain sink skipped its offset before projection.
    size_t skip = keys_.empty() && !distinct_ ? 0 : offset_;
    out_.erase(out_.begin(),
               out_.begin() + static_cast<long>(std::min(skip, out_.size())));
    if (out_.size() > count_) out_.resize(count_);
    return std::move(out_);
  }

 private:
  static constexpr size_t kAll = std::numeric_limits<size_t>::max();
  static constexpr size_t kFirstChunk = 16;
  static constexpr size_t kSpareChunk = 256;

  /// True when the keys read every output cell and nothing else.
  bool KeysAreTheOutput() const {
    for (size_t cell = 0; cell < width_; ++cell) {
      if (std::none_of(keys_.begin(), keys_.end(),
                       [cell](const SortKey& k) { return k.cell == cell; })) {
        return false;
      }
    }
    return std::all_of(keys_.begin(), keys_.end(),
                       [this](const SortKey& k) { return k.cell < width_; });
  }

  size_t width_;
  ArenaVector<SortKey> keys_;
  bool distinct_;
  size_t offset_ = 0;
  size_t count_ = kAll;
  size_t budget_ = kAll;  ///< offset + count
  size_t skipped_ = 0;
  std::vector<Row> out_;
  std::vector<Row> spare_;  ///< recycled rows still to project into
  Row slot_;
  bool has_slot_ = false;
  size_t chunk_ = kFirstChunk;  ///< rows to take from the pool next time
  bool pool_dry_ = false;       ///< the pool ran empty: stop asking
  std::optional<TopKHeap<Row, SortKeyLess>> heap_;
  std::optional<RowIndexSet> seen_;  ///< unsorted DISTINCT over out_
};

/// Binds one table's schema under its effective name.
void BindTable(const sql::TableRef& ref, const storage::Table& table,
               BoundColumns* columns) {
  const std::string& qual = ref.EffectiveName();
  for (const auto& col : table.schema().columns()) columns->Add(qual, col.name);
}

/// Walks `plan`'s cursor (latching as TableScanCursor documents) and passes
/// each row that satisfies `where` to `consume` until it returns false.
/// `consume` sees a borrowed row: what it keeps, it copies or projects.
template <typename Consume>
Status DrainMatches(const ScanPlan& plan, storage::ReadView view,
                    bool self_latch, const sql::Expr* where,
                    const BoundColumns& columns,
                    const std::vector<Value>& params, Consume&& consume) {
  TableScanCursor cursor(plan, view, self_latch);
  for (const Row* row = cursor.Next(); row != nullptr; row = cursor.Next()) {
    if (where != nullptr) {
      SPHERE_ASSIGN_OR_RETURN(Value ok, EvalExpr(where, columns, *row, params));
      if (!IsTruthy(ok)) continue;
    }
    SPHERE_ASSIGN_OR_RETURN(bool more, consume(*row));
    if (!more) break;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Every aggregate call of a query (select items, HAVING, ORDER BY), one
/// accumulator slot per call node, and whether any expression reads a source
/// column outside an aggregate (then each group keeps its first row).
struct AggPlan {
  ArenaVector<const sql::FuncCallExpr*> calls;
  bool reads_columns = false;

  void Collect(const sql::Expr* e) {
    // The walkers capture one pointer each, so std::function stores them
    // inline instead of allocating.
    struct Counts {
      AggPlan* plan;
      size_t refs = 0, refs_in_aggs = 0;
    } n{this};
    sql::WalkExpr(e, [c = &n](const sql::Expr* node) {
      if (node->kind() == sql::ExprKind::kColumnRef) ++c->refs;
      if (node->kind() != sql::ExprKind::kFuncCall) return;
      const auto* f = static_cast<const sql::FuncCallExpr*>(node);
      if (!f->IsAggregate()) return;
      c->plan->calls.push_back(f);
      for (const auto& a : f->args) {
        sql::WalkExpr(a.get(), [c](const sql::Expr* arg) {
          if (arg->kind() == sql::ExprKind::kColumnRef) ++c->refs_in_aggs;
        });
      }
    });
    if (n.refs > n.refs_in_aggs) reads_columns = true;
  }
};

/// One group's accumulated state.
struct Group {
  Row first_row;  ///< first source row, kept when the plan reads columns
  ArenaVector<Aggregator> aggs;
};

/// Groups in ascending key order, their nodes in the statement arena.
using GroupMap = std::map<Row, Group, std::less<Row>,
                          ArenaAllocator<std::pair<const Row, Group>>>;

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
      // Skip conditions whose qualifier names another table.
      if (!cond.table.empty() &&
          !EqualsIgnoreCase(cond.table, ref.EffectiveName())) {
        continue;
      }
      int ci = table->schema().IndexOf(cond.column);
      if (ci < 0) continue;
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

// ---------------------------------------------------------------------------
// SELECT: source → WHERE → (group-aggregate | project + order keys) → sink
// ---------------------------------------------------------------------------

Status Executor::MaterializeJoin(const sql::SelectStatement& stmt,
                                 const std::vector<Value>& params,
                                 BoundColumns* columns,
                                 std::vector<Row>* rows) {
  // Each base table is copied out under its read view (index-assisted when
  // the WHERE permits); the copies outlive the latch, so the join runs
  // unlatched. The WHERE itself runs later, in the pipeline.
  auto scan = [&](const sql::TableRef& ref, BoundColumns* cols,
                  std::vector<Row>* out) -> Status {
    SPHERE_ASSIGN_OR_RETURN(ScanPlan plan,
                            PlanScan(ref, stmt.where.get(), params));
    BindTable(ref, *plan.table, cols);
    const bool self_latch = mvcc();
    OptionalReaderLock lk(self_latch ? nullptr : &plan.table->latch());
    return DrainMatches(plan, read_view_, self_latch, nullptr, *cols, params,
                        [out](const Row& row) -> Result<bool> {
                          out->push_back(row);
                          return true;
                        });
  };
  auto append = [](const Row& l, const Row& r) {
    Row joined = l;
    joined.insert(joined.end(), r.begin(), r.end());
    return joined;
  };

  SPHERE_RETURN_NOT_OK(scan(stmt.from[0], columns, rows));
  // Comma-joined tables: cross product (the WHERE filters later).
  for (size_t i = 1; i < stmt.from.size(); ++i) {
    std::vector<Row> next, combined;
    SPHERE_RETURN_NOT_OK(scan(stmt.from[i], columns, &next));
    combined.reserve(rows->size() * next.size());
    for (const Row& l : *rows) {
      for (const Row& r : next) combined.push_back(append(l, r));
    }
    *rows = std::move(combined);
  }

  // Explicit JOIN ... ON clauses.
  for (const auto& join : stmt.joins) {
    BoundColumns left_columns = *columns;
    BoundColumns right_columns;
    std::vector<Row> right, combined;
    SPHERE_RETURN_NOT_OK(scan(join.table, &right_columns, &right));
    for (size_t c = 0; c < right_columns.size(); ++c) {
      columns->Add(right_columns.at(c).first, right_columns.at(c).second);
    }

    // Hash join when ON is a single equality with one side from each input.
    int left_key = -1, right_key = -1;
    if (join.on != nullptr && join.on->kind() == sql::ExprKind::kBinary) {
      const auto* b = static_cast<const sql::BinaryExpr*>(join.on.get());
      if (b->op == sql::BinaryOp::kEq &&
          b->left->kind() == sql::ExprKind::kColumnRef &&
          b->right->kind() == sql::ExprKind::kColumnRef) {
        const sql::ColumnRefExpr* sides[] = {
            static_cast<const sql::ColumnRefExpr*>(b->left.get()),
            static_cast<const sql::ColumnRefExpr*>(b->right.get())};
        for (int l = 0; l < 2 && (left_key < 0 || right_key < 0); ++l) {
          left_key = left_columns.Resolve(sides[l]->table, sides[l]->column);
          right_key = right_columns.Resolve(sides[1 - l]->table,
                                            sides[1 - l]->column);
        }
        if (left_key < 0 || right_key < 0) left_key = -1;
      }
    }

    bool left_outer = join.type == sql::JoinClause::Type::kLeft;
    if (join.type == sql::JoinClause::Type::kRight) {
      return Status::Unsupported("RIGHT JOIN (rewrite as LEFT JOIN)");
    }
    Row null_pad(right_columns.size(), Value::Null());

    if (left_key >= 0) {
      std::unordered_multimap<uint64_t, const Row*> hash;
      hash.reserve(right.size());
      for (const Row& r : right) {
        hash.emplace(r[static_cast<size_t>(right_key)].Hash(), &r);
      }
      for (const Row& l : *rows) {
        const Value& key = l[static_cast<size_t>(left_key)];
        bool matched = false;
        auto [lo, hi] = hash.equal_range(key.Hash());
        for (auto it = lo; it != hi; ++it) {
          const Row& r = *it->second;
          if (r[static_cast<size_t>(right_key)].Compare(key) != 0) continue;
          combined.push_back(append(l, r));
          matched = true;
        }
        if (!matched && left_outer) combined.push_back(append(l, null_pad));
      }
    } else {
      // Nested-loop join with ON predicate (or cross join).
      for (const Row& l : *rows) {
        bool matched = false;
        for (const Row& r : right) {
          Row joined = append(l, r);
          if (join.on != nullptr) {
            SPHERE_ASSIGN_OR_RETURN(
                Value ok, EvalExpr(join.on.get(), *columns, joined, params));
            if (!IsTruthy(ok)) continue;
          }
          combined.push_back(std::move(joined));
          matched = true;
        }
        if (!matched && left_outer) combined.push_back(append(l, null_pad));
      }
    }
    *rows = std::move(combined);
  }
  return Status::OK();
}

Result<ExecResult> Executor::ExecuteSelect(const sql::SelectStatement& stmt,
                                           const std::vector<Value>& params) {
  // Source. One table streams through a cursor: mvcc self-latches per
  // batch against the statement snapshot, latch mode holds one shared
  // section across the drain. Joins and comma joins are
  // materialized first; a SELECT without FROM reads one empty row.
  BoundColumns columns;
  std::optional<ScanPlan> plan;
  std::vector<Row> materialized;
  if (stmt.from.size() == 1 && stmt.joins.empty()) {
    SPHERE_ASSIGN_OR_RETURN(plan,
                            PlanScan(stmt.from[0], stmt.where.get(), params));
    BindTable(stmt.from[0], *plan->table, &columns);
  } else if (stmt.from.empty()) {
    materialized.emplace_back();
  } else {
    SPHERE_RETURN_NOT_OK(
        MaterializeJoin(stmt, params, &columns, &materialized));
  }
  std::vector<std::string> labels = RowStore::Instance().AcquireLabelShell();
  ArenaVector<ProjectionStep> steps = BuildOutput(stmt, columns, &labels);
  const size_t width = steps.size();

  // Pulls each source row that passes the WHERE into `consume` until it
  // returns false. Only what `consume` projects or copies outlives a row.
  auto drain = [&](auto&& consume) -> Status {
    if (plan.has_value()) {
      const bool self_latch = mvcc();
      OptionalReaderLock lk(self_latch ? nullptr : &plan->table->latch());
      return DrainMatches(*plan, read_view_, self_latch, stmt.where.get(),
                          columns, params, consume);
    }
    for (const Row& row : materialized) {
      if (stmt.where != nullptr) {
        SPHERE_ASSIGN_OR_RETURN(
            Value ok, EvalExpr(stmt.where.get(), columns, row, params));
        if (!IsTruthy(ok)) continue;
      }
      SPHERE_ASSIGN_OR_RETURN(bool more, consume(row));
      if (!more) break;
    }
    return Status::OK();
  };

  ArenaVector<SortKey> keys;

  AggPlan aggs;
  for (const auto& item : stmt.items) {
    if (item.expr != nullptr) aggs.Collect(item.expr.get());
  }
  if (stmt.having != nullptr) aggs.Collect(stmt.having.get());
  for (const auto& ob : stmt.order_by) aggs.Collect(ob.expr.get());

  if (aggs.calls.empty() && stmt.group_by.empty()) {
    // Order keys evaluate on the source row when every column key resolves
    // there; otherwise all of them resolve against the output.
    bool source_keys = std::all_of(
        stmt.order_by.begin(), stmt.order_by.end(), [&](const auto& ob) {
          return ob.expr->kind() != sql::ExprKind::kColumnRef ||
                 StepFor(ob.expr.get(), columns).col >= 0;
        });
    // An ascending first key on the pk of a pk-ordered scan makes the sort
    // a no-op: the key is unique, so later keys never break a tie.
    bool index_ordered = false;
    if (source_keys && plan.has_value() && !stmt.order_by.empty() &&
        !stmt.order_by[0].desc && plan->table->pk_index() >= 0 &&
        plan->pk_ordered()) {
      ProjectionStep first = StepFor(stmt.order_by[0].expr.get(), columns);
      index_ordered = first.col == plan->table->pk_index();
    }
    if (!source_keys) {
      SPHERE_RETURN_NOT_OK(ResolveOutputKeys(stmt, labels, &keys));
    } else if (!index_ordered) {
      // A key that is already an output cell is read from there; any other
      // key rides along as an extra cell after the output.
      for (const auto& ob : stmt.order_by) {
        ProjectionStep key = StepFor(ob.expr.get(), columns);
        size_t cell = steps.size();
        for (size_t i = 0; i < width && key.col >= 0; ++i) {
          if (steps[i].col == key.col) {
            cell = i;
            break;
          }
        }
        if (cell == steps.size()) steps.push_back(key);
        keys.push_back(SortKey{cell, ob.desc});
      }
    }
    RowSink sink(stmt, width, std::move(keys));
    if (!sink.Done()) {
      SPHERE_RETURN_NOT_OK(drain([&](const Row& row) -> Result<bool> {
        if (sink.SkipNext()) return true;
        SPHERE_RETURN_NOT_OK(
            ProjectRowInto(steps, columns, row, params, nullptr, sink.Slot()));
        sink.Push();
        return !sink.Done();
      }));
    }
    return ExecResult::Query(
        std::make_unique<VectorResultSet>(std::move(labels), sink.Finish()));
  }

  // Aggregated: fold every source row into its group (a global aggregate
  // is the one group with the empty key), then, once the source's latch
  // scope has closed, finish the groups into the sink in ascending
  // group-key order.
  GroupMap groups;
  auto group_of = [&](const Row& key, const Row& row) -> Group& {
    auto it = groups.find(key);
    if (it != groups.end()) return it->second;
    Group& g = groups[key];
    if (aggs.reads_columns) g.first_row = row;
    for (const sql::FuncCallExpr* f : aggs.calls) {
      g.aggs.emplace_back(AggKindOf(f->name), f->distinct);
    }
    return g;
  };
  Row key;
  SPHERE_RETURN_NOT_OK(drain([&](const Row& row) -> Result<bool> {
    key.clear();
    for (const auto& e : stmt.group_by) {
      SPHERE_ASSIGN_OR_RETURN(Value v, EvalExpr(e.get(), columns, row, params));
      key.push_back(std::move(v));
    }
    Group& g = group_of(key, row);
    for (size_t i = 0; i < aggs.calls.size(); ++i) {
      const sql::FuncCallExpr* f = aggs.calls[i];
      if (f->star) {
        g.aggs[i].Add(Value(int64_t{1}));
      } else if (!f->args.empty()) {
        SPHERE_ASSIGN_OR_RETURN(
            Value v, EvalExpr(f->args[0].get(), columns, row, params));
        g.aggs[i].Add(v);
      }
    }
    return true;
  }));
  // A global aggregate over empty input still yields one row.
  if (groups.empty() && stmt.group_by.empty()) {
    group_of(key, Row(columns.size(), Value::Null()));
  }

  if (!stmt.order_by.empty()) {
    SPHERE_RETURN_NOT_OK(ResolveOutputKeys(stmt, labels, &keys));
  }
  bool star = false;
  for (const auto& item : stmt.items) star = star || item.is_star;
  RowSink sink(stmt, width, std::move(keys));
  ArenaVector<Value> finished(aggs.calls.size());
  AggregateBinding binding{&aggs.calls, finished.data()};
  for (const auto& [k, g] : groups) {
    for (size_t i = 0; i < g.aggs.size(); ++i) finished[i] = g.aggs[i].Finish();
    if (stmt.having != nullptr) {
      SPHERE_ASSIGN_OR_RETURN(Value ok, EvalExpr(stmt.having.get(), columns,
                                                 g.first_row, params, &binding));
      if (!IsTruthy(ok)) continue;
    }
    if (star) return Status::InvalidArgument("SELECT * cannot be aggregated");
    if (sink.SkipNext()) continue;
    SPHERE_RETURN_NOT_OK(ProjectRowInto(steps, columns, g.first_row, params,
                                        &binding, sink.Slot()));
    sink.Push();
    if (sink.Done()) break;
  }
  return ExecResult::Query(
      std::make_unique<VectorResultSet>(std::move(labels), sink.Finish()));
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

  // One lane for every predicate (DESIGN.md §10): the access-path cursor
  // (PK point/range, secondary index, or full scan) finds the rows, and the
  // WHERE and the SET both read the image that is current under the one
  // writer section that also applies the change.
  SPHERE_ASSIGN_OR_RETURN(ScanPlan plan,
                          PlanScan(stmt.table, stmt.where.get(), params));
  BoundColumns columns;
  BindTable(stmt.table, *table, &columns);
  int64_t writer = txn != nullptr ? txn->id() : db_->epochs()->NextWriterId();
  std::vector<std::pair<Value, Row>> pending;  // pk -> new image
  std::vector<Row> old_images;
  std::vector<Value> applied;  ///< updated PKs, for auto-commit restamp
  {
    WriterLock lk(table->latch());
    SPHERE_RETURN_NOT_OK(DrainMatches(
        plan, storage::ReadView::Latest(writer), /*self_latch=*/false,
        stmt.where.get(), columns, params,
        [&](const Row& row) -> Result<bool> {
          Row new_row = row;
          for (size_t i = 0; i < stmt.assignments.size(); ++i) {
            SPHERE_ASSIGN_OR_RETURN(
                Value v, EvalExpr(stmt.assignments[i].value.get(), columns,
                                  row, params));
            new_row[static_cast<size_t>(target_cols[i])] = std::move(v);
          }
          pending.emplace_back(row[static_cast<size_t>(pk)],
                               std::move(new_row));
          if (txn != nullptr) old_images.push_back(row);
          return true;
        }));
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

Result<ExecResult> Executor::ExecuteDelete(const sql::DeleteStatement& stmt,
                                           const std::vector<Value>& params,
                                           storage::Transaction* txn) {
  storage::Table* table = db_->FindTable(stmt.table.name);
  if (table == nullptr) return Status::NotFound("table " + stmt.table.name);
  int pk = table->pk_index();
  if (pk < 0) return Status::Unsupported("DELETE on table without primary key");

  // The one lane, mirroring ExecuteUpdate: collect the matching keys
  // through the access-path cursor, then delete, all under one writer
  // section (Delete restructures the leaf chain the cursor walks, so the two
  // phases cannot interleave).
  SPHERE_ASSIGN_OR_RETURN(ScanPlan plan,
                          PlanScan(stmt.table, stmt.where.get(), params));
  BoundColumns columns;
  BindTable(stmt.table, *table, &columns);
  int64_t writer = txn != nullptr ? txn->id() : db_->epochs()->NextWriterId();
  std::vector<Value> keys, applied;
  {
    WriterLock lk(table->latch());
    SPHERE_RETURN_NOT_OK(DrainMatches(
        plan, storage::ReadView::Latest(writer), /*self_latch=*/false,
        stmt.where.get(), columns, params,
        [&](const Row& row) -> Result<bool> {
          keys.push_back(row[static_cast<size_t>(pk)]);
          return true;
        }));
    applied.reserve(keys.size());
    for (const Value& key : keys) {
      Row old_row;
      Status st = table->Delete(key, &old_row, writer);
      if (!st.ok()) continue;  // already gone
      applied.push_back(key);
      if (txn != nullptr) {
        txn->AddUndo({storage::UndoRecord::Op::kDelete, table->name(), key,
                      std::move(old_row)});
      }
    }
  }
  if (txn == nullptr) CommitAutoCommit(table, applied, writer);
  return ExecResult::Update(static_cast<int64_t>(applied.size()));
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
