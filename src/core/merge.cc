#include "core/merge.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/strings.h"
#include "engine/aggregate.h"
#include "engine/row_batch.h"
#include "engine/row_dedup.h"

namespace sphere::core {

namespace {

using engine::ResultSet;
using engine::ResultSetPtr;
using engine::RowIndexSet;
using engine::VectorResultSet;

/// Resolves by-name merge keys against the physical columns: one
/// case-insensitive name→index map, probed per key (the first matching
/// column wins, as SQL label resolution requires).
Result<std::vector<MergeKey>> ResolveKeys(
    const std::vector<MergeKey>& keys, const std::vector<std::string>& columns) {
  std::vector<MergeKey> out = keys;
  bool any_by_name = false;
  for (const auto& key : out) {
    if (key.index < 0) any_by_name = true;
  }
  if (!any_by_name) return out;

  std::unordered_map<std::string_view, int, CaseInsensitiveHash,
                     CaseInsensitiveEqual>
      by_name(columns.size() * 2);
  for (size_t i = 0; i < columns.size(); ++i) {
    by_name.emplace(columns[i], static_cast<int>(i));  // keeps first occurrence
  }
  for (auto& key : out) {
    if (key.index >= 0) continue;
    auto it = by_name.find(std::string_view(key.name));
    if (it == by_name.end()) {
      return Status::InvalidArgument("merge key column not found: " + key.name);
    }
    key.index = it->second;
  }
  return out;
}

int CompareByKeys(const Row& a, const Row& b, const std::vector<MergeKey>& keys) {
  for (const auto& key : keys) {
    size_t i = static_cast<size_t>(key.index);
    int c = a[i].Compare(b[i]);
    if (c != 0) return key.desc ? -c : c;
  }
  return 0;
}

bool SameGroup(const Row& a, const Row& b, const std::vector<MergeKey>& keys) {
  for (const auto& key : keys) {
    size_t i = static_cast<size_t>(key.index);
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Stream mergers
// ---------------------------------------------------------------------------

/// Concatenates cursors (paper's iteration merger).
class IterationMergedResult : public ResultSet {
 public:
  IterationMergedResult(std::vector<ResultSetPtr> sources,
                        std::vector<std::string> columns)
      : sources_(std::move(sources)), columns_(std::move(columns)) {}

  const std::vector<std::string>& columns() const override { return columns_; }

  bool Next(Row* row) override {
    while (cursor_ < sources_.size()) {
      if (sources_[cursor_]->Next(row)) return true;
      ++cursor_;
    }
    return false;
  }

  size_t NextBatch(std::vector<Row>* out, size_t max) override {
    size_t total = 0;
    while (total < max && cursor_ < sources_.size()) {
      size_t n = sources_[cursor_]->NextBatch(out, max - total);
      if (n == 0) {
        ++cursor_;
        continue;
      }
      total += n;
    }
    return total;
  }

 private:
  std::vector<ResultSetPtr> sources_;
  std::vector<std::string> columns_;
  size_t cursor_ = 0;
};

/// Pull-side batching over one shard cursor: refills an internal buffer via
/// NextBatch so the k-way merge pays one virtual call per batch instead of
/// one per row, and hands out mutable pointers the merge can move from.
class BufferedCursor {
 public:
  explicit BufferedCursor(ResultSet* source)
      : source_(source),
        buffer_(engine::RowStore::Instance().AcquireShell()) {}
  ~BufferedCursor() {
    // The merge moved most rows out (husks), but the spine and any tail rows
    // return to the recycler; no-op when pooling is off.
    engine::RowStore::Instance().Release(std::move(buffer_));
  }

  BufferedCursor(BufferedCursor&&) = default;
  BufferedCursor& operator=(BufferedCursor&&) = default;

  /// Next row, owned by the buffer until the following Next() call — the
  /// caller may move from it. nullptr at end of stream.
  Row* Next() {
    if (pos_ >= buffer_.size()) {
      buffer_.clear();
      pos_ = 0;
      if (source_->NextBatch(&buffer_, engine::kBatchSize) == 0) {
        return nullptr;
      }
    }
    return &buffer_[pos_++];
  }

 private:
  ResultSet* source_;
  std::vector<Row> buffer_;
  size_t pos_ = 0;
};

/// K-way merge by sort keys over per-shard cursors that are already sorted
/// (paper's order-by stream merger). A hand-rolled binary heap replaces
/// std::priority_queue so each pop moves the winning row out instead of
/// copying it twice (top() is const), and so the winner's replacement row is
/// sifted in place rather than popped and re-pushed. Ties break on the source
/// index, making the merge order deterministic across runs.
class OrderByStreamMergedResult : public ResultSet {
 public:
  OrderByStreamMergedResult(std::vector<ResultSetPtr> sources,
                            std::vector<std::string> columns,
                            std::vector<MergeKey> keys)
      : sources_(std::move(sources)), columns_(std::move(columns)),
        keys_(std::move(keys)) {
    cursors_.reserve(sources_.size());
    for (auto& s : sources_) cursors_.emplace_back(s.get());
    heap_.reserve(cursors_.size());
    for (size_t i = 0; i < cursors_.size(); ++i) {
      Row* row = cursors_[i].Next();
      if (row != nullptr) heap_.push_back(Entry{std::move(*row), i});
    }
    for (size_t i = heap_.size() / 2; i-- > 0;) SiftDown(i);
  }

  const std::vector<std::string>& columns() const override { return columns_; }

  bool Next(Row* row) override {
    if (heap_.empty()) return false;
    *row = std::move(heap_[0].row);
    Refill();
    return true;
  }

  size_t NextBatch(std::vector<Row>* out, size_t max) override {
    size_t n = 0;
    while (n < max && !heap_.empty()) {
      out->push_back(std::move(heap_[0].row));
      Refill();
      ++n;
    }
    return n;
  }

 private:
  struct Entry {
    Row row;
    size_t source;
  };

  /// Strict weak order: a streams out before b.
  bool Before(const Entry& a, const Entry& b) const {
    int c = CompareByKeys(a.row, b.row, keys_);
    if (c != 0) return c < 0;
    return a.source < b.source;
  }

  void SiftDown(size_t i) {
    for (;;) {
      size_t l = 2 * i + 1;
      size_t r = l + 1;
      size_t m = i;
      if (l < heap_.size() && Before(heap_[l], heap_[m])) m = l;
      if (r < heap_.size() && Before(heap_[r], heap_[m])) m = r;
      if (m == i) return;
      std::swap(heap_[i], heap_[m]);
      i = m;
    }
  }

  /// Replaces the (moved-from) root with the winning source's next row, or
  /// with the last heap entry when that source ran dry, then restores the
  /// heap property.
  void Refill() {
    size_t src = heap_[0].source;
    Row* next = cursors_[src].Next();
    if (next != nullptr) {
      heap_[0].row = std::move(*next);
    } else {
      if (heap_.size() == 1) {
        heap_.clear();
        return;
      }
      heap_[0] = std::move(heap_.back());
      heap_.pop_back();
    }
    SiftDown(0);
  }

  std::vector<ResultSetPtr> sources_;
  std::vector<std::string> columns_;
  std::vector<MergeKey> keys_;
  std::vector<BufferedCursor> cursors_;
  std::vector<Entry> heap_;
};

// ---------------------------------------------------------------------------
// Group-by merger
// ---------------------------------------------------------------------------

/// Folds every shard's partial rows into one row per group through the
/// aggregate kernel (paper's group-by memory merger). Groups key on the
/// group-key columns; a global aggregate is the one group with the empty
/// key. Each group keeps its first row from the lowest-index source, its
/// aggregate columns replaced by the combined values. The groups come out
/// sorted by the ORDER BY keys, then the group keys.
std::vector<Row> FoldGroups(std::vector<ResultSetPtr>* sources,
                            const std::vector<AggDesc>& aggregations,
                            const std::vector<MergeKey>& group_keys,
                            const std::vector<MergeKey>& order_keys) {
  using engine::AggKind;
  const size_t width = aggregations.size();

  std::vector<Row> groups;               // first rows, first-seen order
  std::vector<engine::Aggregator> accs;  // `width` per group
  // Hashes and compares rows of `groups` on the group-key columns only, so
  // an incoming row is probed in place with no key copy.
  struct ByKeys {
    const std::vector<Row>* rows;
    const std::vector<MergeKey>* keys;
    size_t operator()(size_t i) const {
      uint64_t h = 0xcbf29ce484222325ULL;
      for (const auto& k : *keys) {
        h = HashCombine(h, (*rows)[i][static_cast<size_t>(k.index)].Hash());
      }
      return static_cast<size_t>(h);
    }
    bool operator()(size_t a, size_t b) const {
      return SameGroup((*rows)[a], (*rows)[b], *keys);
    }
  };
  const ByKeys by_keys{&groups, &group_keys};
  std::unordered_set<size_t, ByKeys, ByKeys> index(0, by_keys, by_keys);

  engine::RowBatch batch(0);
  std::vector<Row>& scratch = *batch.out();
  for (auto& src : *sources) {
    for (;;) {
      scratch.clear();
      if (src->NextBatch(&scratch, engine::kBatchSize) == 0) break;
      for (Row& row : scratch) {
        // The row joins `groups` as a candidate first row; when its group
        // already exists it is folded in and dropped again.
        groups.push_back(std::move(row));
        size_t g = group_keys.empty()
                       ? 0
                       : *index.insert(groups.size() - 1).first;
        const bool fresh = g == groups.size() - 1;
        if (fresh) {
          for (const AggDesc& desc : aggregations) accs.emplace_back(desc.kind);
        }
        // AVG columns finish from their hidden SUM/COUNT partners; every
        // other aggregate column combines its shards' partials.
        for (size_t i = 0; i < width; ++i) {
          if (aggregations[i].kind == AggKind::kAvg) continue;
          accs[g * width + i].Combine(groups.back()[aggregations[i].index]);
        }
        if (!fresh) groups.pop_back();
      }
    }
  }

  for (size_t g = 0; g < groups.size(); ++g) {
    Row& row = groups[g];
    for (size_t i = 0; i < width; ++i) {
      if (aggregations[i].kind == AggKind::kAvg) continue;
      row[aggregations[i].index] = accs[g * width + i].Finish();
    }
    for (const AggDesc& desc : aggregations) {
      if (desc.kind != AggKind::kAvg) continue;
      row[desc.index] = engine::Aggregator::Average(
          row[static_cast<size_t>(desc.sum_index)],
          row[static_cast<size_t>(desc.count_index)]);
    }
  }
  if (groups.size() > 1) {
    std::stable_sort(groups.begin(), groups.end(),
                     [&](const Row& a, const Row& b) {
                       int c = CompareByKeys(a, b, order_keys);
                       if (c != 0) return c < 0;
                       return CompareByKeys(a, b, group_keys) < 0;
                     });
  }
  return groups;
}

// ---------------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------------

/// Applies the logical LIMIT/OFFSET after merging (pagination decorator).
class LimitDecoratorResult : public ResultSet {
 public:
  LimitDecoratorResult(ResultSetPtr inner, sql::LimitClause limit)
      : inner_(std::move(inner)), limit_(limit) {}

  const std::vector<std::string>& columns() const override {
    return inner_->columns();
  }

  bool Next(Row* row) override {
    if (!SkipOffset()) return false;
    if (limit_.count >= 0 && returned_ >= limit_.count) return false;
    if (!inner_->Next(row)) return false;
    ++returned_;
    return true;
  }

  size_t NextBatch(std::vector<Row>* out, size_t max) override {
    if (!SkipOffset()) return 0;
    if (limit_.count >= 0) {
      max = std::min(max, static_cast<size_t>(limit_.count - returned_));
    }
    if (max == 0) return 0;
    size_t n = inner_->NextBatch(out, max);
    returned_ += static_cast<int64_t>(n);
    return n;
  }

 private:
  /// Discards the first `offset` merged rows in batches; false when the
  /// stream ends inside the offset window.
  bool SkipOffset() {
    if (skipped_ >= limit_.offset) return true;
    // Discarded rows drain into a pooled shell and go straight back to the
    // recycler (the last batch's rows ride out with the Release).
    engine::RowBatch scratch(0);
    while (skipped_ < limit_.offset) {
      scratch.out()->clear();
      size_t want =
          std::min(static_cast<size_t>(limit_.offset - skipped_),
                   engine::kBatchSize);
      size_t n = inner_->NextBatch(scratch.out(), want);
      if (n == 0) return false;
      skipped_ += static_cast<int64_t>(n);
    }
    return true;
  }

  ResultSetPtr inner_;
  sql::LimitClause limit_;
  int64_t skipped_ = 0;
  int64_t returned_ = 0;
};

/// Trims derived columns away so the client sees the logical projection.
class ProjectionDecoratorResult : public ResultSet {
 public:
  ProjectionDecoratorResult(ResultSetPtr inner, size_t visible)
      : inner_(std::move(inner)), visible_(visible) {
    const auto& cols = inner_->columns();
    columns_.assign(cols.begin(),
                    cols.begin() + static_cast<long>(std::min(visible_, cols.size())));
  }

  const std::vector<std::string>& columns() const override { return columns_; }

  bool Next(Row* row) override {
    if (!inner_->Next(row)) return false;
    if (row->size() > visible_) row->resize(visible_);
    return true;
  }

  size_t NextBatch(std::vector<Row>* out, size_t max) override {
    size_t start = out->size();
    size_t n = inner_->NextBatch(out, max);
    for (size_t i = start; i < out->size(); ++i) {
      if ((*out)[i].size() > visible_) (*out)[i].resize(visible_);
    }
    return n;
  }

 private:
  ResultSetPtr inner_;
  size_t visible_;
  std::vector<std::string> columns_;
};

/// DISTINCT decorator. Seen rows are retained in arrival order and indexed by
/// a HashRow-keyed set (O(1) expected probes instead of an ordered set's
/// O(log n) Value::Compare chains); duplicates are dropped without copying,
/// and each emitted row costs exactly one copy — the set must keep the
/// original for future equality checks.
class DistinctDecoratorResult : public ResultSet {
 public:
  explicit DistinctDecoratorResult(ResultSetPtr inner)
      : inner_(std::move(inner)), seen_(&rows_) {}

  const std::vector<std::string>& columns() const override {
    return inner_->columns();
  }

  bool Next(Row* row) override {
    Row tmp;
    while (inner_->Next(&tmp)) {
      if (Admit(std::move(tmp))) {
        *row = rows_.back();
        return true;
      }
    }
    return false;
  }

  size_t NextBatch(std::vector<Row>* out, size_t max) override {
    size_t emitted = 0;
    // Pooled shell: admitted rows are moved into rows_, duplicates dropped —
    // either way the scratch spine survives for the next call.
    engine::RowBatch batch(0);
    std::vector<Row>& scratch = *batch.out();
    while (emitted < max) {
      scratch.clear();
      if (inner_->NextBatch(&scratch, max - emitted) == 0) break;
      for (Row& row : scratch) {
        if (Admit(std::move(row))) {
          out->push_back(rows_.back());
          ++emitted;
        }
      }
    }
    return emitted;
  }

 private:
  /// True when `row` is new; it then stays at rows_.back().
  bool Admit(Row row) {
    rows_.push_back(std::move(row));
    if (seen_.Admit(rows_.size() - 1)) return true;
    rows_.pop_back();
    return false;
  }

  ResultSetPtr inner_;
  std::vector<Row> rows_;  ///< distinct rows seen so far, arrival order
  RowIndexSet seen_;
};

}  // namespace

Result<engine::ExecResult> MergeEngine::Merge(
    ArenaVector<engine::ExecResult> results, const MergeContext& ctx) const {
  if (results.empty()) {
    return Status::Internal("merge of zero results");
  }

  if (!ctx.is_select) {
    int64_t affected = 0;
    int64_t last_id = 0;
    for (auto& r : results) {
      affected += r.affected_rows;
      last_id = std::max(last_id, r.last_insert_id);
    }
    return engine::ExecResult::Update(affected, last_id);
  }

  if (ctx.pass_through || results.size() == 1) {
    return std::move(results[0]);
  }

  // Gather cursors; all shards return the same physical shape.
  std::vector<ResultSetPtr> sources;
  sources.reserve(results.size());
  for (auto& r : results) {
    if (!r.is_query || r.result_set == nullptr) {
      return Status::Internal("non-query result in select merge");
    }
    sources.push_back(std::move(r.result_set));
  }
  const std::vector<std::string> physical_columns = sources[0]->columns();
  std::vector<std::string> labels =
      ctx.labels.empty() ? physical_columns : ctx.labels;
  size_t visible = ctx.visible_columns == 0 ? labels.size() : ctx.visible_columns;

  SPHERE_ASSIGN_OR_RETURN(std::vector<MergeKey> order_keys,
                          ResolveKeys(ctx.order_by, physical_columns));
  SPHERE_ASSIGN_OR_RETURN(std::vector<MergeKey> group_keys,
                          ResolveKeys(ctx.group_by, physical_columns));

  ResultSetPtr merged;
  if (!group_keys.empty() || !ctx.aggregations.empty()) {
    merged = std::make_unique<VectorResultSet>(
        labels,
        FoldGroups(&sources, ctx.aggregations, group_keys, order_keys));
  } else if (!order_keys.empty()) {
    merged = std::make_unique<OrderByStreamMergedResult>(std::move(sources),
                                                         labels, order_keys);
  } else {
    merged = std::make_unique<IterationMergedResult>(std::move(sources), labels);
  }

  if (ctx.distinct) {
    merged = std::make_unique<DistinctDecoratorResult>(std::move(merged));
  }
  if (ctx.limit.has_value()) {
    merged = std::make_unique<LimitDecoratorResult>(std::move(merged), *ctx.limit);
  }
  if (visible < merged->columns().size()) {
    merged = std::make_unique<ProjectionDecoratorResult>(std::move(merged), visible);
  }
  return engine::ExecResult::Query(std::move(merged));
}

}  // namespace sphere::core
