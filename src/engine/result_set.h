#ifndef SPHERE_ENGINE_RESULT_SET_H_
#define SPHERE_ENGINE_RESULT_SET_H_

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "engine/row_batch.h"

namespace sphere::engine {

/// Rows moved per NextBatch call between pipeline stages (DESIGN.md §9):
/// large enough to amortize a virtual call over many rows, small enough that
/// LIMIT-terminated queries never pull much more than they emit.
inline constexpr size_t kBatchSize = 256;

/// Streaming cursor over query results. Both the local executor and the
/// middleware's mergers speak this interface, so a merged multi-source result
/// looks exactly like a single-node one (the property the paper's stream
/// merger relies on).
///
/// Consumers that can take rows in bulk should prefer NextBatch: it amortizes
/// the virtual dispatch over many rows and lets producers *move* rows out
/// instead of copying them one by one.
class ResultSet {
 public:
  virtual ~ResultSet() = default;

  /// Output column labels.
  virtual const std::vector<std::string>& columns() const = 0;

  /// Advances to the next row; returns false at end. `row` is only valid
  /// until the next call.
  virtual bool Next(Row* row) = 0;

  /// Appends up to `max` rows to `*out` and returns how many were appended;
  /// 0 means end of stream. The base implementation adapts row-at-a-time
  /// Next(); batch-native producers override it to move whole row runs.
  /// Mixing Next and NextBatch on one cursor is allowed — both consume the
  /// same underlying stream.
  virtual size_t NextBatch(std::vector<Row>* out, size_t max);

  /// Non-destructive view of the full row payload when this result set is
  /// already materialized, null otherwise. Lets size-only consumers (the
  /// simulated wire charging transfer bytes) observe the rows without
  /// draining the cursor.
  virtual const std::vector<Row>* MaterializedRows() const { return nullptr; }
};

using ResultSetPtr = std::unique_ptr<ResultSet>;

/// Fully materialized result set. NextBatch moves rows out in runs, so a
/// drain of a VectorResultSet never copies row payloads.
class VectorResultSet : public ResultSet {
 public:
  VectorResultSet(std::vector<std::string> columns, std::vector<Row> rows)
      : columns_(std::move(columns)), rows_(std::move(rows)) {}

  /// Undrained or partially drained results hand their remaining rows, spine
  /// and label vector back to the pool — an abandoned cursor (LIMIT, error,
  /// discarded result) must not bleed the recycler dry.
  ~VectorResultSet() override {
    if (rows_.capacity() != 0) RecycleRows(std::move(rows_));
    RowStore::Instance().ReleaseLabels(std::move(columns_));
  }

  /// The result-set node itself recycles through a fixed-size block pool:
  /// one cursor object per query on the hot path, same size every time.
  static void* operator new(size_t size) {
    return RowStore::Instance().AcquireBlock(size);
  }
  static void operator delete(void* p, size_t size) noexcept {
    if (!RowStore::Instance().ReleaseBlock(p, size)) ::operator delete(p);
  }

  const std::vector<std::string>& columns() const override { return columns_; }

  bool Next(Row* row) override {
    if (pos_ >= rows_.size()) return false;
    *row = std::move(rows_[pos_++]);
    return true;
  }

  size_t NextBatch(std::vector<Row>* out, size_t max) override {
    size_t n = std::min(max, rows_.size() - pos_);
    out->insert(out->end(), std::make_move_iterator(rows_.begin() + static_cast<long>(pos_)),
                std::make_move_iterator(rows_.begin() + static_cast<long>(pos_ + n)));
    pos_ += n;
    return n;
  }

  const std::vector<Row>* MaterializedRows() const override { return &rows_; }

  size_t row_count() const { return rows_.size(); }
  const std::vector<Row>& rows() const { return rows_; }
  /// Takes the backing storage (pool recycling); the cursor is then empty.
  std::vector<Row> TakeRows() {
    pos_ = 0;
    return std::move(rows_);
  }

 private:
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Drains a result set into a materialized copy via the batch path.
std::vector<Row> DrainResultSet(ResultSet* rs);

/// Outcome of executing one statement: a cursor for queries, an affected-row
/// count for updates.
struct ExecResult {
  bool is_query = false;
  ResultSetPtr result_set;      ///< non-null when is_query
  int64_t affected_rows = 0;    ///< DML row count
  int64_t last_insert_id = 0;   ///< last generated key (0 when none)

  static ExecResult Query(ResultSetPtr rs) {
    ExecResult r;
    r.is_query = true;
    r.result_set = std::move(rs);
    return r;
  }
  static ExecResult Update(int64_t affected, int64_t last_id = 0) {
    ExecResult r;
    r.affected_rows = affected;
    r.last_insert_id = last_id;
    return r;
  }
};

}  // namespace sphere::engine

#endif  // SPHERE_ENGINE_RESULT_SET_H_
