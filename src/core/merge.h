#ifndef SPHERE_CORE_MERGE_H_
#define SPHERE_CORE_MERGE_H_

#include <vector>

#include "common/arena.h"
#include "common/result.h"
#include "core/rewrite.h"
#include "engine/result_set.h"

namespace sphere::core {

/// The result merger (paper §VI-E): combines the per-shard ExecResults of one
/// logical statement into a single result.
///
/// Queries merge through one merger and a chain of decorators:
///   - iteration merger: plain concatenation of cursors,
///   - order-by stream merger: k-way merge over a binary heap,
///   - group-by merger: one hash fold of every aggregated SELECT (a global
///     aggregate is the group with the empty key) through the aggregate
///     kernel (engine/aggregate.h); AVG finishes from its hidden SUM and
///     COUNT columns,
///   - decorators: DISTINCT, pagination, projection of derived columns away.
/// Updates merge by summing affected row counts.
class MergeEngine {
 public:
  /// `results` must align 1:1 with the rewrite's SQL units.
  Result<engine::ExecResult> Merge(ArenaVector<engine::ExecResult> results,
                                   const MergeContext& context) const;
};

}  // namespace sphere::core

#endif  // SPHERE_CORE_MERGE_H_
