// Micro-benchmarks of the SQL engine stages (google-benchmark): parser,
// router, rewriter, merger, B+Tree, the deadlock-free connection acquisition,
// the statement cache hit/miss paths and the executor's scheduler dispatch.
// These back the DESIGN.md ablation notes with per-stage costs.
//
// Emits machine-readable results to BENCH_micro.json (ops/sec per benchmark)
// unless the caller passes its own --benchmark_out.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench/alloc_hook.h"
#include "common/arena.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/merge.h"
#include "engine/row_batch.h"
#include "engine/topk.h"
#include "core/rewrite.h"
#include "core/route.h"
#include "core/rule.h"
#include "core/runtime.h"
#include "engine/storage_node.h"
#include "net/pool.h"
#include "sql/parser.h"
#include "storage/btree.h"

namespace sphere {
namespace {

const char* kPointSQL = "SELECT c FROM sbtest WHERE id = 42";
const char* kComplexSQL =
    "SELECT age, COUNT(*), AVG(score) FROM t_user "
    "WHERE uid BETWEEN 10 AND 500 AND age > 18 GROUP BY age ORDER BY age "
    "LIMIT 10, 20";

void BM_ParsePointSelect(benchmark::State& state) {
  for (auto _ : state) {
    auto r = sql::ParseSQL(kPointSQL);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParsePointSelect);

void BM_ParseComplexSelect(benchmark::State& state) {
  for (auto _ : state) {
    auto r = sql::ParseSQL(kComplexSQL);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParseComplexSelect);

std::unique_ptr<core::ShardingRule> MakeRule(int shards) {
  core::ShardingRuleConfig config;
  core::TableRuleConfig t;
  t.logic_table = "sbtest";
  t.auto_resources = {"ds_0", "ds_1", "ds_2", "ds_3"};
  t.auto_sharding_count = shards;
  t.table_strategy.columns = {"id"};
  t.table_strategy.algorithm_type = "MOD";
  t.table_strategy.props.Set("sharding-count", std::to_string(shards));
  config.tables.push_back(std::move(t));
  auto rule = core::ShardingRule::Build(std::move(config));
  return std::move(rule).value();
}

void BM_RoutePointQuery(benchmark::State& state) {
  auto rule = MakeRule(static_cast<int>(state.range(0)));
  auto stmt = sql::ParseSQL(kPointSQL).value();
  core::RouteEngine engine(rule.get());
  for (auto _ : state) {
    auto r = engine.Route(*stmt, {});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RoutePointQuery)->Arg(4)->Arg(40)->Arg(400);

void BM_RouteAndRewriteScatter(benchmark::State& state) {
  auto rule = MakeRule(40);
  auto stmt = sql::ParseSQL("SELECT SUM(k) FROM sbtest WHERE k > 5").value();
  core::RouteEngine router(rule.get());
  core::RewriteEngine rewriter;
  for (auto _ : state) {
    auto route = router.Route(*stmt, {});
    auto rewritten = rewriter.Rewrite(*stmt, route.value(), {});
    benchmark::DoNotOptimize(rewritten);
  }
}
BENCHMARK(BM_RouteAndRewriteScatter);

void BM_MergeOrderedStreams(benchmark::State& state) {
  int sources = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ArenaVector<engine::ExecResult> partials;
    for (int s = 0; s < sources; ++s) {
      std::vector<Row> rows;
      for (int i = 0; i < 100; ++i) {
        rows.push_back({Value(static_cast<int64_t>(i * sources + s))});
      }
      partials.push_back(engine::ExecResult::Query(
          std::make_unique<engine::VectorResultSet>(
              std::vector<std::string>{"id"}, std::move(rows))));
    }
    core::MergeContext ctx;
    ctx.is_select = true;
    ctx.labels = {"id"};
    ctx.visible_columns = 1;
    ctx.order_by.push_back(core::MergeKey{0, "id", false});
    state.ResumeTiming();
    core::MergeEngine merger;
    auto merged = merger.Merge(std::move(partials), ctx);
    Row row;
    while (merged.value().result_set->Next(&row)) {
      benchmark::DoNotOptimize(row);
    }
  }
}
BENCHMARK(BM_MergeOrderedStreams)->Arg(4)->Arg(16)->Arg(64);

/// The group-by merge fold over pre-built partials. Arg(0): 40 single-row
/// SUM partials, the per-op SUM range merge of paperbench's read_only_cpu.
/// Arg(1): 16 sources x 100 (key, COUNT, SUM) rows over 50 group keys.
/// allocs_per_merge counts the merge and its drain only.
void BM_MergeAggregate(benchmark::State& state) {
  const bool grouped = state.range(0) != 0;
  const int sources = grouped ? 16 : 40;
  const int rows_per_source = grouped ? 100 : 1;
  core::MergeContext ctx;
  ctx.is_select = true;
  if (grouped) {
    ctx.labels = {"g", "COUNT(*)", "SUM(v)"};
    ctx.group_by.push_back(core::MergeKey{0, "g", false});
    ctx.aggregations.push_back(core::AggDesc{1, engine::AggKind::kCount});
    ctx.aggregations.push_back(core::AggDesc{2, engine::AggKind::kSum});
  } else {
    ctx.labels = {"SUM(k)"};
    ctx.aggregations.push_back(core::AggDesc{0, engine::AggKind::kSum});
  }
  ctx.visible_columns = ctx.labels.size();
  uint64_t allocs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ArenaVector<engine::ExecResult> partials;
    for (int s = 0; s < sources; ++s) {
      std::vector<Row> rows;
      for (int i = 0; i < rows_per_source; ++i) {
        if (grouped) {
          rows.push_back({Value((s * 7 + i) % 50), Value(3), Value(s + i)});
        } else {
          rows.push_back({Value(int64_t{1000} * s)});
        }
      }
      partials.push_back(engine::ExecResult::Query(
          std::make_unique<engine::VectorResultSet>(ctx.labels,
                                                    std::move(rows))));
    }
    const uint64_t before = bench::AllocationCount();
    state.ResumeTiming();
    core::MergeEngine merger;
    auto merged = merger.Merge(std::move(partials), ctx);
    Row row;
    while (merged.value().result_set->Next(&row)) {
      benchmark::DoNotOptimize(row);
    }
    allocs += bench::AllocationCount() - before;
  }
  state.counters["allocs_per_merge"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_MergeAggregate)->Arg(0)->Arg(1);

void BM_BTreeInsert(benchmark::State& state) {
  storage::BPlusTree<int64_t> tree;
  int64_t i = 0;
  for (auto _ : state) {
    tree.Insert(Value(i), i);
    ++i;
  }
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeLookup(benchmark::State& state) {
  storage::BPlusTree<int64_t> tree;
  int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) tree.Insert(Value(i), i);
  int64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Find(Value(k++ % n)));
  }
  state.SetLabel("height=" + std::to_string(tree.Height()));
}
BENCHMARK(BM_BTreeLookup)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_PoolAcquireManyVsSingle(benchmark::State& state) {
  engine::StorageNode node("ds_0");
  net::LatencyModel network(net::NetworkConfig::Zero());
  net::ConnectionPool pool(&node, &network, 16);
  bool batched = state.range(0) != 0;
  for (auto _ : state) {
    if (batched) {
      auto leases = pool.AcquireMany(8);
      benchmark::DoNotOptimize(leases);
    } else {
      auto lease = pool.Acquire();
      benchmark::DoNotOptimize(lease);
    }
  }
  state.SetLabel(batched ? "AcquireMany(8) [deadlock-free batch]"
                         : "Acquire() [single]");
}
BENCHMARK(BM_PoolAcquireManyVsSingle)->Arg(0)->Arg(1);

// ---------- Hot-path pipeline: statement cache + executor scheduler ----------

/// Four zero-latency storage nodes attached to a runtime, sbtest MOD-sharded
/// by id into 4 tables, one row per shard.
struct MiniCluster {
  explicit MiniCluster(size_t cache_capacity,
                       uint32_t trace_sample_interval =
                           core::RuntimeConfig().trace_sample_interval) {
    core::RuntimeConfig config;
    config.statement_cache_capacity = cache_capacity;
    config.trace_sample_interval = trace_sample_interval;
    runtime = std::make_unique<core::ShardingRuntime>(
        config, net::NetworkConfig::Zero());
    for (int i = 0; i < 4; ++i) {
      nodes.push_back(std::make_unique<engine::StorageNode>(
          "ds_" + std::to_string(i)));
      auto st = runtime->AttachNode(nodes.back()->name(), nodes.back().get());
      if (!st.ok()) std::abort();
    }
    core::ShardingRuleConfig rule;
    core::TableRuleConfig t;
    t.logic_table = "sbtest";
    t.auto_resources = {"ds_0", "ds_1", "ds_2", "ds_3"};
    t.auto_sharding_count = 4;
    t.table_strategy.columns = {"id"};
    t.table_strategy.algorithm_type = "MOD";
    t.table_strategy.props.Set("sharding-count", "4");
    rule.tables.push_back(std::move(t));
    if (!runtime->SetRule(std::move(rule)).ok()) std::abort();
    if (!runtime->Execute("CREATE TABLE sbtest (id BIGINT PRIMARY KEY, "
                          "k BIGINT, c VARCHAR(120))").ok()) {
      std::abort();
    }
    for (int id = 40; id < 44; ++id) {
      if (!runtime->Execute("INSERT INTO sbtest (id, k, c) VALUES (" +
                            std::to_string(id) + ", 1, 'row')").ok()) {
        std::abort();
      }
    }
  }

  std::unique_ptr<core::ShardingRuntime> runtime;
  std::vector<std::unique_ptr<engine::StorageNode>> nodes;
};

/// Full pipeline per iteration with the cache disabled: lex + parse + route +
/// rewrite + execute + merge. The baseline for BM_StatementCacheHit.
void BM_StatementCacheMiss(benchmark::State& state) {
  MiniCluster cluster(/*cache_capacity=*/0);
  for (auto _ : state) {
    auto r = cluster.runtime->Execute(kPointSQL);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("cache off: parse+route+rewrite every call");
}
BENCHMARK(BM_StatementCacheMiss);

/// Steady-state cache hit: the AST and the routed plan are reused, the
/// iteration pays only cache lookup + execute + merge.
void BM_StatementCacheHit(benchmark::State& state) {
  MiniCluster cluster(/*cache_capacity=*/2048);
  auto warm = cluster.runtime->Execute(kPointSQL);  // admit + publish the plan
  if (!warm.ok()) std::abort();
  for (auto _ : state) {
    auto r = cluster.runtime->Execute(kPointSQL);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
  CacheStats s = cluster.runtime->statement_cache_stats();
  state.SetLabel("hits=" + std::to_string(s.hits) +
                 " misses=" + std::to_string(s.misses));
}
BENCHMARK(BM_StatementCacheHit);

/// Scatter SELECT across all 4 data sources: executor dispatch on the shared
/// scheduler pool, with no thread created per statement.
void BM_ExecutorDispatch(benchmark::State& state) {
  MiniCluster cluster(/*cache_capacity=*/2048);
  const char* scatter = "SELECT COUNT(*) FROM sbtest";
  auto warm = cluster.runtime->Execute(scatter);
  if (!warm.ok()) std::abort();
  for (auto _ : state) {
    auto r = cluster.runtime->Execute(scatter);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("shared scheduler pool (no thread creation)");
}
BENCHMARK(BM_ExecutorDispatch);

// ---------- Streaming scan-to-merge pipeline ----------

/// Bulk-loads `rows` extra sbtest rows (ids from 1000 up) with a 64-byte
/// payload so row copies have a visible cost.
void LoadSbtest(MiniCluster* cluster, int rows) {
  const int kPerStmt = 500;
  const std::string payload(64, 'x');
  for (int base = 0; base < rows; base += kPerStmt) {
    std::string sql = "INSERT INTO sbtest (id, k, c) VALUES ";
    int n = std::min(kPerStmt, rows - base);
    for (int i = 0; i < n; ++i) {
      int id = 1000 + base + i;
      if (i > 0) sql += ", ";
      sql += "(" + std::to_string(id) + ", " + std::to_string(id % 97) +
             ", '" + payload + "')";
    }
    if (!cluster->runtime->Execute(sql).ok()) std::abort();
  }
}

/// Wide fan-out SELECT drained through the merge stack: the row-at-a-time
/// copy-per-row loop this PR replaced (Arg 0) vs the batched NextBatch path
/// that moves whole row runs (Arg 1). items/sec = rows/sec.
void BM_ScanToMergeFanout(benchmark::State& state) {
  MiniCluster cluster(/*cache_capacity=*/2048);
  LoadSbtest(&cluster, 10000);
  bool batched = state.range(0) != 0;
  int64_t drained = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto r = cluster.runtime->Execute("SELECT c FROM sbtest");
    if (!r.ok()) std::abort();
    std::vector<Row> rows;
    state.ResumeTiming();
    if (batched) {
      rows = engine::DrainResultSet(r->result_set.get());
    } else {
      Row row;
      while (r->result_set->Next(&row)) rows.push_back(row);
    }
    drained += static_cast<int64_t>(rows.size());
    benchmark::DoNotOptimize(rows);
    state.PauseTiming();
    // Free the drained rows and the shard buffers off the clock: the timed
    // region is the drain itself, not teardown.
    rows = std::vector<Row>();
    r->result_set.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(drained);
  state.SetLabel(batched ? "NextBatch: bulk row moves"
                         : "Next: virtual call + copy per row");
}
BENCHMARK(BM_ScanToMergeFanout)->Arg(0)->Arg(1);

/// One populated storage node for the single-table streaming benchmarks.
struct BigNode {
  explicit BigNode(int rows) {
    node = std::make_unique<engine::StorageNode>("ds_0");
    session = node->OpenSession();
    if (!session->Execute("CREATE TABLE big (id BIGINT PRIMARY KEY, "
                          "k BIGINT, c VARCHAR(80))", {}).ok()) {
      std::abort();
    }
    const int kPerStmt = 500;
    const std::string payload(48, 'y');
    for (int base = 0; base < rows; base += kPerStmt) {
      std::string sql = "INSERT INTO big (id, k, c) VALUES ";
      int n = std::min(kPerStmt, rows - base);
      for (int i = 0; i < n; ++i) {
        int id = base + i;
        if (i > 0) sql += ", ";
        // Multiplicative hash scatters k so ORDER BY k is a real sort.
        sql += "(" + std::to_string(id) + ", " +
               std::to_string((id * 2654435761u) % 1000000) + ", '" + payload +
               "')";
      }
      if (!session->Execute(sql, {}).ok()) std::abort();
    }
  }

  std::unique_ptr<engine::StorageNode> node;
  std::unique_ptr<engine::StorageNode::Session> session;
};

/// Bounded top-k (TopKStable) vs full stable_sort + truncate over the same
/// keyed rows — the executor's ORDER BY ... LIMIT inner loop.
void BM_TopKVsSortTruncate(benchmark::State& state) {
  bool topk = state.range(0) != 0;
  const size_t kN = 100000, kK = 10;
  std::vector<std::pair<Row, Row>> source;
  source.reserve(kN);
  for (size_t i = 0; i < kN; ++i) {
    auto k = static_cast<int64_t>((i * 2654435761u) % 1000000);
    source.emplace_back(Row{Value(k)}, Row{Value(static_cast<int64_t>(i))});
  }
  auto less = [](const std::pair<Row, Row>& a, const std::pair<Row, Row>& b) {
    return a.first[0].Compare(b.first[0]) < 0;
  };
  for (auto _ : state) {
    state.PauseTiming();
    auto rows = source;
    state.ResumeTiming();
    if (topk) {
      engine::TopKStable(&rows, kK, less);
    } else {
      std::stable_sort(rows.begin(), rows.end(), less);
      rows.resize(kK);
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kN));
  state.SetLabel(topk ? "bounded heap, O(n log k)"
                      : "stable_sort + truncate, O(n log n)");
}
BENCHMARK(BM_TopKVsSortTruncate)->Arg(0)->Arg(1);

/// End-to-end top-k ORDER BY LIMIT on one node: the streaming scan cursor
/// feeds a bounded heap.
void BM_TopKOrderBy(benchmark::State& state) {
  BigNode big(50000);
  for (auto _ : state) {
    auto r = big.session->Execute(
        "SELECT id, k FROM big ORDER BY k LIMIT 10", {});
    if (!r.ok()) std::abort();
    auto rows = engine::DrainResultSet(r->result_set.get());
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("streaming: scan cursor + bounded top-k heap");
}
BENCHMARK(BM_TopKOrderBy);

/// Paginated SELECT with a large offset: the streaming path skips
/// unprojected rows and stops at offset+count.
void BM_PaginatedSelect(benchmark::State& state) {
  BigNode big(50000);
  for (auto _ : state) {
    auto r = big.session->Execute("SELECT id, c FROM big LIMIT 45000, 10", {});
    if (!r.ok()) std::abort();
    auto rows = engine::DrainResultSet(r->result_set.get());
    if (rows.size() != 10) std::abort();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("streaming: skip offset unprojected, stop at 45010");
}
BENCHMARK(BM_PaginatedSelect);

// ---------- Write-path fast lane (DESIGN.md §10) ----------

/// Parameterized single-row INSERT through the full sharding pipeline: the
/// rewritten AST and the per-unit parameter slice ship in-process; no text is
/// rendered and the node never parses (the label reports node parses, which
/// must stay 0). Inserted rows are swept out of band every 1024 iterations.
void BM_DmlPassThroughVsReparse(benchmark::State& state) {
  MiniCluster cluster(/*cache_capacity=*/2048);
  int64_t id = 1000;
  for (auto _ : state) {
    auto r = cluster.runtime->Execute(
        "INSERT INTO sbtest (id, k, c) VALUES (?, ?, 'p')",
        {Value(id), Value(id)});
    if (!r.ok()) std::abort();
    if ((++id & 1023) == 0) {
      state.PauseTiming();
      if (!cluster.runtime->Execute("DELETE FROM sbtest WHERE id >= 1000").ok()) {
        std::abort();
      }
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
  int64_t misses = 0;
  for (const auto& n : cluster.nodes) misses += n->parse_cache_misses();
  state.SetLabel("structured: AST pass-through, node parses=" +
                 std::to_string(misses));
}
BENCHMARK(BM_DmlPassThroughVsReparse);

/// Point UPDATE over 100k rows, WHERE on column k. Arg(1): k carries a
/// secondary index, so the DML lane resolves the row set in O(log n) under
/// one writer section. Arg(0): no index — the same lane walks a full-scan
/// cursor under that writer section, the cost every point UPDATE paid
/// before indexes (and what WHERE on any unindexed column still pays).
void BM_PointUpdateIndexVsScan(benchmark::State& state) {
  BigNode big(100000);
  bool indexed = state.range(0) != 0;
  if (indexed &&
      !big.session->Execute("CREATE INDEX idx_k ON big (k)", {}).ok()) {
    std::abort();
  }
  uint32_t i = 0;
  for (auto _ : state) {
    uint32_t id = (++i * 7919u) % 100000u;
    auto k = static_cast<int64_t>((id * 2654435761u) % 1000000u);
    auto r = big.session->Execute("UPDATE big SET c = 'z' WHERE k = ?",
                                  {Value(k)});
    if (!r.ok()) std::abort();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(indexed ? "index lookup, O(log n) row resolution"
                         : "baseline: full scan of 100k rows per UPDATE");
}
BENCHMARK(BM_PointUpdateIndexVsScan)->Arg(0)->Arg(1);

// ---------- Memory discipline (DESIGN.md §12) ----------

/// Sets state.counters["allocs_per_query"] from a before/after reading of the
/// global allocation counter. Call Start() after warmup, Stop() right after
/// the timed loop.
class AllocMeter {
 public:
  void Start() { start_ = bench::AllocationCount(); }
  void Stop(benchmark::State& state) {
    auto delta = static_cast<double>(bench::AllocationCount() - start_);
    state.counters["allocs_per_query"] =
        benchmark::Counter(delta / static_cast<double>(state.iterations()));
  }

 private:
  uint64_t start_ = 0;
};

/// Steady-state point SELECT on the cache-hit path, under statement arenas
/// and pooled batches. allocs_per_query is the acceptance metric: near zero.
void BM_PointSelectAllocs(benchmark::State& state) {
  MiniCluster cluster(/*cache_capacity=*/2048);
  for (int i = 0; i < 64; ++i) {  // warm the caches, arena chunks and pools
    if (!cluster.runtime->Execute(kPointSQL).ok()) std::abort();
  }
  if (std::getenv("SPHERE_ALLOC_TRACE") != nullptr) {
    // Diagnostic run: backtrace every residual allocation in one steady-state
    // query, then continue normally (traces go to stderr).
    bench::SetAllocTrace(true);
    (void)cluster.runtime->Execute(kPointSQL);
    bench::SetAllocTrace(false);
  }
  AllocMeter meter;
  meter.Start();
  for (auto _ : state) {
    auto r = cluster.runtime->Execute(kPointSQL);
    benchmark::DoNotOptimize(r);
  }
  meter.Stop(state);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("arena + pooled rows");
}
BENCHMARK(BM_PointSelectAllocs);

/// Fan-out SELECT drained through the merge stack with the drained batch
/// recycled after consumption — the steady-state drain loop an adaptor runs.
/// Pooled rows reuse their string capacity in place, so per-row string
/// copies do not allocate.
void BM_FanoutDrainAllocs(benchmark::State& state) {
  MiniCluster cluster(/*cache_capacity=*/2048);
  LoadSbtest(&cluster, 10000);
  int64_t drained = 0;
  auto run_once = [&] {
    auto r = cluster.runtime->Execute("SELECT c FROM sbtest");
    if (!r.ok()) std::abort();
    std::vector<Row> rows = engine::DrainResultSet(r->result_set.get());
    drained += static_cast<int64_t>(rows.size());
    benchmark::DoNotOptimize(rows);
    // Close the recycle loop the way an adaptor does: consumed rows return
    // to the pool.
    engine::RecycleRows(std::move(rows));
  };
  for (int i = 0; i < 4; ++i) run_once();  // warm pools to steady state
  AllocMeter meter;
  meter.Start();
  for (auto _ : state) run_once();
  meter.Stop(state);
  state.SetItemsProcessed(drained);
  state.SetLabel("arena + pooled rows");
}
BENCHMARK(BM_FanoutDrainAllocs);

/// One node's share of a sysbench range: a 100-id `BETWEEN ? AND ?` over a
/// 2500-row sbtest-shaped table, taken through the node's parse cache, with
/// the drained rows recycled as an adaptor does. Args: 0 plain, 1 SUM(k),
/// 2 ORDER BY c, 3 DISTINCT c ORDER BY c. allocs_per_query is the node
/// pipeline's footprint for each shape.
void BM_NodeRangeUnit(benchmark::State& state) {
  static const char* const kShapes[] = {
      "SELECT c FROM sbtest WHERE id BETWEEN ? AND ?",
      "SELECT SUM(k) FROM sbtest WHERE id BETWEEN ? AND ?",
      "SELECT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c",
      "SELECT DISTINCT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c"};
  constexpr int kRows = 2500;
  constexpr int kSpan = 100;
  engine::StorageNode node("ds_0");
  auto session = node.OpenSession();
  if (!session->Execute("CREATE TABLE sbtest (id BIGINT PRIMARY KEY, "
                        "k BIGINT, c VARCHAR(120), pad VARCHAR(60))").ok()) {
    std::abort();
  }
  Rng rng(17);
  for (int first = 1; first <= kRows; first += 500) {
    std::string sql = "INSERT INTO sbtest (id, k, c, pad) VALUES ";
    for (int id = first; id < first + 500 && id <= kRows; ++id) {
      if (id != first) sql += ", ";
      sql += "(" + std::to_string(id) + ", " +
             std::to_string(rng.Uniform(1, kRows)) + ", '" +
             rng.RandomString(120) + "', '" + rng.RandomString(60) + "')";
    }
    if (!session->Execute(sql).ok()) std::abort();
  }
  const char* sql = kShapes[state.range(0)];
  int64_t lo = 0;
  auto run_once = [&] {
    lo = (lo + 397) % (kRows - kSpan);
    auto r = session->Execute(sql, {Value(lo + 1), Value(lo + kSpan)});
    if (!r.ok()) std::abort();
    std::vector<Row> rows = engine::DrainResultSet(r->result_set.get());
    benchmark::DoNotOptimize(rows);
    engine::RecycleRows(std::move(rows));
  };
  for (int i = 0; i < 64; ++i) run_once();  // warm the parse cache and pools
  AllocMeter meter;
  meter.Start();
  for (auto _ : state) run_once();
  meter.Stop(state);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodeRangeUnit)->DenseRange(0, 3);

/// Observability overhead on the hottest committed path (cache-hit point
/// SELECT): Arg(0) runs with sampling interval 0 (statement scopes and
/// ScopedSpans must compile down to a thread-local read), Arg(1) with the
/// default sampling interval. The bench_check.py gate holds Arg(1) within 5%
/// of Arg(0).
void BM_ObservabilityOverhead(benchmark::State& state) {
  bool observability = state.range(0) != 0;
  const uint32_t interval =
      observability ? core::RuntimeConfig().trace_sample_interval : 0;
  MiniCluster cluster(/*cache_capacity=*/2048, interval);
  auto warm = cluster.runtime->Execute(kPointSQL);
  if (!warm.ok()) std::abort();
  for (auto _ : state) {
    auto r = cluster.runtime->Execute(kPointSQL);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(observability
                     ? "tracing on, default sampling (1/" +
                           std::to_string(interval) + ")"
                     : "sampling interval 0: thread-local read only");
}
BENCHMARK(BM_ObservabilityOverhead)->Arg(0)->Arg(1);

/// Cached-plan AST copy: the per-execution clone of a cached statement tree.
/// Arg(0): plain heap clone (one operator new per node); Arg(1): clone inside
/// an arena scope — the same Clone() code path bump-allocates every node in
/// one pass through the ArenaManaged base.
void BM_PlanCloneVsArenaCopy(benchmark::State& state) {
  bool arena_copy = state.range(0) != 0;
  auto stmt = sql::ParseSQL(kComplexSQL).value();
  Arena arena;
  AllocMeter meter;
  meter.Start();
  for (auto _ : state) {
    if (arena_copy) {
      ArenaScope scope(&arena);
      auto clone = stmt->Clone();
      benchmark::DoNotOptimize(clone);
      clone.reset();  // delete is a no-op for arena nodes
      arena.Reset();
    } else {
      auto clone = stmt->Clone();
      benchmark::DoNotOptimize(clone);
    }
  }
  meter.Stop(state);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(arena_copy ? "arena: bump-allocated nodes, wholesale reset"
                            : "heap: operator new/delete per node");
}
BENCHMARK(BM_PlanCloneVsArenaCopy)->Arg(0)->Arg(1);

}  // namespace
}  // namespace sphere

// BENCHMARK_MAIN with a default JSON reporter: a full run writes
// BENCH_micro.json (ops/sec via items_per_second) for machines to diff,
// unless the invoker passes an explicit --benchmark_out. A filtered run
// writes no file by default, so it cannot replace the whole-suite baseline
// with a partial one.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--benchmark_out=", 0) == 0) has_out = true;
    if (arg.rfind("--benchmark_filter", 0) == 0) filtered = true;
  }
  if (!has_out && !filtered) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  // Stamp how THIS binary was compiled (the library's own build type is
  // already emitted as "library_build_type"). tools/bench_check.py refuses
  // committed baselines whose project_build_type is not "release" — a debug
  // baseline would let real regressions hide inside the debug slowdown.
#ifdef __OPTIMIZE__
  benchmark::AddCustomContext("project_build_type", "release");
#else
  benchmark::AddCustomContext("project_build_type", "debug");
#endif
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
