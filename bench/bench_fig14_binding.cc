// Reproduces Fig. 14: the effect of binding tables on a two-table join.
//
// Paper's qualitative result: joining binding tables is about 10x faster
// than joining "common" (non-binding) tables — the binding route sends one
// pairwise join per shard while the cartesian route crosses every pair of
// actual tables within each data source.

#include "bench/bench_common.h"
#include "common/strings.h"
#include "common/table_printer.h"

using namespace sphere;           // NOLINT
using namespace sphere::benchlib; // NOLINT

namespace {

/// Builds a cluster where both join tables have 20 shards spread 10-per-node
/// over 2 nodes: a full binding join routes 20 pairwise units, a cartesian
/// join 2 * 10 * 10 = 200 — the ~10x of the paper.
std::unique_ptr<SphereCluster> BuildCluster(bool binding, int64_t rows) {
  ClusterSpec spec;
  spec.data_sources = 2;
  spec.tables_per_source = 10;
  spec.network = BenchNetwork();
  spec.max_connections_per_query = 32;
  auto cluster = std::make_unique<SphereCluster>(spec, "MS");

  core::ShardingRuleConfig rule;
  rule.default_data_source = "ds_0";
  for (const char* table : {"t_user", "t_order"}) {
    core::TableRuleConfig t;
    t.logic_table = table;
    t.auto_resources = {"ds_0", "ds_1"};
    t.auto_sharding_count = 20;
    t.table_strategy.columns = {"uid"};
    t.table_strategy.algorithm_type = "MOD";
    t.table_strategy.props.Set("sharding-count", "20");
    rule.tables.push_back(std::move(t));
  }
  if (binding) rule.binding_groups.push_back({"t_user", "t_order"});
  if (!cluster->data_source()->SetRule(std::move(rule)).ok()) return nullptr;

  auto session = cluster->jdbc()->Connect();
  if (!session
           ->Execute("CREATE TABLE t_user (uid BIGINT PRIMARY KEY, "
                     "name VARCHAR(32))")
           .ok()) {
    return nullptr;
  }
  if (!session
           ->Execute("CREATE TABLE t_order (oid BIGINT PRIMARY KEY, "
                     "uid BIGINT, amount DOUBLE)")
           .ok()) {
    return nullptr;
  }
  for (int64_t uid = 0; uid < rows; uid += 50) {
    std::string users = "INSERT INTO t_user (uid, name) VALUES ";
    std::string orders = "INSERT INTO t_order (oid, uid, amount) VALUES ";
    for (int64_t i = uid; i < uid + 50 && i < rows; ++i) {
      if (i > uid) {
        users += ", ";
        orders += ", ";
      }
      users += StrFormat("(%lld, 'u%lld')", static_cast<long long>(i),
                         static_cast<long long>(i));
      orders += StrFormat("(%lld, %lld, %lld.0)", static_cast<long long>(i),
                          static_cast<long long>(i), static_cast<long long>(i));
    }
    if (!session->Execute(users).ok()) return nullptr;
    if (!session->Execute(orders).ok()) return nullptr;
  }
  return cluster;
}

}  // namespace

int main() {
  PrintHeader("Fig. 14 — effects of binding table",
              "binding-table joins ~10x the TPS of common (cartesian) joins");

  constexpr int64_t kRows = 4000;
  auto binding_cluster = BuildCluster(/*binding=*/true, kRows);
  auto common_cluster = BuildCluster(/*binding=*/false, kRows);
  if (binding_cluster == nullptr || common_cluster == nullptr) return 1;

  BenchOptions options = DefaultBenchOptions();
  options.threads = 8;

  TablePrinter table({"Tables", "TPS", "AvgT(ms)", "90T(ms)", "99T(ms)", "err"});
  struct Case {
    const char* label;
    SphereCluster* cluster;
  } cases[] = {{"Binding", binding_cluster.get()},
               {"Common", common_cluster.get()}};
  for (const auto& c : cases) {
    BenchResult r = RunBenchmark(
        c.cluster->jdbc(), "join", options,
        [&](baselines::SqlSession* session, Rng* rng) {
          int64_t lo = rng->Uniform(0, kRows - 50);
          auto res = session->Execute(
              "SELECT u.name, o.amount FROM t_user u JOIN t_order o "
              "ON u.uid = o.uid WHERE u.uid BETWEEN ? AND ?",
              {Value(lo), Value(lo + 39)});
          return res.ok() ? Status::OK() : res.status();
        });
    r.system = c.label;
    table.AddRow({c.label, TablePrinter::Fmt(r.tps, 0),
                  TablePrinter::Fmt(r.avg_ms), TablePrinter::Fmt(r.p90_ms),
                  TablePrinter::Fmt(r.p99_ms), std::to_string(r.errors)});
  }
  table.Print();
  return 0;
}
