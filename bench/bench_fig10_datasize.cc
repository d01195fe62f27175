// Reproduces Fig. 10: scalability with data size (sysbench Read Write).
//
// Paper's qualitative result: all systems stay relatively stable up to
// medium sizes, then TPS drops / 99T rises at the largest size (deeper
// index trees -> more storage accesses); SSJ stays on top throughout.

#include "bench/bench_common.h"
#include "benchlib/sysbench.h"
#include "common/table_printer.h"

using namespace sphere;           // NOLINT
using namespace sphere::benchlib; // NOLINT

int main() {
  PrintHeader("Fig. 10 — different data sizes",
              "stable TPS from 20M to 100M rows, degradation at 200M; "
              "SSJ best at every size (rows scaled 1:1000 here)");

  BenchOptions options = DefaultBenchOptions();
  options.threads = 8;
  // Large loads leave allocator/page-cache churn behind; warm until it fades.
  options.warmup_ms = std::max<int64_t>(options.warmup_ms, 500);
  TablePrinter table({"Rows", "System", "TPS", "AvgT(ms)", "90T(ms)",
                      "99T(ms)", "err"});

  for (int64_t rows : {20000, 50000, 100000, 200000}) {
    ClusterSpec spec;
    spec.data_sources = 4;
    spec.tables_per_source = 1;  // paper: 10 per source. Scaled so the scatter
  // width equals the raftdb baseline's region count — on the single
  // measurement core, scatter CPU is not amortized across 32 vCores as in
  // the paper's testbed (EXPERIMENTS.md).
    spec.network = BenchNetwork();
    spec.max_connections_per_query = 8;

    SysbenchConfig config;
    config.table_size = rows;

    SphereCluster ss(spec, "MS");
    if (!ss.SetupSysbench(config).ok()) return 1;
    baselines::RaftDbOptions tidb_options;
    tidb_options.name = "TiDB-like";
    RaftDbCluster tidb(tidb_options, spec);
    if (!tidb.SetupSysbench(config).ok()) return 1;

    std::vector<std::pair<std::string, baselines::SqlSystem*>> systems = {
        {"SSJ_MS", ss.jdbc()}, {"SSP_MS", ss.proxy()}, {"TiDB", tidb.system()}};
    for (auto& [label, system] : systems) {
      BenchResult r = RunBenchmark(
          system, "Read Write", options,
          [&](baselines::SqlSession* session, Rng* rng) {
            return SysbenchTransaction(session, SysbenchScenario::kReadWrite,
                                       config, rng);
          });
      table.AddRow({std::to_string(rows), label, TablePrinter::Fmt(r.tps, 0),
                    TablePrinter::Fmt(r.avg_ms), TablePrinter::Fmt(r.p90_ms),
                    TablePrinter::Fmt(r.p99_ms), std::to_string(r.errors)});
    }
  }
  table.Print();
  return 0;
}
