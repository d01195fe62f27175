// Reproduces Fig. 11: scalability with request concurrency (sysbench
// Read Write).
//
// Paper's qualitative result: TPS rises with thread count and then
// saturates; 99T stays flat at low concurrency and climbs sharply past the
// saturation knee (~200 threads there, earlier here on one host). SSJ leads
// at every concurrency.

#include "bench/bench_common.h"
#include "benchlib/sysbench.h"
#include "common/table_printer.h"

using namespace sphere;           // NOLINT
using namespace sphere::benchlib; // NOLINT

int main() {
  PrintHeader("Fig. 11 — different concurrency",
              "TPS saturates with more threads while 99T shoots up past the "
              "knee; SSJ on top for all thread counts");

  ClusterSpec spec;
  spec.data_sources = 4;
  spec.tables_per_source = 1;  // paper: 10 per source. Scaled so the scatter
  // width equals the raftdb baseline's region count — on the single
  // measurement core, scatter CPU is not amortized across 32 vCores as in
  // the paper's testbed (EXPERIMENTS.md).
  spec.network = BenchNetwork();
  spec.max_connections_per_query = 8;

  SysbenchConfig config;
  config.table_size = 8000;

  SphereCluster ss(spec, "MS");
  if (!ss.SetupSysbench(config).ok()) return 1;
  baselines::RaftDbOptions tidb_options;
  tidb_options.name = "TiDB-like";
  RaftDbCluster tidb(tidb_options, spec);
  if (!tidb.SetupSysbench(config).ok()) return 1;

  TablePrinter table({"Threads", "System", "TPS", "AvgT(ms)", "90T(ms)",
                      "99T(ms)", "err"});
  for (int threads : {1, 2, 4, 8, 16, 32, 64}) {
    BenchOptions options = DefaultBenchOptions();
    options.threads = threads;
    std::vector<std::pair<std::string, baselines::SqlSystem*>> systems = {
        {"SSJ_MS", ss.jdbc()}, {"SSP_MS", ss.proxy()}, {"TiDB", tidb.system()}};
    for (auto& [label, system] : systems) {
      BenchResult r = RunBenchmark(
          system, "Read Write", options,
          [&](baselines::SqlSession* session, Rng* rng) {
            return SysbenchTransaction(session, SysbenchScenario::kReadWrite,
                                       config, rng);
          });
      table.AddRow({std::to_string(threads), label, TablePrinter::Fmt(r.tps, 0),
                    TablePrinter::Fmt(r.avg_ms), TablePrinter::Fmt(r.p90_ms),
                    TablePrinter::Fmt(r.p99_ms), std::to_string(r.errors)});
    }
  }
  table.Print();
  return 0;
}
