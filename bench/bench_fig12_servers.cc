// Reproduces Fig. 12: scalability with the number of data servers
// (sysbench Read Write).
//
// Paper's qualitative result: SSJ's TPS keeps growing with more data
// servers; SSP grows a little and then flattens (the single proxy becomes
// the bottleneck); TiDB needs at least 3 servers and trails.

#include "bench/bench_common.h"
#include "benchlib/sysbench.h"
#include "common/table_printer.h"

using namespace sphere;           // NOLINT
using namespace sphere::benchlib; // NOLINT

int main() {
  PrintHeader("Fig. 12 — different data servers",
              "SSJ TPS grows with servers; SSP flattens after ~3 (proxy "
              "bottleneck); TiDB from 3 servers on, below both");

  SysbenchConfig config;
  config.table_size = 8000;

  TablePrinter table({"Servers", "System", "TPS", "AvgT(ms)", "90T(ms)",
                      "99T(ms)", "err"});
  for (int servers : {1, 2, 3, 4, 6}) {
    ClusterSpec spec;
    spec.data_sources = servers;
    // The dataset (12 shards in total) is fixed; adding servers spreads the
    // same shards wider — the paper's experiment. tables_per_source stays
    // integral for every server count in the sweep.
    spec.tables_per_source = 12 / servers;
    spec.network = BenchNetwork();
    spec.max_connections_per_query = 8;
    // Per-statement storage cost with a bounded per-node disk queue: the
    // benefit of more servers is more IO slots serving the same shard set.
    spec.node_delay_us = 600;
    spec.node_io_slots = 2;

    SphereCluster ss(spec, "MS");
    if (!ss.SetupSysbench(config).ok()) return 1;
    // One proxy process with a fixed worker pool fronts the whole cluster:
    // the bottleneck the paper names for SSP's flattening curve.
    ss.proxy_server()->set_worker_capacity(14);

    std::vector<std::pair<std::string, baselines::SqlSystem*>> systems = {
        {"SSJ_MS", ss.jdbc()}, {"SSP_MS", ss.proxy()}};

    std::unique_ptr<RaftDbCluster> tidb;
    if (servers >= 3) {  // paper: TiDB needs >= 3 data servers for Raft
      baselines::RaftDbOptions tidb_options;
      tidb_options.name = "TiDB-like";
      tidb = std::make_unique<RaftDbCluster>(tidb_options, spec);
      if (!tidb->SetupSysbench(config).ok()) return 1;
      systems.emplace_back("TiDB", tidb->system());
    }

    BenchOptions options = DefaultBenchOptions();
    options.threads = 16;
    // Single-server transactions queue on 2 IO slots and take ~300ms; give
    // every cell a window long enough to observe them.
    options.duration_ms = std::max<int64_t>(options.duration_ms, 900);
    options.warmup_ms = std::max<int64_t>(options.warmup_ms, 300);
    for (auto& [label, system] : systems) {
      BenchResult r = RunBenchmark(
          system, "Read Write", options,
          [&](baselines::SqlSession* session, Rng* rng) {
            return SysbenchTransaction(session, SysbenchScenario::kReadWrite,
                                       config, rng);
          });
      table.AddRow({std::to_string(servers), label, TablePrinter::Fmt(r.tps, 0),
                    TablePrinter::Fmt(r.avg_ms), TablePrinter::Fmt(r.p90_ms),
                    TablePrinter::Fmt(r.p99_ms), std::to_string(r.errors)});
    }
  }
  table.Print();
  return 0;
}
