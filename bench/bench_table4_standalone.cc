// Reproduces Table IV: standalone comparison on a single server, including
// the Aurora-like shared-storage baselines (sysbench Read Write).
//
// Paper's qualitative result: SSJ beats everything although it uses the same
// single server as MS/PG — sharding into 10 small tables beats one big
// table; Aurora beats the plain standalone databases (its storage fleet
// absorbs IO) but loses to SSJ; SSP pays the proxy and lands at the bottom.
//
// Substitution note: the in-memory engine has no buffer pool, so the
// big-table-vs-small-table IO gap is modeled with per-statement storage
// delays calibrated from the paper's own measured per-statement latencies
// (MS: 348ms/txn over ~16 statements -> ~2ms/stmt; Aurora ~1ms; the 10
// small hot tables ~0.1ms). SSJ shards by range over the dense ids, so
// point and range queries hit exactly one small table. See EXPERIMENTS.md.

#include "bench/bench_common.h"
#include "benchlib/sysbench.h"
#include "common/table_printer.h"

using namespace sphere;           // NOLINT
using namespace sphere::benchlib; // NOLINT

int main() {
  PrintHeader("Table IV — comparison with standalone systems (sysbench)",
              "TPS: MS 574, PG 1287, AuroraMS 2043, AuroraPG ~2000, "
              "SSJ_MS 4751, SSJ_PG 3674, SSP ~380 (worst)");

  SysbenchConfig config;
  config.table_size = 20000;  // paper used 20M here (MS failed at 40M)

  ClusterSpec big_table_spec;
  big_table_spec.data_sources = 1;
  big_table_spec.network = BenchNetwork();
  big_table_spec.node_delay_us = 2000;

  ClusterSpec sharded_spec = big_table_spec;
  sharded_spec.tables_per_source = 10;
  sharded_spec.node_delay_us = 100;
  sharded_spec.max_connections_per_query = 8;
  sharded_spec.sysbench_algorithm = "BOUNDARY_RANGE";

  ClusterSpec aurora_spec = big_table_spec;
  aurora_spec.node_delay_us = 1000;

  SingleNodeCluster ms("MS", big_table_spec);
  if (!ms.SetupSysbench(config).ok()) return 1;
  SingleNodeCluster pg("PG", big_table_spec);
  if (!pg.SetupSysbench(config).ok()) return 1;

  SphereCluster ss_ms(sharded_spec, "MS");
  if (!ss_ms.SetupSysbench(config).ok()) return 1;
  SphereCluster ss_pg(sharded_spec, "PG");
  if (!ss_pg.SetupSysbench(config).ok()) return 1;

  MiddlewareCluster citus({"Citus-like", 75}, sharded_spec);
  if (!citus.SetupSysbench(config).ok()) return 1;

  AuroraCluster aurora_ms("AuroraMS", aurora_spec);
  if (!aurora_ms.SetupSysbench(config).ok()) return 1;
  AuroraCluster aurora_pg("AuroraPG", aurora_spec);
  if (!aurora_pg.SetupSysbench(config).ok()) return 1;

  std::vector<std::pair<std::string, baselines::SqlSystem*>> systems = {
      {"MS", ms.system()},          {"SSJ_MS", ss_ms.jdbc()},
      {"SSP_MS", ss_ms.proxy()},    {"AuroraMS", aurora_ms.system()},
      {"PG", pg.system()},          {"SSJ_PG", ss_pg.jdbc()},
      {"SSP_PG", ss_pg.proxy()},    {"AuroraPG", aurora_pg.system()},
      {"Citus", citus.system()},
  };

  BenchOptions options = DefaultBenchOptions();
  options.threads = 16;
  TablePrinter table({"System", "TPS", "AvgT(ms)", "90T(ms)", "99T(ms)", "err"});
  for (auto& [label, system] : systems) {
    BenchResult r = RunBenchmark(
        system, "Read Write", options,
        [&](baselines::SqlSession* session, Rng* rng) {
          return SysbenchTransaction(session, SysbenchScenario::kReadWrite,
                                     config, rng);
        });
    r.system = label;
    AddResultRow(&table, r);
  }
  table.Print();
  return 0;
}
