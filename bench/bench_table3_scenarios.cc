// Reproduces Table III: distributed systems compared across the four
// sysbench scenarios (Point Select / Read Only / Write Only / Read Write),
// reporting TPS, AvgT and 99T.
//
// Paper's qualitative result to reproduce: SSJ-based systems win every
// scenario by a wide margin; SSP, Vitess, Citus and TiDB form the middle
// pack; CRDB trails. MySQL- and PostgreSQL-flavored deployments behave
// consistently.

#include "bench/bench_common.h"
#include "benchlib/sysbench.h"
#include "common/table_printer.h"

using namespace sphere;           // NOLINT
using namespace sphere::benchlib; // NOLINT

namespace {

void RunScenario(SysbenchScenario scenario, const SysbenchConfig& config,
                 std::vector<std::pair<std::string, baselines::SqlSystem*>> systems) {
  BenchOptions options = DefaultBenchOptions();
  TablePrinter table({"System", "TPS", "AvgT(ms)", "90T(ms)", "99T(ms)", "err"});
  for (auto& [label, system] : systems) {
    BenchResult r = RunBenchmark(
        system, SysbenchScenarioName(scenario), options,
        [&](baselines::SqlSession* session, Rng* rng) {
          return SysbenchTransaction(session, scenario, config, rng);
        });
    r.system = label;
    AddResultRow(&table, r);
  }
  std::printf("--- scenario: %s ---\n", SysbenchScenarioName(scenario));
  table.Print();
}

}  // namespace

int main() {
  PrintHeader("Table III — comparison with distributed systems (sysbench)",
              "SSJ >> {SSP, Vitess, Citus, TiDB} > CRDB in every scenario; "
              "e.g. Read Write TPS: SSJ_MS 19953, SSP_MS 13165, Vitess 11806, "
              "TiDB 12140, CRDB 3150");

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

  // ShardingSphere deployments, MySQL and PostgreSQL flavored.
  SphereCluster ss_ms(spec, "MS");
  if (!ss_ms.SetupSysbench(config).ok()) return 1;
  SphereCluster ss_pg(spec, "PG");
  if (!ss_pg.SetupSysbench(config).ok()) return 1;

  // Proxy middleware baselines.
  MiddlewareCluster vitess({"Vitess-like", 60}, spec);
  if (!vitess.SetupSysbench(config).ok()) return 1;
  MiddlewareCluster citus({"Citus-like", 75}, spec);
  if (!citus.SetupSysbench(config).ok()) return 1;

  // New-architecture databases.
  baselines::RaftDbOptions tidb_options;
  tidb_options.name = "TiDB-like";
  tidb_options.quorum_reads = false;
  RaftDbCluster tidb(tidb_options, spec);
  if (!tidb.SetupSysbench(config).ok()) return 1;

  baselines::RaftDbOptions crdb_options;
  crdb_options.name = "CRDB-like";
  crdb_options.quorum_reads = true;  // pays consistency rounds on reads
  crdb_options.sql_layer_overhead_us = 40;
  RaftDbCluster crdb(crdb_options, spec);
  if (!crdb.SetupSysbench(config).ok()) return 1;

  std::vector<std::pair<std::string, baselines::SqlSystem*>> systems = {
      {"SSJ_MS", ss_ms.jdbc()},   {"SSP_MS", ss_ms.proxy()},
      {"Vitess", vitess.system()}, {"TiDB", tidb.system()},
      {"CRDB", crdb.system()},    {"SSJ_PG", ss_pg.jdbc()},
      {"SSP_PG", ss_pg.proxy()},  {"Citus", citus.system()},
  };

  for (SysbenchScenario scenario :
       {SysbenchScenario::kPointSelect, SysbenchScenario::kReadOnly,
        SysbenchScenario::kWriteOnly, SysbenchScenario::kReadWrite}) {
    RunScenario(scenario, config, systems);
  }
  return 0;
}
