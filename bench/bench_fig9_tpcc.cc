// Reproduces Fig. 9: TPC-C comparison — overall TPS and the accumulated
// 90th-percentile response time over the five transaction profiles.
//
// Paper's qualitative result: SSJ has the highest TPS and the smallest
// accumulated 90T; SSP trails Vitess/Citus slightly; TiDB accumulates the
// most time (its Delivery takes 1.61s). CRDB errored on native TPC-C.

#include <atomic>
#include <thread>

#include "bench/bench_common.h"
#include "benchlib/tpcc.h"
#include "common/clock.h"
#include "common/table_printer.h"

using namespace sphere;           // NOLINT
using namespace sphere::benchlib; // NOLINT

namespace {

struct TpccRun {
  double tps = 0;
  double accumulated_90t_ms = 0;
  double profile_90t[5] = {0};
  int64_t errors = 0;
};

TpccRun RunTpcc(baselines::SqlSystem* system, const TpccConfig& config,
                const BenchOptions& options) {
  Histogram per_profile[5];
  std::atomic<int64_t> operations{0};
  std::atomic<int64_t> errors{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> recording{false};

  auto worker = [&](int thread_id) {
    auto session = system->Connect();
    Rng rng(options.seed + static_cast<uint64_t>(thread_id) * 1013);
    while (!stop.load(std::memory_order_relaxed)) {
      TpccProfile profile = TpccDrawProfile(&rng);
      int64_t start = NowMicros();
      Status st = TpccTransaction(session.get(), profile, config, &rng);
      int64_t elapsed = NowMicros() - start;
      if (recording.load(std::memory_order_relaxed)) {
        per_profile[static_cast<int>(profile)].Record(elapsed);
        operations.fetch_add(1, std::memory_order_relaxed);
        if (!st.ok()) errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < options.threads; ++t) threads.emplace_back(worker, t);
  SleepMicros(options.warmup_ms * 1000);
  recording = true;
  int64_t start = NowMicros();
  SleepMicros(options.duration_ms * 1000);
  recording = false;
  int64_t measured = NowMicros() - start;
  stop = true;
  for (auto& t : threads) t.join();

  TpccRun run;
  run.tps = static_cast<double>(operations.load()) * 1e6 /
            static_cast<double>(measured);
  run.errors = errors.load();
  for (int p = 0; p < 5; ++p) {
    run.profile_90t[p] = per_profile[p].PercentileMillis(90);
    run.accumulated_90t_ms += run.profile_90t[p];
  }
  return run;
}

}  // namespace

int main() {
  PrintHeader("Fig. 9 — TPC-C comparison",
              "TPS: SSJ highest, then Vitess/Citus ~ SSP, TiDB lowest TPS and "
              "largest accumulated 90T (Delivery-dominated)");

  ClusterSpec spec;
  spec.data_sources = 5;  // paper: 5 data sources, order_line 10x sharded
  spec.tables_per_source = 10;
  spec.network = BenchNetwork();
  spec.max_connections_per_query = 8;

  TpccConfig config;
  config.warehouses = 5;

  SphereCluster ss(spec, "MS");
  if (!ss.SetupTpcc(config).ok()) return 1;
  MiddlewareCluster vitess({"Vitess-like", 60}, spec);
  if (!vitess.SetupTpcc(config).ok()) return 1;
  MiddlewareCluster citus({"Citus-like", 75}, spec);
  if (!citus.SetupTpcc(config).ok()) return 1;
  baselines::RaftDbOptions tidb_options;
  tidb_options.name = "TiDB-like";
  RaftDbCluster tidb(tidb_options, spec);
  if (!tidb.SetupTpcc(config).ok()) return 1;

  BenchOptions options = DefaultBenchOptions();
  options.threads = 8;

  TablePrinter table({"System", "TPS", "acc.90T(ms)", "NewOrder", "Payment",
                      "OrderStatus", "Delivery", "StockLevel", "err"});
  std::vector<std::pair<std::string, baselines::SqlSystem*>> systems = {
      {"SSJ", ss.jdbc()},          {"SSP", ss.proxy()},
      {"Vitess", vitess.system()}, {"Citus", citus.system()},
      {"TiDB", tidb.system()},
  };
  for (auto& [label, system] : systems) {
    TpccRun run = RunTpcc(system, config, options);
    table.AddRow({label, TablePrinter::Fmt(run.tps, 0),
                  TablePrinter::Fmt(run.accumulated_90t_ms),
                  TablePrinter::Fmt(run.profile_90t[0]),
                  TablePrinter::Fmt(run.profile_90t[1]),
                  TablePrinter::Fmt(run.profile_90t[2]),
                  TablePrinter::Fmt(run.profile_90t[3]),
                  TablePrinter::Fmt(run.profile_90t[4]),
                  std::to_string(run.errors)});
  }
  table.Print();
  std::printf("(per-profile columns are 90th-percentile latencies in ms; "
              "acc.90T is their sum, the paper's reported metric)\n");
  return 0;
}
