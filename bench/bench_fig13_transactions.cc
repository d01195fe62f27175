// Reproduces Fig. 13: the effect of the three distributed transaction types
// (sysbench Read Write on SSJ).
//
// Paper's qualitative result: LOCAL (1PC) is fastest; XA pays the prepare
// round (2PC) and comes second; BASE comes last for these short transactions
// — its TC round trips and image queries don't amortize, and results return
// synchronously.

#include "bench/bench_common.h"
#include "benchlib/sysbench.h"
#include "common/table_printer.h"

using namespace sphere;           // NOLINT
using namespace sphere::benchlib; // NOLINT

namespace {

/// A JDBC session pinned to one transaction type.
class TypedJdbcSystem : public baselines::SqlSystem {
 public:
  TypedJdbcSystem(std::string name, adaptor::ShardingDataSource* ds,
                  transaction::TransactionType type)
      : name_(std::move(name)), ds_(ds), type_(type) {}

  const std::string& name() const override { return name_; }
  std::unique_ptr<baselines::SqlSession> Connect() override {
    return std::make_unique<Session>(ds_, type_);
  }

 private:
  class Session : public baselines::SqlSession {
   public:
    Session(adaptor::ShardingDataSource* ds, transaction::TransactionType type)
        : conn_(ds->GetConnection()) {
      (void)conn_->SetTransactionType(type);
    }
    Result<engine::ExecResult> Execute(
        std::string_view sql_text, const std::vector<Value>& params) override {
      return conn_->ExecuteSQL(sql_text, params);
    }

   private:
    std::unique_ptr<adaptor::ShardingConnection> conn_;
  };

  std::string name_;
  adaptor::ShardingDataSource* ds_;
  transaction::TransactionType type_;
};

}  // namespace

int main() {
  PrintHeader("Fig. 13 — effects of transaction types",
              "TPS: LOCAL > XA > BASE; 99T in the reverse order (short "
              "transactions cannot amortize BASE's coordination)");

  ClusterSpec spec;
  spec.data_sources = 4;
  spec.tables_per_source = 10;
  spec.network = BenchNetwork();
  spec.max_connections_per_query = 8;

  SysbenchConfig config;
  config.table_size = 8000;

  SphereCluster ss(spec, "MS");
  if (!ss.SetupSysbench(config).ok()) return 1;

  TablePrinter table({"Threads", "Type", "TPS", "AvgT(ms)", "90T(ms)",
                      "99T(ms)", "err"});
  for (int threads : {1, 4, 16, 64}) {
    for (auto type : {transaction::TransactionType::kLocal,
                      transaction::TransactionType::kXa,
                      transaction::TransactionType::kBase}) {
      TypedJdbcSystem system(transaction::TransactionTypeName(type),
                             ss.data_source(), type);
      BenchOptions options = DefaultBenchOptions();
      options.threads = threads;
      BenchResult r = RunBenchmark(
          &system, "Read Write", options,
          [&](baselines::SqlSession* session, Rng* rng) {
            return SysbenchTransaction(session, SysbenchScenario::kReadWrite,
                                       config, rng);
          });
      table.AddRow({std::to_string(threads),
                    transaction::TransactionTypeName(type),
                    TablePrinter::Fmt(r.tps, 0), TablePrinter::Fmt(r.avg_ms),
                    TablePrinter::Fmt(r.p90_ms), TablePrinter::Fmt(r.p99_ms),
                    std::to_string(r.errors)});
    }
  }
  table.Print();
  return 0;
}
