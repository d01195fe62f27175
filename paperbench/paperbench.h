#ifndef SPHERE_PAPERBENCH_PAPERBENCH_H_
#define SPHERE_PAPERBENCH_PAPERBENCH_H_

// Shared declarations of the paper-scenario benchmark: the Table III
// sysbench mixes, run against a cluster the benchmark builds itself from the
// public adaptor constructors. See README.md for what each workload and
// metric is for.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "adaptor/jdbc.h"
#include "adaptor/proxy.h"
#include "common/rng.h"
#include "engine/storage_node.h"
#include "net/latency.h"

namespace sphere::paperbench {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The sysbench mixes of paper Table III that have a workload. Point Select
/// has none: its path is each of read_only's ten point selects per op.
enum class Mix { kReadOnly, kWriteOnly, kReadWrite };

/// Which adaptor the clients call: SSJ (embedded driver) or SSP (proxy).
enum class Adaptor { kJdbc, kProxy };

struct WorkloadSpec {
  const char* name;
  Mix mix;
  Adaptor adaptor;
  bool modeled_lan;  ///< BenchNetwork() wire model instead of Zero()
  int clients;       ///< closed-loop client threads (one connection each)
  int warmup_ops;    ///< per client, part of set-up
};

/// Null when `name` is not a workload.
const WorkloadSpec* FindWorkload(std::string_view name);

inline bool HasWrites(Mix mix) {
  return mix == Mix::kWriteOnly || mix == Mix::kReadWrite;
}

// ---------------------------------------------------------------------------
// Cluster and data
// ---------------------------------------------------------------------------

constexpr int kDataSources = 4;
constexpr int kTablesPerSource = 10;  ///< the paper's "10 tables per source"
constexpr int64_t kTableSize = 100000;
constexpr int64_t kRangeSize = 100;
constexpr int kMaxConnectionsPerQuery = 8;
constexpr size_t kCLength = 32;
constexpr size_t kPadLength = 16;

/// The modeled LAN of the paper benches (bench/bench_common.h BenchNetwork).
inline net::NetworkConfig LanNetwork() { return net::NetworkConfig{40, 4}; }

/// FNV-1a; the answer checks compare hashes of `c` instead of the strings.
uint64_t HashC(std::string_view c);

/// What the table holds, as the benchmark generated it. `k` and `c_hash` are
/// indexed by id (slot 0 unused). Writers update only the slots of ids they
/// own, so the arrays are shared without locks. The prefix sums are taken
/// after loading and serve the read-only mix, which never writes.
struct Dataset {
  std::vector<int64_t> k;
  std::vector<uint64_t> c_hash;
  std::vector<int64_t> k_prefix;       ///< sum of k over ids [1, i]
  std::vector<uint64_t> c_hash_prefix;  ///< wrapping sum of c_hash over [1, i]

  int64_t KSum(int64_t lo, int64_t hi) const {
    return k_prefix[static_cast<size_t>(hi)] - k_prefix[static_cast<size_t>(lo - 1)];
  }
  uint64_t CHashSum(int64_t lo, int64_t hi) const {
    return c_hash_prefix[static_cast<size_t>(hi)] -
           c_hash_prefix[static_cast<size_t>(lo - 1)];
  }
};

/// One deployment: 4 storage nodes x 10 sbtest tables MOD-sharded on id,
/// the embedded data source over them and, for SSP workloads, the proxy in
/// front of it with its own client-side latency model.
class Cluster {
 public:
  /// Builds the cluster and loads kTableSize rows generated from `seed`.
  static std::unique_ptr<Cluster> Build(const WorkloadSpec& spec, uint64_t seed,
                                        Dataset* data, std::string* error);

  adaptor::ShardingDataSource* data_source() { return ds_.get(); }
  adaptor::ShardingProxy* proxy() { return proxy_.get(); }
  const net::LatencyModel& client_network() const { return client_network_; }
  const std::vector<std::unique_ptr<engine::StorageNode>>& nodes() const {
    return nodes_;
  }

 private:
  explicit Cluster(const WorkloadSpec& spec);

  // Declaration order is teardown order reversed: the proxy goes first, the
  // nodes last.
  std::vector<std::unique_ptr<engine::StorageNode>> nodes_;
  std::unique_ptr<adaptor::ShardingDataSource> ds_;
  net::LatencyModel client_network_;
  std::unique_ptr<adaptor::ShardingProxy> proxy_;
};

// ---------------------------------------------------------------------------
// Sessions: how a client reaches the cluster
// ---------------------------------------------------------------------------

/// One statement's answer, drained inside the timed op: the first column of
/// every row as text (the `c` values, or the single aggregate) — everything
/// the answer checks look at. Slots are reused across statements.
struct Answer {
  bool is_query = false;
  int64_t affected = 0;
  size_t rows = 0;
  std::vector<std::string> c;  ///< c[0, rows) are this answer's
};

/// A client connection. Implementations: the embedded driver and the proxy
/// (cluster.cc), and the traced replays of both (traced.cc).
class Session {
 public:
  virtual ~Session() = default;
  /// Runs one statement and drains its result into `*answer`.
  virtual Status Execute(std::string_view sql, const std::vector<Value>& params,
                         Answer* answer) = 0;
};

/// An untraced session on the workload's adaptor.
std::unique_ptr<Session> OpenSession(Cluster* cluster);

/// Drains `result` into `answer` (shared by every session kind).
void DrainInto(engine::ExecResult result, Answer* answer);

/// A running sum and its number of terms, added to from any thread.
struct Tally {
  std::atomic<int64_t> sum{0};
  std::atomic<int64_t> count{0};

  void Add(int64_t value) {
    sum.fetch_add(value, std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_relaxed);
  }
  /// sum / count, 0 when nothing was added.
  double Mean() const {
    int64_t n = count.load();
    return n == 0 ? 0.0 : static_cast<double>(sum.load()) / static_cast<double>(n);
  }
};

/// What the traced sessions time, summed over every client of a phase.
/// Times are nanoseconds of wall clock on the calling thread.
struct LayerTotals {
  Tally parse;           ///< ShardingRuntime::GetOrParse
  Tally route;           ///< RouteEngine::Route (sum: ns)
  Tally route_units;     ///< units per route
  Tally rewrite;         ///< RewriteEngine::Rewrite
  Tally execute;         ///< ExecutionEngine::Execute
  Tally strict;          ///< per Execute: 1 when connection-strictly mode
  Tally dispatch_wait;   ///< Execute entry -> the unit's BeforeUnit
  Tally unit;            ///< BeforeUnit -> AfterUnit
  Tally merge;           ///< MergeEngine::Merge plus the full drain
  Tally merge_rows_in;   ///< per merge: rows of the per-unit results
  Tally merge_rows_out;  ///< per merge: rows drained from the merged result
  Tally commit;          ///< DistributedTransaction::Commit
  Tally participants;    ///< per commit: enlisted data sources
  Tally proxy_stmt;      ///< ShardingProxy::Connection::Execute

  /// Layer time of the pieces a statement passes through, summed.
  int64_t LayerSumNs() const {
    return parse.sum.load() + route.sum.load() + rewrite.sum.load() +
           execute.sum.load() + merge.sum.load() + commit.sum.load() +
           proxy_stmt.sum.load();
  }
};

/// A traced session: for SSJ workloads it replays each statement through the
/// public pieces ShardingConnection::ExecutePlanned composes, timing each;
/// for SSP workloads it times the proxy round trip. Results are identical to
/// OpenSession's.
std::unique_ptr<Session> OpenTracedSession(Cluster* cluster, LayerTotals* totals);

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

/// Generates the statements of one client from its seed and checks their
/// answers against the dataset.
class Client {
 public:
  Client(const WorkloadSpec& spec, int index, uint64_t seed, Dataset* data);

  /// Runs one op (a statement, or a BEGIN ... COMMIT transaction). Returns
  /// false when a statement failed, keeping the first error in `*error`.
  /// A wrong answer does not fail the op; it is kept in wrong().
  bool RunOp(Session* session, std::string* error);

  /// The first answer that failed a check, or empty.
  const std::string& wrong() const { return wrong_; }

 private:
  /// A row image this op wrote, applied to the dataset once COMMIT succeeds.
  struct PendingWrite {
    int64_t id;
    int64_t k;
    uint64_t c_hash;
  };

  int64_t AnyId() { return rng_.Uniform(1, kTableSize); }
  int64_t OwnId();
  int64_t RangeStart() { return rng_.Uniform(1, kTableSize - kRangeSize + 1); }
  /// True when this client is the only writer of `id`.
  bool Owns(int64_t id) const;
  /// The row as this op last left it.
  PendingWrite Current(int64_t id) const;

  Status PointSelect(Session* session);
  Status Ranges(Session* session);
  Status Writes(Session* session);
  Status Statement(Session* session, std::string_view sql,
                   const std::vector<Value>& params);
  void Wrong(std::string what);

  const WorkloadSpec& spec_;
  const int index_;
  Dataset* data_;
  Rng rng_;
  Answer answer_;
  std::vector<Value> params_;
  std::string sql_;
  std::vector<PendingWrite> pending_;
  std::string wrong_;
};

/// Latency samples kept per client and phase.
constexpr size_t kReservoirPerClient = size_t{1} << 18;
/// A sample packs the op's one-second window above its latency in ns.
constexpr int kWindowShift = 48;
constexpr uint64_t kLatencyMask = (uint64_t{1} << kWindowShift) - 1;
constexpr int64_t kWindowNs = 1000000000;

/// Result of one closed-loop phase across all clients.
struct PhaseResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0;
  double cpu_s = 0;                  ///< process user + sys over the phase
  std::vector<int64_t> window_ops;   ///< ops completed in each whole second
  std::vector<double> window_cpu_s;  ///< process CPU in each whole second
  std::vector<uint64_t> samples;     ///< uniform latency sample, packed
  std::string first_error;
  int wrong_clients = 0;  ///< clients that saw a wrong answer
  std::string first_wrong;
};

/// The end-to-end figures of a phase.
struct PhaseStats {
  double throughput_ops_s = 0;  ///< median over windows
  double cpu_us_per_op = 0;     ///< median over windows
  double p50_ms = 0;            ///< median over windows of the window's p50
  double p99_ms = 0;            ///< nearest rank over every sample
  double mean_us = 0;           ///< mean over every sample
  int64_t samples = 0;
  int64_t tail = 0;  ///< samples beyond p99
};

PhaseStats Summarize(const PhaseResult& phase);

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// Runs spec.clients closed-loop clients (no think time) until `seconds`
/// have passed or each has run `ops_per_client` ops (0 = no limit).
/// `open(i)` opens client i's session; `seed` fixes every statement stream.
PhaseResult RunPhase(const WorkloadSpec& spec, Dataset* data, uint64_t seed,
                     double seconds, int64_t ops_per_client,
                     const std::function<std::unique_ptr<Session>(int)>& open);

/// Post-run invariants: COUNT(*) == kTableSize, COUNT(DISTINCT id) ==
/// COUNT(*), SUM(k) == the dataset's. Empty string when they hold.
std::string CheckFinalState(Cluster* cluster, const Dataset& data);

}  // namespace sphere::paperbench

#endif  // SPHERE_PAPERBENCH_PAPERBENCH_H_
