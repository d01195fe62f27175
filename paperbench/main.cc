// paperbench: the paper's Table III sysbench scenarios as one benchmark.
//
//   paperbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--commit <id>]
//
// Builds its own cluster three times (set-up time is their median), runs the
// workload's closed-loop clients against the last one, checks every answer,
// and prints one JSON object as the last line of stdout: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The line
// before it is a stamp: build type, host CPUs, seed, commit, sample counts.
// Exit codes: 0 measured; 1 a wrong answer (the result says correct=false);
// 2 bad arguments or a non-Release build; 3 too few samples for p99;
// 4 set-up failed.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "paperbench.h"

#ifdef PAPERBENCH_ALLOC_HOOK
#include "bench/alloc_hook.h"
#endif

namespace sphere::paperbench {
namespace {

constexpr int kSetupRuns = 3;
/// p99 must have at least this many samples beyond it.
constexpr int64_t kTailSamples = 10;
/// Ops each half of a traced run must complete.
constexpr int64_t kMinTracedOps = 100;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::string_view(value) == "1";
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Shortest text that reads back as `v`: every digit as measured.
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out + "\"";
}

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Program counters read around the traced phase.
struct Counters {
  int64_t net_messages = 0;
  int64_t net_bytes = 0;
  int64_t client_messages = 0;
  int64_t client_bytes = 0;
  int64_t node_statements = 0;
  int64_t node_parse_hits = 0;
  int64_t node_parse_misses = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t queue_waits = 0;
  double queue_wait_ms_sum = 0;
  int64_t allocations = 0;

  static Counters Read(Cluster* cluster) {
    Counters c;
    const net::LatencyModel& net = cluster->data_source()->runtime()->network();
    c.net_messages = net.messages();
    c.net_bytes = net.bytes_transferred();
    c.client_messages = cluster->client_network().messages();
    c.client_bytes = cluster->client_network().bytes_transferred();
    for (const auto& node : cluster->nodes()) {
      c.node_statements += node->statements_executed();
      c.node_parse_hits += node->parse_cache_hits();
      c.node_parse_misses += node->parse_cache_misses();
    }
    CacheStats cache = cluster->data_source()->runtime()->statement_cache_stats();
    c.cache_hits = static_cast<int64_t>(cache.hits);
    c.cache_misses = static_cast<int64_t>(cache.misses);
    for (const metrics::Sample& s : metrics::Registry::Instance().Snapshot("proxy.queue_wait")) {
      if (s.name == "proxy.queue_wait") {
        c.queue_waits = s.value;
        c.queue_wait_ms_sum = s.avg_ms * static_cast<double>(s.value);
      }
    }
#ifdef PAPERBENCH_ALLOC_HOOK
    c.allocations = static_cast<int64_t>(bench::AllocationCount());
#endif
    return c;
  }
};

int64_t MvccVersions() {
  for (const metrics::Sample& s : metrics::Registry::Instance().Snapshot("storage.mvcc.versions")) {
    if (s.name == "storage.mvcc.versions") return s.value;
  }
  return 0;
}

/// Modeled wire time of `messages` carrying `bytes`, priced the way
/// LatencyModel::DelayMicros prices each one.
double ModeledUs(const net::NetworkConfig& cfg, int64_t messages, int64_t bytes) {
  return static_cast<double>(messages * cfg.hop_latency_us) +
         static_cast<double>(bytes) * static_cast<double>(cfg.per_kb_latency_us) / 1024.0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "paperbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (std::string_view(PAPERBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "paperbench: refusing to measure a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n", PAPERBENCH_BUILD_TYPE);
    return 2;
  }

  // Set-up: cluster build + load + warm-up, several times; the last cluster
  // is the one measured.
  std::unique_ptr<Cluster> cluster;
  Dataset data;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRuns; ++i) {
    cluster.reset();
    const int64_t t0 = NowNs();
    std::string error;
    cluster = Cluster::Build(*spec, args.seed, &data, &error);
    if (cluster == nullptr) {
      std::fprintf(stderr, "paperbench: %s\n", error.c_str());
      return 4;
    }
    PhaseResult warm = RunPhase(*spec, &data, args.seed ^ 0xA5A5A5A5ULL, 1e6, spec->warmup_ops,
                                [&](int) { return OpenSession(cluster.get()); });
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (warm.wrong_clients != 0) {
      std::fprintf(stderr, "paperbench: wrong answer in warm-up: %s\n", warm.first_wrong.c_str());
      PrintResult(false, warm.attempted, warm.failed, {});
      return 1;
    }
    if (warm.failed != 0) {
      std::fprintf(stderr, "paperbench: warm-up failed: %s\n", warm.first_error.c_str());
      return 4;
    }
  }

  // The untraced phase: all of the run, or its first half when tracing.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  PhaseResult phase = RunPhase(*spec, &data, args.seed, untraced_s, 0,
                               [&](int) { return OpenSession(cluster.get()); });
  const int64_t completed = phase.attempted - phase.failed;
  const PhaseStats stats = Summarize(phase);

  LayerTotals totals;
  PhaseResult traced;
  Counters before;
  Counters after;
  if (args.trace) {
    before = Counters::Read(cluster.get());
    // Same seed: the traced half replays the untraced half's statements.
    traced = RunPhase(*spec, &data, args.seed, args.seconds / 2, 0,
                      [&](int) { return OpenTracedSession(cluster.get(), &totals); });
    after = Counters::Read(cluster.get());
  }

  std::string final_error = CheckFinalState(cluster.get(), data);
  const double peak_rss_mb = PeakRssMb();

  const int64_t traced_completed = traced.attempted - traced.failed;
  const int64_t attempted = phase.attempted + traced.attempted;
  const int64_t failed = phase.failed + traced.failed;
  std::string wrong = !phase.first_wrong.empty() ? phase.first_wrong : traced.first_wrong;
  if (wrong.empty()) wrong = final_error;

  // Per-layer figures and the traced-run reconciliation.
  std::vector<Metric> layers;
  if (args.trace) {
    const double ops = static_cast<double>(std::max<int64_t>(traced_completed, 1));
    const net::NetworkConfig& net_cfg =
        cluster->data_source()->runtime()->network().config();
    const net::NetworkConfig& client_cfg = cluster->client_network().config();
    const int64_t messages = after.net_messages - before.net_messages;
    const int64_t bytes = after.net_bytes - before.net_bytes;
    const double modeled_per_op = ModeledUs(net_cfg, messages, bytes) / ops;
    const double client_modeled =
        Ratio(ModeledUs(client_cfg, after.client_messages - before.client_messages,
                        after.client_bytes - before.client_bytes),
              static_cast<double>(totals.proxy_stmt.count.load()));
    const int64_t queue_waits = after.queue_waits - before.queue_waits;
    const double queue_wait_us =
        Ratio((after.queue_wait_ms_sum - before.queue_wait_ms_sum) * 1e3,
              static_cast<double>(queue_waits));
    const int64_t parse_hits = after.node_parse_hits - before.node_parse_hits;
    const int64_t parse_lookups = parse_hits + after.node_parse_misses - before.node_parse_misses;
    const int64_t cache_hits = after.cache_hits - before.cache_hits;
    const int64_t cache_lookups = cache_hits + after.cache_misses - before.cache_misses;
    // Whole-phase throughputs: their ratio is the traced-to-untraced ratio
    // of mean op latencies, whatever the host did between the halves.
    const double overhead =
        Ratio(static_cast<double>(completed) / phase.wall_s,
              static_cast<double>(traced_completed) / traced.wall_s);
    const double layer_sum_us = static_cast<double>(totals.LayerSumNs()) * 1e-3 / ops;
    const double coverage = Ratio(layer_sum_us, stats.mean_us * overhead);
    const double cpu_us_per_op = traced.cpu_s * 1e6 / ops;
    const double us = 1e-3;

    layers = {
        {"core.parse.us", "us", totals.parse.Mean() * us},
        {"core.statement_cache.hit_ratio", "ratio",
         Ratio(static_cast<double>(cache_hits), static_cast<double>(cache_lookups))},
        {"core.route.us", "us", totals.route.Mean() * us},
        {"core.route.units", "count", totals.route_units.Mean()},
        {"core.rewrite.us", "us", totals.rewrite.Mean() * us},
        {"core.execute.us", "us", totals.execute.Mean() * us},
        {"core.execute.dispatch_wait_us", "us", totals.dispatch_wait.Mean() * us},
        {"core.execute.connection_strictly_ratio", "ratio", totals.strict.Mean()},
        {"net.unit_us", "us", totals.unit.Mean() * us},
        {"net.messages_per_op", "count", static_cast<double>(messages) / ops},
        {"net.bytes_per_op", "bytes", static_cast<double>(bytes) / ops},
        {"net.modeled_wait_us_per_op", "us", modeled_per_op},
        {"engine.node_statements_per_op", "count",
         static_cast<double>(after.node_statements - before.node_statements) / ops},
        {"engine.node_parse_cache_hit_ratio", "ratio",
         Ratio(static_cast<double>(parse_hits), static_cast<double>(parse_lookups))},
        {"storage.mvcc.versions", "count", static_cast<double>(MvccVersions())},
        {"core.merge.us", "us", totals.merge.Mean() * us},
        {"core.merge.rows_in_per_row_out", "ratio",
         Ratio(static_cast<double>(totals.merge_rows_in.sum.load()),
               static_cast<double>(totals.merge_rows_out.sum.load()))},
        {"transaction.commit_us", "us", totals.commit.Mean() * us},
        {"transaction.participants", "count", totals.participants.Mean()},
        {"adaptor.proxy.stmt_us", "us", totals.proxy_stmt.Mean() * us},
        {"adaptor.proxy.queue_wait_us", "us", queue_wait_us},
        {"adaptor.proxy.client_modeled_wait_us", "us", client_modeled},
        {"common.allocs_per_op", "count",
         static_cast<double>(after.allocations - before.allocations) / ops},
        {"trace.cpu_us_per_op", "us", cpu_us_per_op},
        {"trace.overhead_ratio", "ratio", overhead},
        {"trace.untraced_op_us", "us", stats.mean_us},
        {"trace.layer_sum_us_per_op", "us", layer_sum_us},
        {"trace.layer_coverage_ratio", "ratio", coverage},
    };

    // Reconciliation. The layer times of a traced op must account for the
    // untraced op latency scaled by the measured tracing overhead, to within
    // the client-side glue no layer covers.
    std::fprintf(stderr,
                 "paperbench: layer sum %.1f us/op vs untraced %.1f us/op "
                 "(coverage %.3f, overhead %.3f)\n",
                 layer_sum_us, stats.mean_us, coverage, overhead);
    if (wrong.empty() && traced_completed > 0 && completed > 0) {
      constexpr double kGlue = 0.15;
      if (coverage < 1 - kGlue || coverage > 1 + kGlue) {
        wrong = "layer times do not account for the op latency";
      }
      if (!spec->modeled_lan && modeled_per_op != 0) {
        wrong = "modeled wire wait on a CPU workload";
      }
      if (spec->modeled_lan) {
        const double stmts_per_op = static_cast<double>(totals.proxy_stmt.count.load()) / ops;
        const double others[] = {cpu_us_per_op, queue_wait_us * stmts_per_op,
                                 client_modeled * stmts_per_op};
        for (double other : others) {
          if (modeled_per_op <= other) wrong = "modeled wire wait is not the largest share";
        }
      }
    }
  }

  std::string window_ops;
  for (int64_t ops : phase.window_ops) {
    window_ops += (window_ops.empty() ? "" : ", ") + std::to_string(ops);
  }
  std::printf(
      "{\"stamp\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"build_type\": %s, \"nproc\": %u, \"commit\": %s, \"clients\": %d, "
      "\"latency_samples\": %lld, \"p99_tail_samples\": %lld, \"setup_runs_s\": [%s, %s, %s], "
      "\"window_ops\": [%s]}}\n",
      Quote(spec->name).c_str(), static_cast<unsigned long long>(args.seed),
      Num(args.seconds).c_str(), args.trace ? 1 : 0, Quote(PAPERBENCH_BUILD_TYPE).c_str(),
      std::thread::hardware_concurrency(), Quote(args.commit).c_str(), spec->clients,
      static_cast<long long>(stats.samples), static_cast<long long>(stats.tail),
      Num(setup_s[0]).c_str(), Num(setup_s[1]).c_str(), Num(setup_s[2]).c_str(),
      window_ops.c_str());

  if (!wrong.empty()) {
    std::fprintf(stderr, "paperbench: wrong answer: %s\n", wrong.c_str());
    PrintResult(false, attempted, failed, {});
    return 1;
  }
  if (!phase.first_error.empty() || !traced.first_error.empty()) {
    std::fprintf(stderr, "paperbench: %lld failed ops, first: %s%s\n",
                 static_cast<long long>(failed), phase.first_error.c_str(),
                 traced.first_error.c_str());
  }
  // Minimum-sample guard: too few ops is an invalid run, never 0 TPS.
  // The traced run reports no percentiles; its halves need enough ops for
  // stable means.
  const bool too_few =
      args.trace ? std::min(completed, traced_completed) < kMinTracedOps
                 : completed == 0 || stats.tail < kTailSamples;
  if (too_few) {
    std::fprintf(stderr,
                 "paperbench: invalid run: %lld ops (%lld traced), %lld samples beyond p99 "
                 "(need %lld); run longer\n",
                 static_cast<long long>(completed), static_cast<long long>(traced_completed),
                 static_cast<long long>(stats.tail), static_cast<long long>(kTailSamples));
    return 3;
  }

  if (args.trace) {
    PrintResult(true, attempted, failed, layers);
    return 0;
  }
  PrintResult(true, attempted, failed,
              {
                  {"throughput_ops_s", "1/s", stats.throughput_ops_s},
                  {"latency_p50_ms", "ms", stats.p50_ms},
                  {"latency_p99_ms", "ms", stats.p99_ms},
                  {"cpu_us_per_op", "us", stats.cpu_us_per_op},
                  {"peak_rss_mb", "MB", peak_rss_mb},
                  {"setup_s", "s", Median(setup_s)},
              });
  return 0;
}

}  // namespace
}  // namespace sphere::paperbench

int main(int argc, char** argv) {
  sphere::paperbench::Args args;
  if (!sphere::paperbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--commit <id>]\n",
                 argv[0]);
    return 2;
  }
  return sphere::paperbench::Run(args);
}
