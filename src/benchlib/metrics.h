#ifndef SPHERE_BENCHLIB_METRICS_H_
#define SPHERE_BENCHLIB_METRICS_H_

#include <functional>
#include <string>
#include <vector>

#include "baselines/system.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/table_printer.h"

namespace sphere::benchlib {

/// Harness knobs (thread count = the paper's request concurrency).
struct BenchOptions {
  int threads = 8;
  int64_t duration_ms = 1200;
  int64_t warmup_ms = 150;
  uint64_t seed = 42;
};

/// One benchmark measurement, matching the paper's reported metrics:
/// TPS, AvgT, and tail latencies (99T for Sysbench, 90T for TPC-C).
struct BenchResult {
  std::string system;
  std::string scenario;
  double tps = 0;
  double avg_ms = 0;
  double p90_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  int64_t operations = 0;
  int64_t errors = 0;
};

/// One benchmark operation ("transaction"): executes against a session using
/// the per-thread RNG; returns its status. Errors are counted, not fatal.
using BenchOp = std::function<Status(baselines::SqlSession*, Rng*)>;

/// Runs `op` from `options.threads` concurrent sessions for the configured
/// duration (after warmup) and aggregates the metrics.
BenchResult RunBenchmark(baselines::SqlSystem* system,
                         const std::string& scenario,
                         const BenchOptions& options, const BenchOp& op);

/// Appends the standard (system, tps, avg, p90, p99, err) row.
void AddResultRow(TablePrinter* table, const BenchResult& r);

}  // namespace sphere::benchlib

#endif  // SPHERE_BENCHLIB_METRICS_H_
