// Reproduces the paper's MaxCon experiment (Fig. 15) against the
// event-driven proxy front end: a C10K-style sweep of simulated client
// sessions with think time, multiplexed onto a fixed worker pool behind
// connection admission control.
//
// Qualitative result this reproduces: throughput scales with sessions until
// the worker pool saturates (around sessions = a few x workers), then stays
// flat — thousands of mostly-idle sessions cost queue entries, not threads —
// while MaxCon keeps admissions bounded (sessions past the cap are rejected,
// observable via proxy.sessions.rejected). The legacy thread-per-session
// blocking lane runs as a reference at small session counts, where one
// OS thread per session is still affordable.
//
// Machine-readable results land in BENCH_maxcon.json (argv[1] overrides);
// tools/bench_check.py --maxcon gates the committed file: throughput at
// 8 x workers sessions must hold >= 80% of peak, and session rejections
// must be observable at the over-MaxCon point.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "benchlib/sysbench.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "engine/pipeline.h"

using namespace sphere;            // NOLINT
using namespace sphere::benchlib;  // NOLINT

namespace {

constexpr int kWorkers = 8;
constexpr size_t kQueueDepth = 64;
constexpr int kMaxConnections = 2000;
constexpr int64_t kThinkUs = 25000;    ///< per-session think time
constexpr int64_t kBackoffUs = 250000; ///< retry delay after a rejection
constexpr int64_t kQueueDeadlineMs = 250;

const char* kPointSelect = "SELECT c FROM sbtest WHERE id = ?";

struct LaneResult {
  std::string name;
  const char* lane;
  int sessions = 0;
  int admitted = 0;
  int64_t rejected_sessions = 0;
  double tps = 0;
  double p99_ms = 0;
  int64_t queue_full = 0;
  int64_t shed = 0;
  int64_t errors = 0;
};

struct Windows {
  int64_t warmup_us;
  int64_t measure_us;
};

Windows BenchWindows() {
  if (const char* fast = std::getenv("SPHERE_BENCH_FAST"); fast && fast[0] == '1') {
    return {60000, 250000};
  }
  return {200000, 800000};
}

/// One sweep point through the multiplexed front end: an event-driven driver
/// thread fires each session's next statement from a time-ordered heap;
/// completions (on proxy workers) schedule the session's next event after
/// simulated wire delay plus think time. No thread ever blocks per session,
/// so thousands of sessions cost heap entries.
LaneResult RunReactorPoint(SphereCluster* cluster, int target_sessions,
                           int table_size) {
  engine::ScopedProxyMultiplexing multiplexed(true);
  engine::ScopedProxyFrontEnd knobs(kMaxConnections, kWorkers, kQueueDepth);

  LaneResult out;
  out.name = "maxcon/sessions:" + std::to_string(target_sessions);
  out.lane = "reactor";
  out.sessions = target_sessions;

  struct Event {
    int64_t due_us;
    int session;
    bool operator>(const Event& other) const { return due_us > other.due_us; }
  };
  Histogram latency;
  std::atomic<bool> measuring{false};
  std::atomic<int64_t> ok_in_window{0};
  std::atomic<int64_t> errors_in_window{0};
  Mutex m{LockRank::kAdaptor, "bench/maxcon.driver"};
  CondVar cv;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
  uint64_t version = 0;  ///< bumped per heap push; wakes the driver early
  bool stop = false;

  const net::LatencyModel* net = &cluster->data_source()->runtime()->network();
  adaptor::ShardingProxy proxy(cluster->data_source(), net);
  proxy.set_queue_deadline_ms(kQueueDeadlineMs);

  std::vector<std::unique_ptr<adaptor::ShardingProxy::Connection>> sessions;
  std::vector<Rng> rngs;
  sessions.reserve(static_cast<size_t>(target_sessions));
  for (int i = 0; i < target_sessions; ++i) {
    auto conn = proxy.Connect();
    if (conn->admitted()) {
      sessions.push_back(std::move(conn));
      rngs.emplace_back(static_cast<uint64_t>(1000 + i));
    }
    // Rejected sessions are dropped on the floor, as a refused TCP client
    // would be; the admission counter remembers them.
  }
  out.admitted = static_cast<int>(sessions.size());
  out.rejected_sessions = proxy.sessions_rejected();

  auto submit = [&](int idx) {
    int64_t id = rngs[static_cast<size_t>(idx)].Uniform(1, table_size);
    const int64_t submit_us = NowMicros();
    proxy.ExecuteAsync(
        sessions[static_cast<size_t>(idx)].get(), kPointSelect, {Value(id)},
        [&, idx, submit_us](adaptor::ShardingProxy::AsyncOutcome o) {
          const int64_t now = NowMicros();
          // The wire is accounted but not slept in the async lane; fold the
          // simulated transfer delay into latency and the next event time.
          const int64_t wire_us = net->DelayMicros(o.request_bytes) +
                                  net->DelayMicros(o.response_bytes);
          int64_t next_due;
          if (o.result.ok()) {
            if (measuring.load(std::memory_order_relaxed)) {
              ok_in_window.fetch_add(1, std::memory_order_relaxed);
              latency.Record(now - submit_us + wire_us);
            }
            next_due = now + wire_us + kThinkUs;
          } else {
            // Queue-full / shed / shutdown: the client backs off before
            // retrying (the proxy counters classify the rejection).
            if (measuring.load(std::memory_order_relaxed)) {
              errors_in_window.fetch_add(1, std::memory_order_relaxed);
            }
            next_due = now + wire_us + kBackoffUs;
          }
          {
            MutexLock lk(m);
            heap.push(Event{next_due, idx});
            ++version;
          }
          cv.NotifyOne();
        });
  };

  // Stagger session starts across one think interval so the sweep does not
  // open with a synchronized burst.
  {
    const int64_t start = NowMicros();
    MutexLock lk(m);
    for (int i = 0; i < out.admitted; ++i) {
      heap.push(Event{start + (kThinkUs * i) / (out.admitted > 0 ? out.admitted : 1), i});
    }
  }

  std::thread driver([&] {
    std::vector<int> due;
    for (;;) {
      due.clear();
      {
        MutexLock lk(m);
        if (stop) return;
        const int64_t now = NowMicros();
        while (!heap.empty() && heap.top().due_us <= now) {
          due.push_back(heap.top().session);
          heap.pop();
        }
        if (due.empty()) {
          // Sleep until the next due time, waking early if a completion
          // pushes a new (possibly sooner) event or teardown begins.
          const uint64_t seen = version;
          auto changed = [&] { return stop || version != seen; };
          if (heap.empty()) {
            cv.Wait(m, changed);
          } else {
            cv.WaitFor(m, std::chrono::microseconds(heap.top().due_us - now),
                       changed);
          }
          continue;
        }
      }
      // Submit outside the heap lock: a synchronous rejection invokes the
      // completion callback inline, which re-locks to push the retry event.
      for (int idx : due) submit(idx);
    }
  });

  const Windows w = BenchWindows();
  SleepMicros(w.warmup_us);
  const int64_t rejected_before = proxy.statements_rejected();
  const int64_t shed_before = proxy.statements_shed();
  measuring.store(true, std::memory_order_relaxed);
  SleepMicros(w.measure_us);
  measuring.store(false, std::memory_order_relaxed);
  out.queue_full = proxy.statements_rejected() - rejected_before;
  out.shed = proxy.statements_shed() - shed_before;

  {
    MutexLock lk(m);
    stop = true;
  }
  cv.NotifyAll();
  driver.join();
  sessions.clear();  // waits out in-flight statements, releases admissions

  out.tps = static_cast<double>(ok_in_window.load()) /
            (static_cast<double>(w.measure_us) / 1e6);
  out.p99_ms = latency.PercentileMillis(99.0);
  out.errors = errors_in_window.load();
  return out;
}

/// Reference lane: the legacy blocking front end, one OS thread per session.
/// Only run at small session counts — the point of the reactor is that this
/// does not scale.
LaneResult RunBlockingPoint(SphereCluster* cluster, int target_sessions,
                            int table_size) {
  engine::ScopedProxyMultiplexing blocking(false);
  engine::ScopedProxyFrontEnd knobs(kMaxConnections, kWorkers, kQueueDepth);

  LaneResult out;
  out.name = "maxcon_blocking/sessions:" + std::to_string(target_sessions);
  out.lane = "blocking";
  out.sessions = target_sessions;

  adaptor::ShardingProxy proxy(cluster->data_source(),
                               &cluster->data_source()->runtime()->network());
  Histogram latency;
  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> ok_in_window{0};
  std::atomic<int64_t> errors_in_window{0};

  std::vector<std::thread> threads;
  for (int i = 0; i < target_sessions; ++i) {
    threads.emplace_back([&, i] {
      Rng rng(static_cast<uint64_t>(5000 + i));
      auto conn = proxy.Connect();
      if (!conn->admitted()) return;
      while (!stop.load(std::memory_order_relaxed)) {
        int64_t id = rng.Uniform(1, table_size);
        const int64_t start = NowMicros();
        auto r = conn->Execute(kPointSelect, {Value(id)});
        if (measuring.load(std::memory_order_relaxed)) {
          if (r.ok()) {
            ok_in_window.fetch_add(1, std::memory_order_relaxed);
            latency.Record(NowMicros() - start);
          } else {
            errors_in_window.fetch_add(1, std::memory_order_relaxed);
          }
        }
        SleepMicros(kThinkUs);
      }
    });
  }
  out.admitted = target_sessions;

  const Windows w = BenchWindows();
  SleepMicros(w.warmup_us);
  measuring.store(true, std::memory_order_relaxed);
  SleepMicros(w.measure_us);
  measuring.store(false, std::memory_order_relaxed);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  out.rejected_sessions = proxy.sessions_rejected();
  out.tps = static_cast<double>(ok_in_window.load()) /
            (static_cast<double>(w.measure_us) / 1e6);
  out.p99_ms = latency.PercentileMillis(99.0);
  out.errors = errors_in_window.load();
  return out;
}

void WriteJson(const char* path, const std::vector<LaneResult>& results) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"context\": {\n");
#ifdef __OPTIMIZE__
  std::fprintf(f, "    \"project_build_type\": \"release\",\n");
#else
  std::fprintf(f, "    \"project_build_type\": \"debug\",\n");
#endif
  std::fprintf(f, "    \"workers\": %d,\n", kWorkers);
  std::fprintf(f, "    \"queue_depth\": %zu,\n", kQueueDepth);
  std::fprintf(f, "    \"max_connections\": %d,\n", kMaxConnections);
  std::fprintf(f, "    \"think_time_ms\": %lld,\n",
               static_cast<long long>(kThinkUs / 1000));
  std::fprintf(f, "    \"queue_deadline_ms\": %lld\n",
               static_cast<long long>(kQueueDeadlineMs));
  std::fprintf(f, "  },\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const LaneResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"lane\": \"%s\", \"sessions\": %d, "
                 "\"admitted\": %d, \"rejected_sessions\": %lld, "
                 "\"tps\": %.1f, \"p99_ms\": %.3f, "
                 "\"queue_full_rejects\": %lld, \"shed\": %lld, "
                 "\"errors\": %lld}%s\n",
                 r.name.c_str(), r.lane, r.sessions, r.admitted,
                 static_cast<long long>(r.rejected_sessions), r.tps, r.p99_ms,
                 static_cast<long long>(r.queue_full),
                 static_cast<long long>(r.shed),
                 static_cast<long long>(r.errors),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("results written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("Fig. 15 — MaxCon and the C10K front end",
              "TPS saturates at a few x workers and holds flat to thousands "
              "of sessions; past MaxCon, admissions are rejected");

  ClusterSpec spec;
  spec.data_sources = 2;
  spec.tables_per_source = 2;
  spec.network = BenchNetwork();
  // Backend service time dominates so the fixed worker pool (not the
  // storage nodes or the CPU) is the saturating resource.
  spec.node_delay_us = 4000;

  SysbenchConfig config;
  config.table_size = 1000;

  SphereCluster ss(spec, "MS");
  if (!ss.SetupSysbench(config).ok()) return 1;

  std::vector<LaneResult> results;
  TablePrinter table({"Sessions", "Lane", "Admitted", "RejSess", "TPS",
                      "99T(ms)", "QueueFull", "Shed", "err"});
  auto add = [&](const LaneResult& r) {
    results.push_back(r);
    table.AddRow({std::to_string(r.sessions), r.lane,
                  std::to_string(r.admitted),
                  std::to_string(r.rejected_sessions),
                  TablePrinter::Fmt(r.tps, 0), TablePrinter::Fmt(r.p99_ms),
                  std::to_string(r.queue_full), std::to_string(r.shed),
                  std::to_string(r.errors)});
  };

  // The reactor sweep: through saturation (64 = 8 x workers, the gated
  // point) into C10K territory and past MaxCon (2500 > 2000).
  for (int sessions : {8, 16, 32, 64, 256, 1024, 2500}) {
    add(RunReactorPoint(&ss, sessions, config.table_size));
  }
  // Blocking-lane reference, one thread per session: small counts only.
  for (int sessions : {8, 32, 64}) {
    add(RunBlockingPoint(&ss, sessions, config.table_size));
  }
  table.Print();

  WriteJson(argc > 1 ? argv[1] : "BENCH_maxcon.json", results);
  return 0;
}
