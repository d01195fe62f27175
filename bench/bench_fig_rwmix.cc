// Mixed read/write sweep for the MVCC snapshot-read path (DESIGN.md §15):
// reader throughput and tail latency on one storage node as writer threads
// sweep 0 -> 8, under both concurrency-control modes.
//
// The writer lane models a durability window — the span between applying a
// write and it becoming safe to expose, where a real engine waits on the WAL
// fsync. The two modes place that window differently, and that placement is
// the entire experiment:
//
//  - latch ("in-place" engine model): the writer updates rows in place, so
//    the exclusive table latch must span apply + durability wait — a reader
//    admitted mid-window would see a non-durable image. Readers (which in
//    latch mode hold a shared latch for the whole query) stall behind every
//    write's fsync, and the writer-preferring latch turns each queued writer
//    into a reader convoy.
//  - mvcc: the writer installs *pending* versions (brief exclusive latch for
//    the pointer swap only), waits out the fsync with no latch held —
//    pending versions are invisible, so there is nothing to protect — then
//    commits (brief latch again to restamp). Snapshot readers never block on
//    the window; reader throughput should be flat across the writer sweep.
//
// The writer bypasses the executor in the latch lane (raw Table API under a
// bench-held WriterLock): driving SQL UPDATE through the executor would
// self-deadlock, since the executor takes the same WriterLock. In the mvcc
// lane writers are ordinary sessions running BEGIN / UPDATE / [fsync] /
// COMMIT, i.e. the production transaction path.
//
// Readers are self-checking: every scan asserts its snapshot saw exactly the
// full range (COUNT(*) == kScanRows) — a torn read counts as an error.
//
// Machine-readable results land in BENCH_rwmix.json (argv[1] overrides);
// tools/bench_check.py --rwmix gates the committed file: mvcc reader
// throughput at 8 writers must be >= 3x the latch lane's and within 10% of
// its own 0-writer baseline, and the read path must run allocation-free
// (alloc_hook.cc is linked into this binary for allocs_per_query).

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/alloc_hook.h"
#include "bench/bench_common.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "engine/storage_node.h"
#include "storage/table.h"

using namespace sphere;            // NOLINT
using namespace sphere::benchlib;  // NOLINT

namespace {

constexpr int kReaders = 4;
constexpr int64_t kTableSize = 20000;
constexpr int64_t kScanRows = 4000;   ///< rows per reader range scan
constexpr int64_t kFsyncUs = 2000;    ///< simulated WAL fsync (durability window)
constexpr int64_t kThinkUs = 14000;    ///< mean writer think time (randomized)

const char* kScanSql =
    "SELECT COUNT(*), SUM(a) FROM t WHERE id >= ? AND id <= ?";

struct LaneResult {
  std::string name;
  const char* lane;
  int writers = 0;
  double reader_tps = 0;
  double p99_ms = 0;
  int64_t reader_errors = 0;
  int64_t writer_ops = 0;          ///< durable writes in the window
  double allocs_per_query = 0;     ///< heap allocs / reader query (whole process)
};

struct Windows {
  int64_t warmup_us;
  int64_t measure_us;
};

Windows BenchWindows() {
  if (const char* fast = std::getenv("SPHERE_BENCH_FAST"); fast && fast[0] == '1') {
    return {60000, 250000};
  }
  return {250000, 1000000};
}

LaneResult RunPoint(engine::StorageNode* node, storage::Table* table,
                    engine::ConcurrencyControl mode, int writer_threads) {
  node->set_concurrency_control(mode);
  const bool mvcc = mode == engine::ConcurrencyControl::kMvcc;

  LaneResult out;
  out.lane = mvcc ? "mvcc" : "latch";
  out.writers = writer_threads;
  out.name = std::string("rwmix_") + out.lane + "/writers:" +
             std::to_string(writer_threads);

  Histogram latency;
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::atomic<int64_t> ok_in_window{0};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> writes_in_window{0};

  std::vector<std::thread> threads;
  for (int i = 0; i < kReaders; ++i) {
    threads.emplace_back([&, i] {
      Rng rng(static_cast<uint64_t>(100 + i));
      auto session = node->OpenSession();
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t lo = rng.Uniform(1, kTableSize - kScanRows + 1);
        const int64_t t0 = NowMicros();
        auto r = session->Execute(kScanSql, {Value(lo), Value(lo + kScanRows - 1)});
        bool good = r.ok();
        if (good) {
          Row row;
          good = r->result_set->Next(&row) && row.size() == 2 &&
                 row[0].ToInt() == kScanRows;
        }
        if (measuring.load(std::memory_order_relaxed)) {
          if (good) {
            ok_in_window.fetch_add(1, std::memory_order_relaxed);
            latency.Record(NowMicros() - t0);
          } else {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  for (int i = 0; i < writer_threads; ++i) {
    threads.emplace_back([&, i] {
      Rng rng(static_cast<uint64_t>(900 + i));
      auto session = node->OpenSession();
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t pk = rng.Uniform(1, kTableSize);
        bool durable = false;
        if (mvcc) {
          // Production path: pending install (brief latch), un-latched
          // durability wait — the pending version is invisible, nothing to
          // protect — then commit restamp (brief latch).
          durable = session->Execute("BEGIN").ok() &&
                    session->Execute("UPDATE t SET a = a + 1 WHERE id = ?",
                                     {Value(pk)})
                        .ok();
          SleepMicros(kFsyncUs);
          if (session->in_transaction()) {
            durable = session->Execute(durable ? "COMMIT" : "ROLLBACK").ok() &&
                      durable;
          }
        } else {
          // In-place engine model: the update overwrites the only copy of
          // the row, so the exclusive latch spans apply + fsync — readers
          // must not observe the non-durable image.
          WriterLock lk(table->latch());
          const Row* cur = table->Find(Value(pk));
          if (cur != nullptr) {
            Row next = *cur;
            next[1] = Value(next[1].ToInt() + 1);
            durable = table->Update(Value(pk), next).ok();
          }
          SleepMicros(kFsyncUs);
        }
        if (durable && measuring.load(std::memory_order_relaxed)) {
          writes_in_window.fetch_add(1, std::memory_order_relaxed);
        }
        // Randomized think time de-synchronizes the writer fleet.
        SleepMicros(rng.Uniform(kThinkUs / 2, kThinkUs * 3 / 2));
      }
    });
  }

  const Windows w = BenchWindows();
  SleepMicros(w.warmup_us);
  const uint64_t allocs_before = sphere::bench::AllocationCount();
  measuring.store(true, std::memory_order_relaxed);
  SleepMicros(w.measure_us);
  measuring.store(false, std::memory_order_relaxed);
  const uint64_t allocs_after = sphere::bench::AllocationCount();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  const int64_t ok = ok_in_window.load();
  out.reader_tps =
      static_cast<double>(ok) / (static_cast<double>(w.measure_us) / 1e6);
  out.p99_ms = latency.PercentileMillis(99.0);
  out.reader_errors = errors.load();
  out.writer_ops = writes_in_window.load();
  out.allocs_per_query =
      ok > 0 ? static_cast<double>(allocs_after - allocs_before) /
                   static_cast<double>(ok)
             : 0.0;
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
  std::fprintf(f, "    \"readers\": %d,\n", kReaders);
  std::fprintf(f, "    \"table_size\": %lld,\n",
               static_cast<long long>(kTableSize));
  std::fprintf(f, "    \"scan_rows\": %lld,\n",
               static_cast<long long>(kScanRows));
  std::fprintf(f, "    \"fsync_us\": %lld,\n", static_cast<long long>(kFsyncUs));
  std::fprintf(f, "    \"think_us\": %lld\n", static_cast<long long>(kThinkUs));
  std::fprintf(f, "  },\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const LaneResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"lane\": \"%s\", \"writers\": %d, "
                 "\"reader_tps\": %.1f, \"p99_ms\": %.3f, "
                 "\"reader_errors\": %lld, \"writer_ops\": %lld, "
                 "\"allocs_per_query\": %.2f}%s\n",
                 r.name.c_str(), r.lane, r.writers, r.reader_tps, r.p99_ms,
                 static_cast<long long>(r.reader_errors),
                 static_cast<long long>(r.writer_ops), r.allocs_per_query,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("results written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("MVCC read/write mix — readers never block on writers",
              "latch-lane readers collapse behind writer durability windows; "
              "mvcc snapshot readers stay within 10% of their 0-writer "
              "throughput");

  engine::StorageNode node("rw");
  auto admin = node.OpenSession();
  if (!admin
           ->Execute(
               "CREATE TABLE t (id BIGINT PRIMARY KEY, a BIGINT, b BIGINT)")
           .ok()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }
  for (int64_t id = 1; id <= kTableSize; ++id) {
    auto r = admin->Execute("INSERT INTO t VALUES (?, ?, ?)",
                            {Value(id), Value(id % 100), Value(int64_t{0})});
    if (!r.ok()) {
      std::fprintf(stderr, "load failed at %lld\n", static_cast<long long>(id));
      return 1;
    }
  }
  storage::Table* table = node.database()->FindTable("t");
  if (table == nullptr) return 1;

  std::vector<LaneResult> results;
  TablePrinter printer({"Lane", "Writers", "ReaderTPS", "99T(ms)",
                        "WriterOps", "err", "allocs/q"});
  auto add = [&](const LaneResult& r) {
    results.push_back(r);
    printer.AddRow({r.lane, std::to_string(r.writers),
                    TablePrinter::Fmt(r.reader_tps, 0),
                    TablePrinter::Fmt(r.p99_ms), std::to_string(r.writer_ops),
                    std::to_string(r.reader_errors),
                    TablePrinter::Fmt(r.allocs_per_query)});
  };

  for (int writers : {0, 1, 2, 4, 8}) {
    add(RunPoint(&node, table, engine::ConcurrencyControl::kMvcc, writers));
  }
  for (int writers : {0, 1, 2, 4, 8}) {
    add(RunPoint(&node, table, engine::ConcurrencyControl::kLatch, writers));
  }
  printer.Print();

  WriteJson(argc > 1 ? argv[1] : "BENCH_rwmix.json", results);
  return 0;
}
