#ifndef SPHERE_ENGINE_PIPELINE_H_
#define SPHERE_ENGINE_PIPELINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sphere::engine {

/// Concurrency-control choice for the read path (DESIGN.md §15). Both modes
/// resolve rows against the same snapshot epoch, so results are identical;
/// they differ only in how long readers hold the table latch:
///  - kLatch: a scan holds the table's shared latch end to end (the pre-MVCC
///    blocking profile — writers wait for the whole scan to drain).
///  - kMvcc: the scan cursor takes the shared latch only in short bursts to
///    navigate B+Tree structure, resolving row content from pinned version
///    chains; writers interleave between bursts and never wait on row reads.
enum class ConcurrencyControl { kLatch, kMvcc };

/// Process-wide knobs of the streaming scan-to-merge pipeline (DESIGN.md §9).
/// Each pipeline stage has one lane; what remains here is either a genuine
/// operational choice (batch size, trace sampling, proxy sizing, concurrency
/// control) or a baseline a differential suite still compares against
/// (`streaming`, `proxy_multiplexing`). tools/analyze.py caps the count of
/// these atomics.
///
/// `batch size` bounds how many rows move per NextBatch call between pipeline
/// stages: large enough to amortize a virtual call over many rows, small
/// enough that LIMIT-terminated queries never pull much more than they emit.
///
/// `streaming` gates the storage executor's single-table fast paths (lazy
/// scan cursor, LIMIT early termination, index-order sort elision, bounded
/// top-k). Turning it off restores the fully materializing baseline — the
/// differential tests and benchmarks compare the two, so the baseline must
/// stay behaviorally identical.
class PipelineConfig {
 public:
  static constexpr size_t kDefaultBatchSize = 256;

  static size_t batch_size() {
    return batch_size_.load(std::memory_order_relaxed);
  }
  static void set_batch_size(size_t n) {
    batch_size_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }

  static bool streaming_enabled() {
    return streaming_.load(std::memory_order_relaxed);
  }
  static void set_streaming_enabled(bool on) {
    streaming_.store(on, std::memory_order_relaxed);
  }

  /// Trace sampling interval: every Nth statement grows a span tree that
  /// feeds the stage-latency histograms. 1 traces everything (tests), 0
  /// never samples — the observability-off setting: counters stay on, no
  /// sampler span is ever built; DistSQL `TRACE <sql>` bypasses the sampler
  /// entirely. The default amortizes the span tree's cost (clock
  /// reads, lock round-trips, vector churn) to ~2% of a point-select
  /// statement, holding BM_ObservabilityOverhead inside its 5% gate.
  static constexpr uint32_t kDefaultTraceSampleInterval = 128;
  static uint32_t trace_sample_interval() {
    return trace_sample_interval_.load(std::memory_order_relaxed);
  }
  static void set_trace_sample_interval(uint32_t n) {
    trace_sample_interval_.store(n, std::memory_order_relaxed);
  }

  /// Proxy front-end knobs (DESIGN.md §14). Read once when a ShardingProxy
  /// is constructed — each proxy snapshots them, so a Scoped toggle must
  /// wrap proxy construction, not individual statements.
  ///
  /// `proxy_multiplexing` selects the event-driven front end: statements are
  /// framed, decoded by the reactor and executed by a fixed worker pool that
  /// multiplexes every session, instead of borrowing the client's thread per
  /// statement. Off restores the legacy blocking lane (the differential
  /// baseline).
  static bool proxy_multiplexing_enabled() {
    return proxy_multiplexing_.load(std::memory_order_relaxed);
  }
  static void set_proxy_multiplexing_enabled(bool on) {
    proxy_multiplexing_.store(on, std::memory_order_relaxed);
  }

  /// MaxCon: sessions admitted concurrently per proxy (0 = unlimited).
  static int proxy_max_connections() {
    return proxy_max_connections_.load(std::memory_order_relaxed);
  }
  static void set_proxy_max_connections(int n) {
    proxy_max_connections_.store(n, std::memory_order_relaxed);
  }

  /// Statement worker threads per proxy (0 = auto: hardware concurrency
  /// with a floor of 4, matching SharedThreadPool's sizing rationale).
  static int proxy_worker_threads() {
    return proxy_worker_threads_.load(std::memory_order_relaxed);
  }
  static void set_proxy_worker_threads(int n) {
    proxy_worker_threads_.store(n, std::memory_order_relaxed);
  }

  /// Bound of the proxy's pending-statement queue; enqueue past it fails
  /// fast with ResourceExhausted (statement-level backpressure).
  static constexpr size_t kDefaultProxyQueueDepth = 256;
  static size_t proxy_queue_depth() {
    return proxy_queue_depth_.load(std::memory_order_relaxed);
  }
  static void set_proxy_queue_depth(size_t n) {
    proxy_queue_depth_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }

  /// Read-path concurrency control (see ConcurrencyControl). Default mvcc;
  /// latch keeps the same snapshot semantics with the old locking profile
  /// (the differential baseline).
  static ConcurrencyControl concurrency_control() {
    return static_cast<ConcurrencyControl>(
        concurrency_control_.load(std::memory_order_relaxed));
  }
  static void set_concurrency_control(ConcurrencyControl cc) {
    concurrency_control_.store(static_cast<int>(cc),
                               std::memory_order_relaxed);
  }

 private:
  static std::atomic<size_t> batch_size_;
  static std::atomic<bool> streaming_;
  static std::atomic<uint32_t> trace_sample_interval_;
  static std::atomic<bool> proxy_multiplexing_;
  static std::atomic<int> proxy_max_connections_;
  static std::atomic<int> proxy_worker_threads_;
  static std::atomic<size_t> proxy_queue_depth_;
  static std::atomic<int> concurrency_control_;
};

/// RAII toggle for the read-path concurrency control (latch-vs-mvcc
/// differential tests and the rwmix benchmark); restores the previous mode.
class ScopedConcurrencyControl {
 public:
  explicit ScopedConcurrencyControl(ConcurrencyControl cc)
      : previous_(PipelineConfig::concurrency_control()) {
    PipelineConfig::set_concurrency_control(cc);
  }
  ~ScopedConcurrencyControl() {
    PipelineConfig::set_concurrency_control(previous_);
  }

  ScopedConcurrencyControl(const ScopedConcurrencyControl&) = delete;
  ScopedConcurrencyControl& operator=(const ScopedConcurrencyControl&) = delete;

 private:
  ConcurrencyControl previous_;
};

/// RAII toggle for tests/benchmarks that compare the streaming pipeline with
/// the materializing baseline; restores the previous setting on scope exit.
class ScopedStreamingMode {
 public:
  explicit ScopedStreamingMode(bool on)
      : previous_(PipelineConfig::streaming_enabled()) {
    PipelineConfig::set_streaming_enabled(on);
  }
  ~ScopedStreamingMode() { PipelineConfig::set_streaming_enabled(previous_); }

  ScopedStreamingMode(const ScopedStreamingMode&) = delete;
  ScopedStreamingMode& operator=(const ScopedStreamingMode&) = delete;

 private:
  bool previous_;
};

/// RAII override of the trace sampling interval (tests pin it to 1 to trace
/// deterministically); restores the previous interval.
class ScopedTraceSampling {
 public:
  explicit ScopedTraceSampling(uint32_t interval)
      : previous_(PipelineConfig::trace_sample_interval()) {
    PipelineConfig::set_trace_sample_interval(interval);
  }
  ~ScopedTraceSampling() {
    PipelineConfig::set_trace_sample_interval(previous_);
  }

  ScopedTraceSampling(const ScopedTraceSampling&) = delete;
  ScopedTraceSampling& operator=(const ScopedTraceSampling&) = delete;

 private:
  uint32_t previous_;
};

/// RAII toggle for the event-driven proxy front end. Wrap *construction* of
/// the ShardingProxy under comparison — proxies snapshot the knob.
class ScopedProxyMultiplexing {
 public:
  explicit ScopedProxyMultiplexing(bool on)
      : previous_(PipelineConfig::proxy_multiplexing_enabled()) {
    PipelineConfig::set_proxy_multiplexing_enabled(on);
  }
  ~ScopedProxyMultiplexing() {
    PipelineConfig::set_proxy_multiplexing_enabled(previous_);
  }

  ScopedProxyMultiplexing(const ScopedProxyMultiplexing&) = delete;
  ScopedProxyMultiplexing& operator=(const ScopedProxyMultiplexing&) = delete;

 private:
  bool previous_;
};

/// RAII bundle for the proxy sizing knobs (MaxCon, workers, queue depth);
/// wrap proxy construction, restores all three on exit.
class ScopedProxyFrontEnd {
 public:
  ScopedProxyFrontEnd(int max_connections, int worker_threads,
                      size_t queue_depth)
      : prev_max_connections_(PipelineConfig::proxy_max_connections()),
        prev_worker_threads_(PipelineConfig::proxy_worker_threads()),
        prev_queue_depth_(PipelineConfig::proxy_queue_depth()) {
    PipelineConfig::set_proxy_max_connections(max_connections);
    PipelineConfig::set_proxy_worker_threads(worker_threads);
    PipelineConfig::set_proxy_queue_depth(queue_depth);
  }
  ~ScopedProxyFrontEnd() {
    PipelineConfig::set_proxy_max_connections(prev_max_connections_);
    PipelineConfig::set_proxy_worker_threads(prev_worker_threads_);
    PipelineConfig::set_proxy_queue_depth(prev_queue_depth_);
  }

  ScopedProxyFrontEnd(const ScopedProxyFrontEnd&) = delete;
  ScopedProxyFrontEnd& operator=(const ScopedProxyFrontEnd&) = delete;

 private:
  int prev_max_connections_;
  int prev_worker_threads_;
  size_t prev_queue_depth_;
};

}  // namespace sphere::engine

#endif  // SPHERE_ENGINE_PIPELINE_H_
