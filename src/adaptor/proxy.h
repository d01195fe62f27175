#ifndef SPHERE_ADAPTOR_PROXY_H_
#define SPHERE_ADAPTOR_PROXY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "adaptor/jdbc.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "net/framing.h"
#include "net/packet.h"

namespace sphere::features {
class CircuitBreaker;
class RateThrottle;
}  // namespace sphere::features

namespace sphere::adaptor {

/// The proxy adaptor (paper's ShardingSphere-Proxy): a stand-alone server
/// between applications and the data sources, speaking the simulated database
/// wire protocol. Clients of any language connect to it like to a MySQL /
/// PostgreSQL server; the price is one extra protocol round trip plus
/// serialization per statement — exactly the SSJ-vs-SSP gap measured in the
/// paper's evaluation.
///
/// Front end (DESIGN.md §14): by default the proxy is event-driven. Client
/// statements are framed, reassembled and decoded by non-blocking reactor
/// code on the submitting thread, then queued for a fixed pool of statement
/// workers that multiplexes every session — thousands of mostly-idle
/// sessions cost queue entries, not blocked threads (the paper's MaxCon
/// experiment, Fig. 15). Admission control caps concurrent sessions
/// (MaxCon), a bounded statement queue rejects excess load fast, and a
/// queue deadline sheds requests that waited too long to still matter.
/// `PipelineConfig::proxy_multiplexing` restores the legacy
/// thread-per-statement lane as the differential baseline.
///
/// The proxy shares one ShardingDataSource backend, so all client connections
/// share its connection pools (the pooling advantage §VII-A mentions).
class ShardingProxy {
 public:
  /// `client_network` models the app <-> proxy link. Publishes
  /// `proxy.workers_busy`, `proxy.sessions.{active,queued}` and
  /// `proxy.statements.queued` gauge probes for its lifetime (last proxy
  /// wins if several coexist, as in capacity tests).
  ShardingProxy(ShardingDataSource* backend,
                const net::LatencyModel* client_network);
  ~ShardingProxy();

  ShardingProxy(const ShardingProxy&) = delete;
  ShardingProxy& operator=(const ShardingProxy&) = delete;

  /// Per-session statement lifecycle (one statement in flight per session).
  enum class SessionState : uint8_t {
    kIdle,       ///< admitted, no statement in flight
    kDecode,     ///< request bytes arriving / being reassembled
    kQueued,     ///< decoded, waiting for a statement worker
    kExecuting,  ///< on a worker, running against the backend
    kRespond,    ///< response built, waiting for the client to consume it
    kRejected,   ///< admission refused this session (MaxCon)
  };

  /// Completion of one ExecuteAsync statement. `result` is the decoded
  /// response; the byte counts are what crossed the client wire (framed),
  /// already accounted on the latency model but NOT slept — the caller owns
  /// scheduling the simulated delays (LatencyModel::DelayMicros).
  struct AsyncOutcome {
    Result<engine::ExecResult> result{Status::Internal("not completed")};
    size_t request_bytes = 0;
    size_t response_bytes = 0;
    int64_t queue_wait_us = 0;
  };
  /// Runs on a statement worker (or inline on rejection); must not block.
  using AsyncCallback = std::function<void(AsyncOutcome)>;

  /// One client connection: its transaction state lives in the proxy-side
  /// backend connection, like a server session. Construction performs
  /// admission (MaxCon): past the cap the session joins a bounded admission
  /// queue for at most the admission deadline, then lands in kRejected —
  /// every Execute on it fails with Unavailable, like a MySQL
  /// ER_CON_COUNT_ERROR handshake.
  ///
  /// A session is single-client: one thread (or one async completion chain)
  /// drives it at a time.
  class Connection {
   public:
    explicit Connection(ShardingProxy* proxy);
    ~Connection();

    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /// Full frontend round trip: encode the command, cross the wire, let the
    /// proxy decode and execute it, encode the response, cross back. In the
    /// multiplexed lane the calling thread only pays the wire and the wait;
    /// decode runs as reactor code and execution on a statement worker.
    Result<engine::ExecResult> Execute(std::string_view sql_text,
                                       const std::vector<Value>& params = {});

    bool admitted() const { return admitted_; }
    SessionState state() const {
      return state_.load(std::memory_order_relaxed);
    }
    ShardingConnection* backend() { return backend_.get(); }

   private:
    friend class ShardingProxy;

    Result<engine::ExecResult> ExecuteMultiplexed(
        std::string_view sql_text, const std::vector<Value>& params);
    Result<engine::ExecResult> ExecuteBlocking(
        std::string_view sql_text, const std::vector<Value>& params);

    ShardingProxy* const proxy_;
    const bool admitted_;
    // analyze-exempt(guarded-by): set once at admission, then touched only
    // by whichever thread holds this session's statement slot.
    std::unique_ptr<ShardingConnection> backend_;  ///< null when rejected
    // analyze-exempt(guarded-by): fed only from the session's single
    // submitting thread (one statement in flight per session).
    net::FrameAssembler assembler_;
    std::atomic<SessionState> state_{SessionState::kIdle};

    // --- statement slot (one in flight) --------------------------------
    // Written by the submitting client before enqueue, read by the worker
    // after dequeue: the queue mutex hand-off orders them, so they need no
    // lock of their own.
    // analyze-exempt(guarded-by): queue-mutex hand-off orders this slot
    net::DecodedRequest pending_;
    // analyze-exempt(guarded-by): queue-mutex hand-off orders this slot
    int64_t enqueue_us_ = 0;
    // analyze-exempt(guarded-by): queue-mutex hand-off orders this slot
    size_t request_bytes_ = 0;
    // analyze-exempt(guarded-by): queue-mutex hand-off orders this slot
    trace::Trace* trace_ = nullptr;
    // analyze-exempt(guarded-by): queue-mutex hand-off orders this slot
    trace::Span* queued_span_ = nullptr;

    mutable Mutex mu_{LockRank::kAdaptor, "adaptor/proxy.session"};
    CondVar cv_;
    bool in_flight_ SPHERE_GUARDED_BY(mu_) = false;
    bool done_ SPHERE_GUARDED_BY(mu_) = false;
    AsyncCallback callback_ SPHERE_GUARDED_BY(mu_);
    Result<engine::ExecResult> outcome_ SPHERE_GUARDED_BY(mu_){
        Status::Internal("statement not completed")};
    size_t response_bytes_ SPHERE_GUARDED_BY(mu_) = 0;
    int64_t queue_wait_us_ SPHERE_GUARDED_BY(mu_) = 0;
  };

  std::unique_ptr<Connection> Connect() {
    return std::make_unique<Connection>(this);
  }

  /// Event-driven submit for reactor-style clients (the C10K bench): never
  /// blocks the caller. Request/response bytes are accounted on the client
  /// network but not slept; `done` fires on a statement worker once the
  /// response is built (inline on rejection). One statement per session at
  /// a time — a second submit while one is in flight fails immediately.
  void ExecuteAsync(Connection* session, std::string_view sql_text,
                    const std::vector<Value>& params, AsyncCallback done);

  /// Caps concurrently executing statements (the proxy process's worker
  /// capacity — the single-proxy bottleneck of paper Fig. 12; 0 = unlimited).
  void set_worker_capacity(int workers) SPHERE_EXCLUDES(worker_mu_);

  /// MaxCon: admitted sessions cap (0 = unlimited). Live — lowering it does
  /// not evict existing sessions, it only gates new admissions.
  void set_max_connections(int n) SPHERE_EXCLUDES(admission_mu_);
  /// How long a session past the cap may wait in the admission queue before
  /// rejection (0 = reject immediately, the default).
  void set_admission_wait_ms(int64_t ms) SPHERE_EXCLUDES(admission_mu_);
  /// Bound of the admission queue itself; waiters past it reject at once.
  void set_admission_queue_limit(int n) SPHERE_EXCLUDES(admission_mu_);
  /// Queued statements older than this are shed un-executed (0 = never).
  void set_queue_deadline_ms(int64_t ms) {
    queue_deadline_ms_.store(ms, std::memory_order_relaxed);
  }

  /// Statement-level guard hooks (features/guard): checked at the front
  /// door, before a statement is queued, so breaker trips and throttle
  /// rejections shed load without consuming queue slots or workers. The
  /// breaker also hears about execution failures/successes. Not owned;
  /// callers keep them alive for the proxy's lifetime (or detach first).
  void set_circuit_breaker(features::CircuitBreaker* breaker) {
    breaker_.store(breaker, std::memory_order_release);
  }
  void set_rate_throttle(features::RateThrottle* throttle) {
    throttle_.store(throttle, std::memory_order_release);
  }

  /// Per-instance shim over the registry counter `proxy.statements`.
  int64_t statements_served() const { return statements_.value(); }
  /// Shim over `proxy.sessions.rejected` (admission refusals).
  int64_t sessions_rejected() const { return sessions_rejected_.value(); }
  /// Shim over `proxy.statements.rejected` (front-door refusals: queue
  /// full, breaker open, throttled, statements on rejected sessions).
  int64_t statements_rejected() const { return statements_rejected_.value(); }
  /// Shim over `proxy.statements.shed` (queue-deadline shedding).
  int64_t statements_shed() const { return statements_shed_.value(); }

  /// Statements currently executing against the backend.
  int workers_busy() const {
    return executing_.load(std::memory_order_relaxed);
  }
  /// Worker-capacity slots currently held (capacity accounting; the
  /// regression surface of the set_worker_capacity toggle bug).
  int worker_slots_held() const SPHERE_EXCLUDES(worker_mu_);
  int sessions_active() const SPHERE_EXCLUDES(admission_mu_);
  bool multiplexing() const { return multiplexing_; }
  size_t queue_depth_limit() const { return queue_limit_; }

 private:
  friend class Connection;

  /// A response ready to cross the client wire: the decoded result the
  /// client will see plus the byte count to charge for it.
  struct WireResponse {
    Result<engine::ExecResult> out;
    size_t bytes = 0;
  };

  // --- admission (MaxCon) ----------------------------------------------
  bool AdmitSession() SPHERE_EXCLUDES(admission_mu_);
  void ReleaseSession() SPHERE_EXCLUDES(admission_mu_);

  // --- reactor path (non-blocking) -------------------------------------
  Status OnBytes(Connection* session, std::string_view bytes)
      SPHERE_EXCLUDES(queue_mu_);
  Status AdmitStatement(Connection* session, net::DecodedRequest request)
      SPHERE_EXCLUDES(queue_mu_);
  Status FrontDoorAdmit();

  // --- statement workers ------------------------------------------------
  void WorkerLoop() SPHERE_EXCLUDES(queue_mu_);
  void ServeSession(Connection* session);
  void CompleteStatement(Connection* session, WireResponse response,
                         int64_t queue_wait_us);

  /// Shared execution core of both lanes: worker-capacity slot, executing
  /// gauge, backend call, breaker feedback.
  Result<engine::ExecResult> ExecuteOnBackend(Connection* session,
                                              const net::DecodedRequest& req);
  /// Shared response building: charges the encoder's byte-identical packet
  /// size without round-tripping bytes, and really encodes and decodes only
  /// results whose size is unknown without a drain (unmaterialized
  /// cursors). `framed` adds the frame header to the byte count.
  WireResponse BuildResponse(Result<engine::ExecResult> result, bool framed);

  /// Takes a worker-capacity slot; false when capacity is unlimited (or was
  /// zeroed mid-wait), meaning no slot is held and release must not
  /// decrement — the per-call state that fixes the toggle accounting bug.
  bool AcquireWorker() SPHERE_EXCLUDES(worker_mu_);
  void ReleaseWorker(bool acquired) SPHERE_EXCLUDES(worker_mu_);

  /// Bumps both the per-instance shim and the process-wide
  /// `proxy.statements` registry counter.
  void CountStatement();
  void CountStatementRejected();

  features::CircuitBreaker* breaker() const {
    return breaker_.load(std::memory_order_acquire);
  }
  features::RateThrottle* throttle() const {
    return throttle_.load(std::memory_order_acquire);
  }

  ShardingDataSource* const backend_;
  const net::LatencyModel* client_network_;

  /// Snapshot of PipelineConfig::proxy_multiplexing at construction.
  const bool multiplexing_;
  /// Statement queue bound (PipelineConfig::proxy_queue_depth snapshot).
  const size_t queue_limit_;

  std::atomic<features::CircuitBreaker*> breaker_{nullptr};
  std::atomic<features::RateThrottle*> throttle_{nullptr};

  // analyze-exempt(guarded-by): internally synchronized (striped atomics)
  metrics::Counter statements_;
  // analyze-exempt(guarded-by): internally synchronized (striped atomics)
  metrics::Counter sessions_rejected_;
  // analyze-exempt(guarded-by): internally synchronized (striped atomics)
  metrics::Counter statements_rejected_;
  // analyze-exempt(guarded-by): internally synchronized (striped atomics)
  metrics::Counter statements_shed_;
  Histogram* const queue_wait_hist_;  ///< registry-owned `proxy.queue_wait`

  // --- worker-capacity semaphore (both lanes) ---------------------------
  mutable Mutex worker_mu_{LockRank::kAdaptor, "adaptor/proxy.worker"};
  CondVar worker_cv_;
  int worker_capacity_ SPHERE_GUARDED_BY(worker_mu_) = 0;  ///< 0 = unlimited
  int worker_slots_held_ SPHERE_GUARDED_BY(worker_mu_) = 0;
  std::atomic<int> executing_{0};

  // --- session admission (MaxCon) ---------------------------------------
  mutable Mutex admission_mu_{LockRank::kAdaptor, "adaptor/proxy.admission"};
  CondVar admission_cv_;
  int max_connections_ SPHERE_GUARDED_BY(admission_mu_);  ///< 0 = unlimited
  int sessions_active_ SPHERE_GUARDED_BY(admission_mu_) = 0;
  int admission_waiters_ SPHERE_GUARDED_BY(admission_mu_) = 0;
  int admission_queue_limit_ SPHERE_GUARDED_BY(admission_mu_) = 64;
  int64_t admission_wait_ms_ SPHERE_GUARDED_BY(admission_mu_) = 0;

  // --- statement queue + workers (multiplexed lane) ---------------------
  mutable Mutex queue_mu_{LockRank::kAdaptor, "adaptor/proxy.queue"};
  CondVar queue_cv_;
  std::deque<Connection*> queue_ SPHERE_GUARDED_BY(queue_mu_);
  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> queue_deadline_ms_{0};
  /// Dedicated statement workers. Deliberately NOT SharedThreadPool: its
  /// tasks must stay leaves (executor fan-out latch-joins it), while these
  /// park on the statement queue's condvar for the proxy's lifetime.
  std::unique_ptr<ThreadPool> workers_;
};

}  // namespace sphere::adaptor

#endif  // SPHERE_ADAPTOR_PROXY_H_
