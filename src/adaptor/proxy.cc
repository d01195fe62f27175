#include "adaptor/proxy.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "engine/pipeline.h"
#include "features/guard.h"

namespace sphere::adaptor {

namespace {

/// Process-wide totals across all proxy instances; resolved once (registry
/// pointers are stable for the process lifetime).
metrics::Counter* StatementsTotal() {
  static metrics::Counter* c =
      metrics::Registry::Instance().GetCounter("proxy.statements");
  return c;
}
metrics::Counter* SessionsRejectedTotal() {
  static metrics::Counter* c =
      metrics::Registry::Instance().GetCounter("proxy.sessions.rejected");
  return c;
}
metrics::Counter* StatementsRejectedTotal() {
  static metrics::Counter* c =
      metrics::Registry::Instance().GetCounter("proxy.statements.rejected");
  return c;
}
metrics::Counter* StatementsShedTotal() {
  static metrics::Counter* c =
      metrics::Registry::Instance().GetCounter("proxy.statements.shed");
  return c;
}

/// Worker-pool sizing: the knob, or hardware concurrency floored at 4 (the
/// workers mostly wait on simulated backend I/O, mirroring SharedThreadPool's
/// rationale).
size_t ResolveWorkerThreads() {
  int n = engine::PipelineConfig::proxy_worker_threads();
  if (n > 0) return static_cast<size_t>(n);
  // analyze-exempt(raw-thread): sizing query only; no thread is created.
  unsigned hw = std::thread::hardware_concurrency();
  return hw < 4 ? 4 : hw;
}

}  // namespace

ShardingProxy::ShardingProxy(ShardingDataSource* backend,
                             const net::LatencyModel* client_network)
    : backend_(backend),
      client_network_(client_network),
      multiplexing_(engine::PipelineConfig::proxy_multiplexing_enabled()),
      queue_limit_(engine::PipelineConfig::proxy_queue_depth()),
      queue_wait_hist_(
          metrics::Registry::Instance().GetHistogram("proxy.queue_wait")),
      max_connections_(engine::PipelineConfig::proxy_max_connections()) {
  auto& registry = metrics::Registry::Instance();
  registry.PublishProbe("proxy.workers_busy", this, [this] {
    return static_cast<int64_t>(workers_busy());
  });
  registry.PublishProbe("proxy.sessions.active", this, [this] {
    return static_cast<int64_t>(sessions_active());
  });
  registry.PublishProbe("proxy.sessions.queued", this, [this] {
    MutexLock lk(admission_mu_);
    return static_cast<int64_t>(admission_waiters_);
  });
  registry.PublishProbe("proxy.statements.queued", this, [this] {
    MutexLock lk(queue_mu_);
    return static_cast<int64_t>(queue_.size());
  });
  if (multiplexing_) {
    const size_t n = ResolveWorkerThreads();
    workers_ = std::make_unique<ThreadPool>(n);
    for (size_t i = 0; i < n; ++i) {
      workers_->Submit([this] { WorkerLoop(); });
    }
  }
}

ShardingProxy::~ShardingProxy() {
  metrics::Registry::Instance().UnpublishProbes(this);
  // Set `stopping_` under each waiter's mutex so no predicate evaluation can
  // interleave between the store and the notify (lost-wakeup hazard).
  {
    MutexLock lk(queue_mu_);
    stopping_.store(true, std::memory_order_relaxed);
  }
  queue_cv_.NotifyAll();
  {
    MutexLock lk(admission_mu_);
  }
  admission_cv_.NotifyAll();
  // The loop tasks drain whatever is still queued (completing any waiting
  // clients), then return; the pool destructor joins them.
  workers_.reset();
}

int ShardingProxy::worker_slots_held() const {
  MutexLock lk(worker_mu_);
  return worker_slots_held_;
}

int ShardingProxy::sessions_active() const {
  MutexLock lk(admission_mu_);
  return sessions_active_;
}

void ShardingProxy::CountStatement() {
  statements_.Increment();
  StatementsTotal()->Increment();
}

void ShardingProxy::CountStatementRejected() {
  statements_rejected_.Increment();
  StatementsRejectedTotal()->Increment();
}

void ShardingProxy::set_worker_capacity(int workers) {
  {
    MutexLock lk(worker_mu_);
    worker_capacity_ = workers;
  }
  // Raising capacity admits blocked acquirers; zeroing it releases them
  // slot-less (their wait predicate re-checks the capacity).
  worker_cv_.NotifyAll();
}

void ShardingProxy::set_max_connections(int n) {
  {
    MutexLock lk(admission_mu_);
    max_connections_ = n;
  }
  admission_cv_.NotifyAll();
}

void ShardingProxy::set_admission_wait_ms(int64_t ms) {
  MutexLock lk(admission_mu_);
  admission_wait_ms_ = ms;
}

void ShardingProxy::set_admission_queue_limit(int n) {
  MutexLock lk(admission_mu_);
  admission_queue_limit_ = n;
}

bool ShardingProxy::AcquireWorker() {
  MutexLock lk(worker_mu_);
  if (worker_capacity_ <= 0) return false;
  worker_cv_.Wait(worker_mu_, [&]() SPHERE_REQUIRES(worker_mu_) {
    return worker_capacity_ <= 0 || worker_slots_held_ < worker_capacity_;
  });
  // Capacity may have been zeroed (= unlimited) while we waited: proceed
  // without holding a slot, and tell the caller so release won't decrement.
  if (worker_capacity_ <= 0) return false;
  ++worker_slots_held_;
  return true;
}

void ShardingProxy::ReleaseWorker(bool acquired) {
  if (!acquired) return;
  {
    MutexLock lk(worker_mu_);
    --worker_slots_held_;
  }
  worker_cv_.NotifyOne();
}

// --- admission (MaxCon) -----------------------------------------------------

bool ShardingProxy::AdmitSession() {
  MutexLock lk(admission_mu_);
  auto has_room = [&]() SPHERE_REQUIRES(admission_mu_) {
    return max_connections_ <= 0 || sessions_active_ < max_connections_;
  };
  if (has_room()) {
    ++sessions_active_;
    return true;
  }
  const bool may_wait = admission_wait_ms_ > 0 &&
                        admission_waiters_ < admission_queue_limit_ &&
                        !stopping_.load(std::memory_order_relaxed);
  if (may_wait) {
    const int64_t wait_ms = admission_wait_ms_;
    ++admission_waiters_;
    admission_cv_.WaitFor(admission_mu_, std::chrono::milliseconds(wait_ms),
                          [&]() SPHERE_REQUIRES(admission_mu_) {
                            return has_room() ||
                                   stopping_.load(std::memory_order_relaxed);
                          });
    --admission_waiters_;
    if (!stopping_.load(std::memory_order_relaxed) && has_room()) {
      ++sessions_active_;
      return true;
    }
  }
  sessions_rejected_.Increment();
  SessionsRejectedTotal()->Increment();
  return false;
}

void ShardingProxy::ReleaseSession() {
  {
    MutexLock lk(admission_mu_);
    --sessions_active_;
  }
  admission_cv_.NotifyOne();
}

ShardingProxy::Connection::Connection(ShardingProxy* proxy)
    : proxy_(proxy), admitted_(proxy->AdmitSession()) {
  if (admitted_) {
    backend_ = proxy_->backend_->GetConnection();
  } else {
    state_.store(SessionState::kRejected, std::memory_order_relaxed);
  }
}

ShardingProxy::Connection::~Connection() {
  {
    // Wait out an in-flight statement: the worker is done with this session
    // once it completed the slot (sync: done_ set; async: in_flight_
    // cleared before the callback fires).
    MutexLock lk(mu_);
    cv_.Wait(mu_, [&]() SPHERE_REQUIRES(mu_) { return !in_flight_ || done_; });
  }
  if (admitted_) proxy_->ReleaseSession();
}

// --- front door + reactor path ---------------------------------------------

Status ShardingProxy::FrontDoorAdmit() {
  features::CircuitBreaker* b = breaker();
  if (b != nullptr) {
    if (Status s = b->Admit(); !s.ok()) return s;
  }
  if (features::RateThrottle* t = throttle()) {
    if (Status s = t->Admit(); !s.ok()) {
      // The breaker may have consumed its half-open probe slot for this
      // statement; report the throttle rejection so the slot is returned
      // (conservatively, as a failure — overload keeps the breaker open).
      if (b != nullptr) b->RecordFailure();
      return s;
    }
  }
  return Status::OK();
}

// reactor-context: runs on the submitting thread and must never block — no
// condvar waits, no Transfer, no backend execution.
Status ShardingProxy::OnBytes(Connection* session, std::string_view bytes) {
  // The wire delivers MTU-sized chunks; feed them through the assembler so
  // partial arrivals take the same path as whole packets.
  for (size_t off = 0; off < bytes.size(); off += net::kWireMtuBytes) {
    const size_t n = bytes.size() - off < net::kWireMtuBytes
                         ? bytes.size() - off
                         : net::kWireMtuBytes;
    if (Status fed = session->assembler_.Feed(bytes.substr(off, n));
        !fed.ok()) {
      return fed;
    }
  }
  while (session->assembler_.HasFrame()) {
    std::string frame = session->assembler_.PopFrame();
    auto decoded = net::DecodeRequest(frame);
    if (!decoded.ok()) return decoded.status();
    if (Status queued = AdmitStatement(session, std::move(*decoded));
        !queued.ok()) {
      return queued;
    }
  }
  return Status::OK();
}

// reactor-context: admission accounting and the queue push only; the
// enqueue/dequeue mutex hand-off is what publishes the statement-slot
// fields to the worker.
Status ShardingProxy::AdmitStatement(Connection* session,
                                     net::DecodedRequest request) {
  CountStatement();
  if (Status front = FrontDoorAdmit(); !front.ok()) {
    CountStatementRejected();
    return front;
  }
  session->pending_ = std::move(request);
  session->enqueue_us_ = NowMicros();
  session->trace_ = nullptr;
  session->queued_span_ = nullptr;
  if (trace::Trace* t = trace::Current()) {
    // Capture the client's trace so the worker can resume it; the queued
    // span measures time-to-worker.
    session->trace_ = t;
    session->queued_span_ = t->StartSpan(trace::CurrentSpan(), "proxy.queued");
  }
  bool rejected = false;
  {
    MutexLock lk(queue_mu_);
    if (stopping_.load(std::memory_order_relaxed) ||
        queue_.size() >= queue_limit_) {
      rejected = true;
    } else {
      session->state_.store(SessionState::kQueued, std::memory_order_relaxed);
      queue_.push_back(session);
    }
  }
  if (rejected) {
    if (session->trace_ != nullptr && session->queued_span_ != nullptr) {
      session->trace_->EndSpan(session->queued_span_);
    }
    session->trace_ = nullptr;
    session->queued_span_ = nullptr;
    CountStatementRejected();
    // Queue-full is backpressure the breaker should hear about: sustained
    // overload trips it so later statements shed at the front door.
    if (features::CircuitBreaker* b = breaker()) b->RecordFailure();
    if (stopping_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("proxy is shutting down");
    }
    return Status::ResourceExhausted("proxy statement queue is full");
  }
  queue_cv_.NotifyOne();
  return Status::OK();
}

// --- statement workers ------------------------------------------------------

void ShardingProxy::WorkerLoop() {
  for (;;) {
    Connection* session = nullptr;
    {
      MutexLock lk(queue_mu_);
      queue_cv_.Wait(queue_mu_, [&]() SPHERE_REQUIRES(queue_mu_) {
        return stopping_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopping, and fully drained
      session = queue_.front();
      queue_.pop_front();
    }
    ServeSession(session);
  }
}

void ShardingProxy::ServeSession(Connection* session) {
  const int64_t wait_us = NowMicros() - session->enqueue_us_;
  queue_wait_hist_->Record(wait_us);
  trace::Trace* trace = session->trace_;
  trace::Span* queued_span = session->queued_span_;
  trace::Span* parent = queued_span != nullptr ? queued_span->parent : nullptr;
  session->trace_ = nullptr;
  session->queued_span_ = nullptr;
  if (trace != nullptr && queued_span != nullptr) trace->EndSpan(queued_span);

  // Deadline shedding: a statement that waited past the queue deadline is
  // answered with Unavailable without touching the backend — under overload
  // that work is already useless to the client.
  const int64_t deadline_ms = queue_deadline_ms_.load(std::memory_order_relaxed);
  if (deadline_ms > 0 && wait_us > deadline_ms * 1000) {
    statements_shed_.Increment();
    StatementsShedTotal()->Increment();
    if (features::CircuitBreaker* b = breaker()) b->RecordFailure();
    CompleteStatement(
        session,
        BuildResponse(
            Status::Unavailable("proxy shed statement: queue deadline exceeded"),
            /*framed=*/true),
        wait_us);
    return;
  }

  session->state_.store(SessionState::kExecuting, std::memory_order_relaxed);
  Result<engine::ExecResult> result = Status::Internal("not executed");
  if (trace != nullptr) {
    // Resume the client's trace on this worker so backend spans (route,
    // rewrite, per-unit execute...) nest under the proxy.execute stage.
    trace::Span* exec_span = trace->StartSpan(parent, "proxy.execute");
    {
      trace::TraceScope scope(trace, exec_span);
      result = ExecuteOnBackend(session, session->pending_);
    }
    trace->EndSpan(exec_span);
  } else {
    result = ExecuteOnBackend(session, session->pending_);
  }
  CompleteStatement(session, BuildResponse(std::move(result), /*framed=*/true),
                    wait_us);
}

void ShardingProxy::CompleteStatement(Connection* session,
                                      WireResponse response,
                                      int64_t queue_wait_us) {
  AsyncCallback callback;
  size_t request_bytes = 0;
  {
    MutexLock lk(session->mu_);
    if (session->callback_) {
      callback = std::move(session->callback_);
      session->callback_ = nullptr;
      request_bytes = session->request_bytes_;
      // Async sessions become reusable before the callback runs, so a
      // completion handler may immediately submit the next statement. The
      // notify wakes a destructor waiting out this in-flight statement; it
      // must happen inside the lock (the waiter may free the session), and
      // the callback below must not touch the session afterwards.
      session->in_flight_ = false;
      session->state_.store(SessionState::kIdle, std::memory_order_relaxed);
      session->cv_.NotifyAll();
    } else {
      session->outcome_ = std::move(response.out);
      session->response_bytes_ = response.bytes;
      session->queue_wait_us_ = queue_wait_us;
      session->done_ = true;
      session->state_.store(SessionState::kRespond, std::memory_order_relaxed);
      // Notify while holding the lock: the waiter may destroy the session
      // the moment it observes done_, so no touch after release.
      session->cv_.NotifyAll();
    }
  }
  if (callback) {
    client_network_->Account(response.bytes);
    AsyncOutcome outcome;
    outcome.result = std::move(response.out);
    outcome.request_bytes = request_bytes;
    outcome.response_bytes = response.bytes;
    outcome.queue_wait_us = queue_wait_us;
    callback(std::move(outcome));
  }
}

// --- shared execution core (both lanes) -------------------------------------

Result<engine::ExecResult> ShardingProxy::ExecuteOnBackend(
    Connection* session, const net::DecodedRequest& req) {
  if (req.type != net::PacketType::kQuery) {
    return Status::InvalidArgument("proxy front end expects query packets");
  }
  const bool slot = AcquireWorker();
  executing_.fetch_add(1, std::memory_order_relaxed);
  auto result = session->backend_->ExecuteSQL(req.sql, req.params);
  executing_.fetch_sub(1, std::memory_order_relaxed);
  ReleaseWorker(slot);
  if (features::CircuitBreaker* b = breaker()) {
    if (result.ok()) {
      b->RecordSuccess();
    } else {
      b->RecordFailure();
    }
  }
  return result;
}

ShardingProxy::WireResponse ShardingProxy::BuildResponse(
    Result<engine::ExecResult> result, bool framed) {
  const size_t frame_overhead = framed ? net::kFrameHeaderBytes : 0;
  if (!result.ok()) {
    return WireResponse{
        result.status(),
        net::EncodedErrorSize(result.status()) + frame_overhead};
  }
  // Skip the encode/decode round-trip but charge the byte-identical packet
  // size (falls through for streaming results whose size isn't known
  // without draining).
  if (std::optional<size_t> size =
          net::TryEncodedExecResultSize(result.value())) {
    return WireResponse{std::move(result), *size + frame_overhead};
  }
  std::string encoded = net::EncodeExecResult(&result.value());
  return WireResponse{net::DecodeResponse(encoded),
                      encoded.size() + frame_overhead};
}

// --- client-facing entry points ---------------------------------------------

Result<engine::ExecResult> ShardingProxy::Connection::Execute(
    std::string_view sql_text, const std::vector<Value>& params) {
  if (!admitted_) {
    Status err = Status::Unavailable(
        "proxy refused connection: too many connections (MaxCon)");
    proxy_->CountStatementRejected();
    proxy_->client_network_->Transfer(
        net::EncodedErrorSize(err) +
        (proxy_->multiplexing_ ? net::kFrameHeaderBytes : 0));
    return err;
  }
  return proxy_->multiplexing_ ? ExecuteMultiplexed(sql_text, params)
                               : ExecuteBlocking(sql_text, params);
}

Result<engine::ExecResult> ShardingProxy::Connection::ExecuteMultiplexed(
    std::string_view sql_text, const std::vector<Value>& params) {
  // Client -> proxy: the framed command packet crosses the client network.
  std::string framed = net::FramePacket(net::EncodeQuery(sql_text, params));
  proxy_->client_network_->Transfer(framed.size());
  {
    MutexLock lk(mu_);
    if (in_flight_) {
      return Status::Internal(
          "proxy session already has a statement in flight");
    }
    in_flight_ = true;
    done_ = false;
    callback_ = nullptr;
    request_bytes_ = framed.size();
  }
  state_.store(SessionState::kDecode, std::memory_order_relaxed);
  if (Status submitted = proxy_->OnBytes(this, framed); !submitted.ok()) {
    {
      MutexLock lk(mu_);
      in_flight_ = false;
    }
    state_.store(SessionState::kIdle, std::memory_order_relaxed);
    proxy_->client_network_->Transfer(net::EncodedErrorSize(submitted) +
                                      net::kFrameHeaderBytes);
    return submitted;
  }
  // Wait for a statement worker to complete the slot, then charge the
  // response's trip back.
  Result<engine::ExecResult> out = Status::Internal("statement not completed");
  size_t response_bytes = 0;
  {
    MutexLock lk(mu_);
    cv_.Wait(mu_, [&]() SPHERE_REQUIRES(mu_) { return done_; });
    out = std::move(outcome_);
    outcome_ = Status::Internal("statement not completed");
    response_bytes = response_bytes_;
    done_ = false;
    in_flight_ = false;
  }
  state_.store(SessionState::kIdle, std::memory_order_relaxed);
  proxy_->client_network_->Transfer(response_bytes);
  return out;
}

Result<engine::ExecResult> ShardingProxy::Connection::ExecuteBlocking(
    std::string_view sql_text, const std::vector<Value>& params) {
  // Skip the request encode/decode round-trip but charge the byte-identical
  // packet size on the client network, so the wire cost model sees exactly
  // the encoded packet.
  proxy_->client_network_->Transfer(net::EncodedQuerySize(sql_text, params));
  net::DecodedRequest request;
  request.type = net::PacketType::kQuery;
  request.sql = std::string(sql_text);
  request.params = params;
  proxy_->CountStatement();
  if (Status front = proxy_->FrontDoorAdmit(); !front.ok()) {
    proxy_->CountStatementRejected();
    proxy_->client_network_->Transfer(net::EncodedErrorSize(front));
    return front;
  }
  auto result = proxy_->ExecuteOnBackend(this, request);
  // Proxy -> client: result (or error) packet crosses back.
  WireResponse response =
      proxy_->BuildResponse(std::move(result), /*framed=*/false);
  proxy_->client_network_->Transfer(response.bytes);
  return std::move(response.out);
}

void ShardingProxy::ExecuteAsync(Connection* session,
                                 std::string_view sql_text,
                                 const std::vector<Value>& params,
                                 AsyncCallback done) {
  if (!session->admitted_) {
    Status err = Status::Unavailable(
        "proxy refused connection: too many connections (MaxCon)");
    CountStatementRejected();
    AsyncOutcome outcome;
    outcome.response_bytes = net::EncodedErrorSize(err) + net::kFrameHeaderBytes;
    client_network_->Account(outcome.response_bytes);
    outcome.result = std::move(err);
    done(std::move(outcome));
    return;
  }
  std::string framed = net::FramePacket(net::EncodeQuery(sql_text, params));
  client_network_->Account(framed.size());
  bool busy = false;
  {
    MutexLock lk(session->mu_);
    if (session->in_flight_) {
      busy = true;
    } else {
      session->in_flight_ = true;
      session->done_ = false;
      session->callback_ = std::move(done);
      session->request_bytes_ = framed.size();
    }
  }
  if (busy) {
    AsyncOutcome outcome;
    outcome.request_bytes = framed.size();
    outcome.result =
        Status::Internal("proxy session already has a statement in flight");
    done(std::move(outcome));
    return;
  }
  session->state_.store(SessionState::kDecode, std::memory_order_relaxed);
  if (Status submitted = OnBytes(session, framed); !submitted.ok()) {
    AsyncCallback callback;
    {
      MutexLock lk(session->mu_);
      callback = std::move(session->callback_);
      session->callback_ = nullptr;
      session->in_flight_ = false;
      session->cv_.NotifyAll();
    }
    session->state_.store(SessionState::kIdle, std::memory_order_relaxed);
    AsyncOutcome outcome;
    outcome.request_bytes = framed.size();
    outcome.response_bytes =
        net::EncodedErrorSize(submitted) + net::kFrameHeaderBytes;
    client_network_->Account(outcome.response_bytes);
    outcome.result = std::move(submitted);
    if (callback) callback(std::move(outcome));
  }
}

}  // namespace sphere::adaptor
