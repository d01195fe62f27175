#include "common/trace.h"

#include <atomic>
#include <utility>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/table_printer.h"

namespace sphere::trace {

namespace {

thread_local Trace* g_current_trace = nullptr;
thread_local Span* g_current_span = nullptr;
/// Nesting depth of StatementTraceScopes on this thread, so only the
/// outermost one opens a "statement" span (ExecutePlan re-enters
/// ExecuteStatement on the same thread).
thread_local int g_statement_depth = 0;

std::atomic<TraceSink*> g_sink{nullptr};

/// The finished trace a StatementTraceScope left behind for reuse, so
/// steady-state sampling recycles one trace (and its arena chunks) per
/// thread instead of paying malloc on every sampled statement.
thread_local std::unique_ptr<Trace> g_spare_trace;

/// Per-thread countdown sampler: the thread's first eligible statement is
/// sampled, then every `interval`-th after it. Thread-local on purpose — a
/// shared counter would bounce a cache line between executor threads on
/// every statement just to decide "no".
bool SamplerFires(uint32_t interval) {
  if (interval == 0) return false;
  if (interval == 1) return true;
  thread_local uint32_t countdown = 0;
  thread_local uint32_t last_interval = 0;
  if (interval != last_interval) {  // knob changed; restart the cycle
    last_interval = interval;
    countdown = 0;
  }
  if (countdown == 0) {
    countdown = interval - 1;
    return true;
  }
  --countdown;
  return false;
}

/// Resolves `stage.<stage>.latency` once per (thread, stage name); the
/// registry hands out process-lifetime pointers, so the cache never goes
/// stale (ResetForTest zeroes histograms in place).
Histogram* StageHistogram(const std::string& stage) {
  struct Entry {
    std::string stage;
    Histogram* hist;
  };
  thread_local std::vector<Entry> cache;
  for (const Entry& e : cache) {
    if (e.stage == stage) return e.hist;
  }
  std::string name;
  name.reserve(stage.size() + 14);
  name += "stage.";
  name += stage;
  name += ".latency";
  Histogram* h = metrics::Registry::Instance().GetHistogram(name);
  cache.push_back(Entry{stage, h});
  return h;
}

}  // namespace

Trace::Trace(std::string_view root_name) {
  int64_t now = NowMicros();
  MutexLock g(mu_);
  root_ = arena_.Create<Span>();
  root_->name.assign(root_name.data(), root_name.size());
  root_->start_us = now;
  span_count_ = 1;
}

// Lock-free on purpose: destruction implies exclusive access (span pointers
// must not outlive the Trace), and the thread-exit destructor of the spare
// trace runs after lockdep's own thread-local state is gone — taking mu_
// there would write into freed memory.
Trace::~Trace() SPHERE_NO_THREAD_SAFETY_ANALYSIS {
  root_ = nullptr;
  arena_.Reset();  // runs Span destructors (strings/vectors)
}

void Trace::ResetForReuse(std::string_view root_name) {
  int64_t now = NowMicros();
  MutexLock g(mu_);
  root_ = nullptr;
  arena_.Reset();  // destroys the old spans; chunks stay allocated
  root_ = arena_.Create<Span>();
  root_->name.assign(root_name.data(), root_name.size());
  root_->start_us = now;
  span_count_ = 1;
}

Span* Trace::StartSpan(Span* parent, std::string_view name) {
  int64_t now = NowMicros();
  MutexLock g(mu_);
  Span* s = arena_.Create<Span>();
  s->name.assign(name.data(), name.size());
  s->start_us = now;
  Span* p = parent != nullptr ? parent : root_;
  s->parent = p;
  s->depth = p != nullptr ? p->depth + 1 : 0;
  if (p != nullptr) p->children.push_back(s);
  ++span_count_;
  return s;
}

void Trace::EndSpan(Span* span) {
  if (span == nullptr) return;
  int64_t now = NowMicros();
  int64_t duration = 0;
  {
    MutexLock g(mu_);
    if (span->duration_us >= 0) return;  // already ended
    span->duration_us = now - span->start_us;
    duration = span->duration_us;
  }
  // Outside mu_: the histogram takes its own (leaf) lock. The pointer comes
  // from a per-thread cache so steady-state EndSpan never allocates.
  StageHistogram(span->name)->Record(duration);
}

void Trace::AddAttr(Span* span, std::string_view key, std::string value) {
  if (span == nullptr) return;
  MutexLock g(mu_);
  span->attrs.push_back(Span::Attr{std::string(key), std::move(value)});
}

int64_t Trace::span_count() const {
  MutexLock g(mu_);
  return span_count_;
}

void Trace::Visit(const std::function<void(const Span&)>& fn) const {
  // Only valid on a quiescent tree (statement finished, workers joined).
  std::function<void(const Span*)> walk = [&](const Span* s) {
    if (s == nullptr) return;
    fn(*s);
    for (const Span* child : s->children) walk(child);
  };
  walk(root_);
}

Trace* Current() { return g_current_trace; }
Span* CurrentSpan() { return g_current_span; }

TraceScope::TraceScope(Trace* t)
    : prev_trace_(g_current_trace),
      prev_span_(g_current_span),
      prev_depth_(g_statement_depth) {
  g_current_trace = t;
  g_current_span = t != nullptr ? t->root() : nullptr;
  g_statement_depth = 0;
}

TraceScope::TraceScope(Trace* t, Span* current)
    : prev_trace_(g_current_trace),
      prev_span_(g_current_span),
      prev_depth_(g_statement_depth) {
  g_current_trace = t;
  g_current_span = current;
  g_statement_depth = 0;
}

TraceScope::~TraceScope() {
  g_current_trace = prev_trace_;
  g_current_span = prev_span_;
  g_statement_depth = prev_depth_;
}

ScopedSpan::ScopedSpan(std::string_view name) {
  Trace* t = g_current_trace;
  if (t == nullptr) return;
  trace_ = t;
  prev_ = g_current_span;
  span_ = t->StartSpan(prev_, name);
  g_current_span = span_;
}

ScopedSpan::~ScopedSpan() {
  if (span_ == nullptr) return;
  trace_->EndSpan(span_);
  g_current_span = prev_;
}

void ScopedSpan::Note(std::string_view key, std::string value) {
  if (span_ == nullptr) return;
  trace_->AddAttr(span_, key, std::move(value));
}

TraceSink* SetTraceSink(TraceSink* sink) { return g_sink.exchange(sink); }

void NotifySink(const Trace& trace) {
  TraceSink* sink = g_sink.load(std::memory_order_acquire);
  if (sink != nullptr) sink->OnTraceComplete(trace);
}

StatementTraceScope::StatementTraceScope(uint32_t sample_interval) {
  Trace* cur = g_current_trace;
  if (cur != nullptr) {
    // Joining a forced (TRACE ...) or outer statement trace.
    if (g_statement_depth == 0) {
      trace_ = cur;
      prev_ = g_current_span;
      span_ = cur->StartSpan(prev_, "statement");
      g_current_span = span_;
    }
    ++g_statement_depth;
    joined_ = true;
    return;
  }
  if (!SamplerFires(sample_interval)) return;
  if (g_spare_trace != nullptr) {
    owned_ = std::move(g_spare_trace);
    owned_->ResetForReuse("statement");
  } else {
    owned_ = std::make_unique<Trace>("statement");
  }
  trace_ = owned_.get();
  span_ = trace_->root();
  g_current_trace = trace_;
  g_current_span = span_;
  g_statement_depth = 1;
}

StatementTraceScope::~StatementTraceScope() {
  if (owned_ != nullptr) {
    trace_->EndSpan(span_);
    g_current_trace = nullptr;
    g_current_span = nullptr;
    g_statement_depth = 0;
    NotifySink(*owned_);
    // Park the trace for the thread's next sampled statement; the sink is
    // done with it (OnTraceComplete is synchronous).
    g_spare_trace = std::move(owned_);
    return;
  }
  if (joined_) --g_statement_depth;
  if (span_ != nullptr) {
    trace_->EndSpan(span_);
    g_current_span = prev_;
  }
}

void StatementTraceScope::Note(std::string_view key, std::string value) {
  if (span_ == nullptr) return;
  trace_->AddAttr(span_, key, std::move(value));
}

std::string RenderTree(const Trace& trace) {
  TablePrinter table({"span", "duration_us", "detail"});
  trace.Visit([&](const Span& s) {
    std::string label(static_cast<size_t>(s.depth) * 2, ' ');
    label += s.name;
    std::string detail;
    for (const Span::Attr& a : s.attrs) {
      if (!detail.empty()) detail += ' ';
      detail += a.key;
      detail += '=';
      detail += a.value;
    }
    table.AddRow({std::move(label),
                  s.duration_us >= 0 ? std::to_string(s.duration_us) : "-",
                  std::move(detail)});
  });
  return table.ToString();
}

}  // namespace sphere::trace
