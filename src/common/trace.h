#ifndef SPHERE_COMMON_TRACE_H_
#define SPHERE_COMMON_TRACE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/mutex.h"

namespace sphere::trace {

/// One node of a statement's span tree. Spans are arena-allocated by their
/// owning Trace and die with it; pointers must not outlive the Trace.
struct Span {
  struct Attr {
    std::string key;
    std::string value;
  };

  std::string name;
  int64_t start_us = 0;
  /// -1 while the span is open; wall-clock micros once ended.
  int64_t duration_us = -1;
  int depth = 0;
  Span* parent = nullptr;
  std::vector<Span*> children;
  std::vector<Attr> attrs;
};

/// A statement's span tree (DESIGN.md §13). Span nodes live in a private
/// arena owned by the trace — deliberately *not* the thread-local statement
/// arena, which is reset before a TRACE renders its tree. Span creation and
/// attribute writes are serialized by an internal leaf-ranked mutex, so
/// executor pool workers may open per-unit child spans concurrently.
///
/// Ending a span feeds the `stage.<name>.latency` histogram in the metrics
/// registry, which is how sampled statements accumulate stage-latency
/// distributions without keeping their trees around.
class Trace {
 public:
  explicit Trace(std::string_view root_name);
  ~Trace();

  /// Rewinds to a fresh one-span tree rooted at `root_name`, destroying the
  /// previous spans but retaining the arena's chunks. All outstanding Span
  /// pointers are invalidated. Lets StatementTraceScope recycle one spare
  /// trace per thread so steady-state sampling never touches malloc.
  void ResetForReuse(std::string_view root_name) SPHERE_EXCLUDES(mu_);

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  Span* root() const { return root_; }

  /// Opens a child span of `parent` (the root when null).
  Span* StartSpan(Span* parent, std::string_view name) SPHERE_EXCLUDES(mu_);
  /// Closes `span`, recording its wall time into the stage histogram.
  void EndSpan(Span* span) SPHERE_EXCLUDES(mu_);
  void AddAttr(Span* span, std::string_view key, std::string value)
      SPHERE_EXCLUDES(mu_);

  int64_t span_count() const SPHERE_EXCLUDES(mu_);

  /// Pre-order walk of the (finished) tree.
  void Visit(const std::function<void(const Span&)>& fn) const;

 private:
  mutable Mutex mu_{LockRank::kCommon, "common/trace"};
  Arena arena_ SPHERE_GUARDED_BY(mu_);
  // analyze-exempt(guarded-by): written under mu_ only in the constructor
  // and ResetForReuse, both before any concurrent reader exists
  Span* root_ = nullptr;
  int64_t span_count_ SPHERE_GUARDED_BY(mu_) = 0;
};

/// The trace recording the calling thread's current statement, or null.
Trace* Current();
/// The innermost open span on this thread (for parenting), or null.
Span* CurrentSpan();

/// Installs `t` as the thread's current trace for a dynamic extent (used by
/// DistSQL TRACE to force-capture one statement). Restores the previous
/// trace/span on exit.
class TraceScope {
 public:
  explicit TraceScope(Trace* t);
  /// Installs `t` with `current` as the thread's current span instead of the
  /// root — how a proxy worker resumes a client's captured trace so backend
  /// spans nest under the worker's own stage span.
  TraceScope(Trace* t, Span* current);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Trace* prev_trace_;
  Span* prev_span_;
  int prev_depth_;
};

/// Kernel-stage helper: opens a child of the thread's current span and makes
/// itself current; a no-op costing one thread-local read when no trace is
/// active. Guard attribute construction with `active()` so untraced
/// statements pay nothing.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return span_ != nullptr; }
  Span* span() const { return span_; }
  void Note(std::string_view key, std::string value);

 private:
  Trace* trace_ = nullptr;
  Span* span_ = nullptr;
  Span* prev_ = nullptr;
};

/// Structural capture hook: receives every completed statement trace
/// (sampled or forced). Used by tests and benches; implementations must be
/// thread-safe.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnTraceComplete(const Trace& trace) = 0;
};

/// Installs `sink` (null clears); returns the previous sink.
TraceSink* SetTraceSink(TraceSink* sink);
/// Delivers a finished trace to the installed sink, if any.
void NotifySink(const Trace& trace);

/// Statement-level driver used by the runtime around each statement:
///  - no trace current + sampler fires → owns a fresh trace for this
///    statement (root span "statement"), uninstalls + notifies the sink on
///    exit;
///  - a trace is already current (TRACE ... or an outer statement scope) →
///    joins it, opening a "statement" span only at the outermost level;
///  - otherwise a no-op.
/// `sample_interval` 0 never samples, 1 samples everything, N every Nth.
class StatementTraceScope {
 public:
  explicit StatementTraceScope(uint32_t sample_interval);
  ~StatementTraceScope();

  StatementTraceScope(const StatementTraceScope&) = delete;
  StatementTraceScope& operator=(const StatementTraceScope&) = delete;

  bool active() const { return span_ != nullptr; }
  Span* span() const { return span_; }
  void Note(std::string_view key, std::string value);

 private:
  std::unique_ptr<Trace> owned_;
  Trace* trace_ = nullptr;
  Span* span_ = nullptr;
  Span* prev_ = nullptr;
  bool joined_ = false;
};

/// Renders a finished trace as a fixed-width table (TablePrinter): one row
/// per span, names indented by depth, attrs joined `k=v`.
std::string RenderTree(const Trace& trace);

}  // namespace sphere::trace

#endif  // SPHERE_COMMON_TRACE_H_
