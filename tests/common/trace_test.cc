#include "common/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"

namespace sphere::trace {
namespace {

/// Collects completed traces' structure for assertions.
class RecordingSink : public TraceSink {
 public:
  void OnTraceComplete(const Trace& trace) override {
    completed_.fetch_add(1, std::memory_order_relaxed);
    last_span_count_.store(trace.span_count(), std::memory_order_relaxed);
  }
  int completed() const { return completed_.load(); }
  int64_t last_span_count() const { return last_span_count_.load(); }

 private:
  std::atomic<int> completed_{0};
  std::atomic<int64_t> last_span_count_{0};
};

/// RAII: installs a sink and restores the previous one.
class SinkScope {
 public:
  explicit SinkScope(TraceSink* sink) : prev_(SetTraceSink(sink)) {}
  ~SinkScope() { SetTraceSink(prev_); }

 private:
  TraceSink* prev_;
};

TEST(TraceTest, SpanTreeStructure) {
  Trace tr("root");
  ASSERT_NE(tr.root(), nullptr);
  EXPECT_EQ(tr.root()->name, "root");
  EXPECT_EQ(tr.span_count(), 1);

  Span* a = tr.StartSpan(nullptr, "a");  // null parent -> child of root
  Span* b = tr.StartSpan(a, "b");
  tr.AddAttr(b, "k", "v");
  EXPECT_EQ(a->parent, tr.root());
  EXPECT_EQ(b->parent, a);
  EXPECT_EQ(a->depth, 1);
  EXPECT_EQ(b->depth, 2);
  EXPECT_EQ(tr.span_count(), 3);

  EXPECT_EQ(b->duration_us, -1);  // open until ended
  tr.EndSpan(b);
  EXPECT_GE(b->duration_us, 0);
  tr.EndSpan(b);  // idempotent
  tr.EndSpan(a);

  std::vector<std::string> names;
  tr.Visit([&names](const Span& s) { names.push_back(s.name); });
  EXPECT_EQ(names, (std::vector<std::string>{"root", "a", "b"}));
  ASSERT_EQ(b->attrs.size(), 1u);
  EXPECT_EQ(b->attrs[0].key, "k");
  EXPECT_EQ(b->attrs[0].value, "v");
}

TEST(TraceTest, EndSpanFeedsStageLatencyHistogram) {
  auto& registry = metrics::Registry::Instance();
  Histogram* h = registry.GetHistogram("stage.t_probe_stage.latency");
  int64_t before = h->count();
  Trace tr("root");
  Span* s = tr.StartSpan(nullptr, "t_probe_stage");
  tr.EndSpan(s);
  EXPECT_EQ(h->count(), before + 1);
}

TEST(TraceTest, ScopedSpanIsNoOpWithoutCurrentTrace) {
  ASSERT_EQ(Current(), nullptr);
  ScopedSpan span("orphan");
  EXPECT_FALSE(span.active());
  span.Note("k", "v");  // must not crash
}

TEST(TraceTest, TraceScopeInstallsAndScopedSpanNests) {
  Trace tr("root");
  {
    TraceScope scope(&tr);
    EXPECT_EQ(Current(), &tr);
    EXPECT_EQ(CurrentSpan(), tr.root());
    {
      ScopedSpan outer("outer");
      ASSERT_TRUE(outer.active());
      EXPECT_EQ(CurrentSpan(), outer.span());
      {
        ScopedSpan inner("inner");
        ASSERT_TRUE(inner.active());
        EXPECT_EQ(inner.span()->parent, outer.span());
      }
      EXPECT_EQ(CurrentSpan(), outer.span());
    }
    EXPECT_EQ(CurrentSpan(), tr.root());
  }
  EXPECT_EQ(Current(), nullptr);
  EXPECT_EQ(tr.span_count(), 3);
}

TEST(TraceTest, StatementScopeSamplesAndNotifiesSink) {
  RecordingSink sink;
  SinkScope install(&sink);
  {
    StatementTraceScope scope(/*sample_interval=*/1);
    ASSERT_TRUE(scope.active());
    ScopedSpan stage("t_stage");
    EXPECT_TRUE(stage.active());
  }
  EXPECT_EQ(sink.completed(), 1);
  EXPECT_EQ(sink.last_span_count(), 2);  // statement root + t_stage
  EXPECT_EQ(Current(), nullptr);
}

TEST(TraceTest, StatementScopeDisabledOrNeverSampledIsInert) {
  RecordingSink sink;
  SinkScope install(&sink);
  {
    StatementTraceScope never(/*sample_interval=*/0);
    EXPECT_FALSE(never.active());
  }
  EXPECT_EQ(sink.completed(), 0);
}

TEST(TraceTest, NestedStatementScopesJoinWithoutDoubleCounting) {
  // ExecutePlan re-enters ExecuteStatement on the same thread: the inner
  // scope must join the outer trace without opening a second statement span.
  RecordingSink sink;
  SinkScope install(&sink);
  {
    StatementTraceScope outer(1);
    ASSERT_TRUE(outer.active());
    int64_t before = Current()->span_count();
    {
      StatementTraceScope inner(1);
      EXPECT_FALSE(inner.active());  // joined silently, no new span
      EXPECT_EQ(Current()->span_count(), before);
    }
    EXPECT_EQ(sink.completed(), 0);  // inner exit must not notify
  }
  EXPECT_EQ(sink.completed(), 1);
}

TEST(TraceTest, ForcedTraceJoinsOpensStatementSpan) {
  // The DistSQL TRACE path: an installed trace forces capture regardless of
  // sampling; the statement scope opens a "statement" child span.
  Trace tr("trace");
  {
    TraceScope scope(&tr);
    StatementTraceScope stmt(/*sample_interval=*/0);
    ASSERT_TRUE(stmt.active());
    EXPECT_EQ(stmt.span()->name, "statement");
    EXPECT_EQ(stmt.span()->parent, tr.root());
  }
  EXPECT_EQ(tr.span_count(), 2);
}

TEST(TraceTest, ConcurrentSpanCreationStress) {
  // Executor pool workers open per-unit spans concurrently; the tree must
  // stay consistent (run under TSan to check the locking).
  Trace tr("root");
  Span* parent = tr.StartSpan(nullptr, "execute");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&tr, parent] {
      for (int i = 0; i < kPerThread; ++i) {
        Span* s = tr.StartSpan(parent, "unit");
        tr.AddAttr(s, "i", "x");
        tr.EndSpan(s);
      }
    });
  }
  pool.Wait();
  tr.EndSpan(parent);
  EXPECT_EQ(tr.span_count(), 2 + kThreads * kPerThread);
  EXPECT_EQ(parent->children.size(),
            static_cast<size_t>(kThreads * kPerThread));
}

TEST(TraceTest, RenderTreeIndentsAndShowsAttrs) {
  Trace tr("statement");
  Span* route = tr.StartSpan(nullptr, "route");
  tr.AddAttr(route, "fan_out", "2");
  tr.EndSpan(route);
  std::string out = RenderTree(tr);
  EXPECT_NE(out.find("statement"), std::string::npos);
  EXPECT_NE(out.find("  route"), std::string::npos);  // depth-1 indent
  EXPECT_NE(out.find("fan_out=2"), std::string::npos);
  EXPECT_NE(out.find("span"), std::string::npos);  // header
}

}  // namespace
}  // namespace sphere::trace
