#include "core/execute.h"

#include <algorithm>
#include <span>

#include "common/arena.h"
#include "common/strings.h"
#include "common/trace.h"

namespace sphere::core {

Status DataSourceRegistry::Register(std::unique_ptr<net::DataSource> ds) {
  if (sources_.find(std::string_view(ds->name())) != sources_.end()) {
    return Status::AlreadyExists("data source " + ds->name());
  }
  std::string key = ds->name();
  sources_.emplace(std::move(key), std::move(ds));
  return Status::OK();
}

net::DataSource* DataSourceRegistry::Find(std::string_view name) {
  auto it = sources_.find(name);
  return it == sources_.end() ? nullptr : it->second.get();
}

std::vector<std::string> DataSourceRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(sources_.size());
  for (const auto& [key, ds] : sources_) out.push_back(ds->name());
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// One data source's slice of the statement's units. Scratch only — the
/// index vectors live in the statement arena when one is active.
struct Group {
  net::DataSource* ds = nullptr;
  net::RemoteConnection* txn_conn = nullptr;  ///< non-null inside a transaction
  ArenaVector<size_t> unit_indices;
};

/// The one dispatch rule (DESIGN.md §10): every unit runs its AST on the
/// node session, so no node parses SQL text; the text, when the unit has
/// one, only prices the request on the modeled wire.
Result<engine::ExecResult> DispatchUnit(net::RemoteConnection* conn,
                                        const SQLUnit& unit) {
  return conn->ExecuteStatement(*unit.stmt, unit.sql, unit.params);
}

/// Executes a list of units serially on one connection. `results` points at
/// the per-unit slot array (indexed by the unit's position in `units`).
/// `tr`/`parent` carry the statement trace across pool workers explicitly —
/// the thread-local current trace does not propagate to the shared pool.
void RunSerial(net::RemoteConnection* conn, const std::vector<SQLUnit>& units,
               std::span<const size_t> indices, UnitObserver* observer,
               Result<engine::ExecResult>* results, trace::Trace* tr,
               trace::Span* parent) {
  for (size_t idx : indices) {
    trace::Span* uspan = nullptr;
    if (tr != nullptr) {
      uspan = tr->StartSpan(parent, "unit");
      tr->AddAttr(uspan, "data_source", units[idx].data_source);
    }
    if (observer != nullptr) {
      Status st = observer->BeforeUnit(conn, units[idx]);
      if (!st.ok()) {
        results[idx] = st;
        if (tr != nullptr) tr->EndSpan(uspan);
        continue;
      }
    }
    results[idx] = DispatchUnit(conn, units[idx]);
    if (observer != nullptr) {
      // Unconditional: the observer must also see failed units (to roll back
      // and report the branch); its status only overrides a success.
      Status st = observer->AfterUnit(conn, units[idx], results[idx]);
      if (!st.ok() && results[idx].ok()) results[idx] = st;
    }
    if (tr != nullptr) tr->EndSpan(uspan);
  }
}

}  // namespace

Result<ExecutionOutcome> ExecutionEngine::Execute(
    const std::vector<SQLUnit>& units, ConnectionSource* txn_source,
    UnitObserver* observer) const {
  if (units.empty()) return Status::Internal("no SQL units to execute");

  // Captured once on the statement thread; per-unit spans parent under the
  // runtime's "execute" span even when they run on pool workers.
  trace::Trace* tr = trace::Current();
  trace::Span* parent = tr != nullptr ? trace::CurrentSpan() : nullptr;

  // ----- Single-unit fast path. -----
  // The dominant OLTP shape (a point query routed to one shard) needs no
  // grouping map, no task list and no per-unit result vector: one lease, one
  // serial run, one result. Identical observer and error semantics to
  // RunSerial below.
  if (units.size() == 1) {
    const SQLUnit& unit = units[0];
    net::DataSource* ds = registry_->Find(unit.data_source);
    if (ds == nullptr) {
      return Status::NotFound("data source " + unit.data_source);
    }
    net::ConnectionPool::Lease lease;
    net::RemoteConnection* conn = nullptr;
    if (txn_source != nullptr) {
      SPHERE_ASSIGN_OR_RETURN(conn,
                              txn_source->TransactionConnection(ds->name()));
    } else {
      lease = ds->pool().Acquire();
      conn = lease.get();
    }
    trace::Span* uspan = nullptr;
    if (tr != nullptr) {
      uspan = tr->StartSpan(parent, "unit");
      tr->AddAttr(uspan, "data_source", unit.data_source);
    }
    Result<engine::ExecResult> r(Status::Internal("not executed"));
    bool executed = true;
    if (observer != nullptr) {
      Status st = observer->BeforeUnit(conn, unit);
      if (!st.ok()) {
        r = st;
        executed = false;
      }
    }
    if (executed) {
      r = DispatchUnit(conn, unit);
      if (observer != nullptr) {
        Status st = observer->AfterUnit(conn, unit, r);
        if (!st.ok() && r.ok()) r = st;
      }
    }
    if (tr != nullptr) tr->EndSpan(uspan);
    if (!r.ok()) return r.status();
    ExecutionOutcome outcome;
    outcome.mode = ConnectionMode::kMemoryStrictly;
    outcome.results.reserve(1);
    outcome.results.push_back(std::move(r).value());
    return outcome;
  }

  // ----- Preparation phase: group by data source. -----
  // Hash-grouped on the unit's data source name (case-insensitive, no
  // lowered-copy allocation): the string_view keys point into the units,
  // which outlive the map. All of the scratch below (groups, the map's
  // nodes, the result slots, the task list) is statement-local, so it rides
  // the statement arena when one is active and never outlives this call.
  ArenaVector<Group> groups;
  std::unordered_map<
      std::string_view, size_t, CaseInsensitiveHash, CaseInsensitiveEqual,
      ArenaAllocator<std::pair<const std::string_view, size_t>>>
      group_of;
  for (size_t i = 0; i < units.size(); ++i) {
    auto [it, inserted] =
        group_of.try_emplace(units[i].data_source, groups.size());
    if (inserted) {
      net::DataSource* ds = registry_->Find(units[i].data_source);
      if (ds == nullptr) {
        return Status::NotFound("data source " + units[i].data_source);
      }
      groups.push_back(Group{ds, nullptr, {}});
    }
    groups[it->second].unit_indices.push_back(i);
  }

  // Transaction affinity: each touched data source pins to its txn connection.
  if (txn_source != nullptr) {
    for (auto& g : groups) {
      SPHERE_ASSIGN_OR_RETURN(g.txn_conn,
                              txn_source->TransactionConnection(g.ds->name()));
    }
  }

  ConnectionMode overall = ConnectionMode::kMemoryStrictly;
  // Slot spine comes from the arena; the Result payloads themselves are heap
  // (Status strings, ExecResult members use default allocators), so moving
  // them into the outcome below is safe.
  ArenaVector<Result<engine::ExecResult>> results;
  results.reserve(units.size());
  for (size_t i = 0; i < units.size(); ++i) {
    results.emplace_back(Status::Internal("not executed"));
  }

  // ----- Execution phase. -----
  struct Task {
    net::RemoteConnection* conn = nullptr;
    net::ConnectionPool::Lease lease;  ///< owns pooled connections
    ArenaVector<size_t> indices;
  };
  ArenaVector<Task> tasks;

  for (auto& g : groups) {
    int n = static_cast<int>(g.unit_indices.size());
    if (g.txn_conn != nullptr) {
      // All statements of this group ride the transaction's connection.
      if (n > 1) overall = ConnectionMode::kConnectionStrictly;
      Task t;
      t.conn = g.txn_conn;
      t.indices = std::move(g.unit_indices);
      tasks.push_back(std::move(t));
      continue;
    }
    int want = std::min(max_con_, n);
    // θ = ⌈#SQL / MaxCon⌉; θ > 1 means some connection executes several SQLs,
    // which forces connection-strictly mode and a memory merger.
    int theta = (n + want - 1) / want;
    if (theta > 1) overall = ConnectionMode::kConnectionStrictly;

    std::vector<net::ConnectionPool::Lease> leases;
    if (want == 1) {
      // Single connection: no batch lock needed (paper's lock-elision rule).
      leases.push_back(g.ds->pool().Acquire());
    } else {
      leases = g.ds->pool().AcquireMany(want);
    }
    // Round-robin units over the acquired connections.
    ArenaVector<Task> group_tasks(leases.size());
    for (size_t i = 0; i < leases.size(); ++i) {
      group_tasks[i].lease = std::move(leases[i]);
      group_tasks[i].conn = group_tasks[i].lease.get();
    }
    for (size_t i = 0; i < g.unit_indices.size(); ++i) {
      group_tasks[i % group_tasks.size()].indices.push_back(g.unit_indices[i]);
    }
    for (auto& t : group_tasks) {
      if (!t.indices.empty()) tasks.push_back(std::move(t));
    }
  }

  if (tasks.size() == 1) {
    RunSerial(tasks[0].conn, units, tasks[0].indices, observer, results.data(),
              tr, parent);
  } else {
    // The data sources execute their SQLs in parallel (paper Fig. 8), on the
    // persistent scheduler: every slice but the first goes to the pool, the
    // caller drains its own slice inline (so progress is guaranteed even on a
    // saturated pool — pool tasks are leaves and never block on the pool),
    // then joins on the latch. No thread is created on this path.
    Latch latch(static_cast<int>(tasks.size()) - 1);
    for (size_t i = 1; i < tasks.size(); ++i) {
      Task* task = &tasks[i];
      pool_->Submit([&, task] {
        RunSerial(task->conn, units, task->indices, observer, results.data(),
                  tr, parent);
        latch.CountDown();
      });
    }
    RunSerial(tasks[0].conn, units, tasks[0].indices, observer, results.data(),
              tr, parent);
    latch.Wait();
  }

  ExecutionOutcome outcome;
  outcome.mode = overall;
  outcome.results.reserve(units.size());
  for (auto& r : results) {
    if (!r.ok()) return r.status();
    outcome.results.push_back(std::move(r).value());
  }
  return outcome;
}

}  // namespace sphere::core
