// The sysbench mixes as closed-loop clients, with the answer checks.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <thread>

#include "common/strings.h"
#include "paperbench.h"

namespace sphere::paperbench {

namespace {

constexpr WorkloadSpec kWorkloads[] = {
    {"read_only_cpu", Mix::kReadOnly, Adaptor::kJdbc, false, 2, 100},
    {"write_only_cpu", Mix::kWriteOnly, Adaptor::kJdbc, false, 2, 2000},
    {"read_write_proxy_lan", Mix::kReadWrite, Adaptor::kProxy, true, 4, 20},
};

constexpr int kPointSelectsPerTxn = 10;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Client::Client(const WorkloadSpec& spec, int index, uint64_t seed, Dataset* data)
    : spec_(spec), index_(index), data_(data),
      rng_(seed * 0xD1B54A32D192ED03ULL + static_cast<uint64_t>(index) * 0x9E3779B97F4A7C15ULL +
           1) {}

bool Client::Owns(int64_t id) const {
  return HasWrites(spec_.mix) && id % spec_.clients == index_;
}

int64_t Client::OwnId() {
  // Ids with id % clients == index: no two clients ever write the same row.
  const int64_t first = index_ == 0 ? spec_.clients : index_;
  const int64_t count = (kTableSize - first) / spec_.clients + 1;
  return first + spec_.clients * rng_.Uniform(0, count - 1);
}

void Client::Wrong(std::string what) {
  if (wrong_.empty()) wrong_ = std::move(what);
}

Status Client::Statement(Session* session, std::string_view sql,
                         const std::vector<Value>& params) {
  return session->Execute(sql, params, &answer_);
}

Status Client::PointSelect(Session* session) {
  const int64_t id = AnyId();
  params_.assign(1, Value(id));
  SPHERE_RETURN_NOT_OK(Statement(session, "SELECT c FROM sbtest WHERE id = ?", params_));
  if (!answer_.is_query || answer_.rows > 1) {
    Wrong(StrFormat("point select id=%" PRId64 " returned %zu rows", id, answer_.rows));
    return Status::OK();
  }
  // Rows nobody writes during the run (every row of the read-only mixes, and
  // this client's own rows otherwise) must come back exactly as committed.
  if (!HasWrites(spec_.mix) || Owns(id)) {
    if (answer_.rows != 1 ||
        HashC(answer_.c[0]) != data_->c_hash[static_cast<size_t>(id)]) {
      Wrong(StrFormat("point select id=%" PRId64 " returned a wrong row", id));
    }
  }
  return Status::OK();
}

Status Client::Ranges(Session* session) {
  // Literal SQL text, as sysbench's Lua scripts send it: every range is a new
  // statement text for the parse caches.
  const bool exact = !HasWrites(spec_.mix);
  auto run = [&](const char* fmt, int64_t* lo) -> Status {
    *lo = RangeStart();
    sql_ = StrFormat(fmt, *lo, *lo + kRangeSize - 1);
    return Statement(session, sql_, {});
  };
  auto hash_sum = [&]() {
    uint64_t sum = 0;
    for (size_t i = 0; i < answer_.rows; ++i) sum += HashC(answer_.c[i]);
    return sum;
  };
  auto sorted = [&](bool strict) {
    for (size_t i = 1; i < answer_.rows; ++i) {
      int cmp = answer_.c[i - 1].compare(answer_.c[i]);
      if (cmp > 0 || (strict && cmp == 0)) return false;
    }
    return true;
  };
  const auto rows = static_cast<size_t>(kRangeSize);
  int64_t lo = 0;

  SPHERE_RETURN_NOT_OK(run("SELECT c FROM sbtest WHERE id BETWEEN %" PRId64 " AND %" PRId64, &lo));
  if (answer_.rows > rows ||
      (exact && (answer_.rows != rows || hash_sum() != data_->CHashSum(lo, lo + kRangeSize - 1)))) {
    Wrong(StrFormat("simple range at %" PRId64 ": %zu rows or wrong rows", lo, answer_.rows));
  }

  SPHERE_RETURN_NOT_OK(
      run("SELECT SUM(k) FROM sbtest WHERE id BETWEEN %" PRId64 " AND %" PRId64, &lo));
  if (answer_.rows != 1 ||
      (exact && answer_.c[0] != std::to_string(data_->KSum(lo, lo + kRangeSize - 1)))) {
    Wrong(StrFormat("sum range at %" PRId64 " returned a wrong sum", lo));
  }

  SPHERE_RETURN_NOT_OK(run(
      "SELECT c FROM sbtest WHERE id BETWEEN %" PRId64 " AND %" PRId64 " ORDER BY c", &lo));
  if (answer_.rows > rows || !sorted(false) ||
      (exact && (answer_.rows != rows || hash_sum() != data_->CHashSum(lo, lo + kRangeSize - 1)))) {
    Wrong(StrFormat("ordered range at %" PRId64 " unsorted or wrong", lo));
  }

  SPHERE_RETURN_NOT_OK(run("SELECT DISTINCT c FROM sbtest WHERE id BETWEEN %" PRId64
                           " AND %" PRId64 " ORDER BY c",
                           &lo));
  // c is 32 random characters, so a range's values are distinct.
  if (answer_.rows > rows || !sorted(true) ||
      (exact && hash_sum() != data_->CHashSum(lo, lo + kRangeSize - 1))) {
    Wrong(StrFormat("distinct range at %" PRId64 " unsorted or wrong", lo));
  }
  return Status::OK();
}

Client::PendingWrite Client::Current(int64_t id) const {
  for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
    if (it->id == id) return *it;
  }
  const auto slot = static_cast<size_t>(id);
  return PendingWrite{id, data_->k[slot], data_->c_hash[slot]};
}

Status Client::Writes(Session* session) {
  auto expect_one = [&](const char* what, int64_t id) {
    if (answer_.is_query || answer_.affected != 1) {
      Wrong(StrFormat("%s id=%" PRId64 " affected %" PRId64 " rows", what, id,
                      answer_.affected));
    }
  };

  int64_t id = OwnId();
  params_.assign(1, Value(id));
  SPHERE_RETURN_NOT_OK(Statement(session, "UPDATE sbtest SET k = k + 1 WHERE id = ?", params_));
  expect_one("index update", id);
  PendingWrite row = Current(id);
  row.k += 1;
  pending_.push_back(row);

  id = OwnId();
  std::string c = rng_.RandomString(kCLength);
  row = Current(id);
  row.c_hash = HashC(c);
  params_.clear();
  params_.emplace_back(std::move(c));
  params_.emplace_back(id);
  SPHERE_RETURN_NOT_OK(Statement(session, "UPDATE sbtest SET c = ? WHERE id = ?", params_));
  expect_one("non-index update", id);
  pending_.push_back(row);

  id = OwnId();
  params_.assign(1, Value(id));
  SPHERE_RETURN_NOT_OK(Statement(session, "DELETE FROM sbtest WHERE id = ?", params_));
  expect_one("delete", id);
  const int64_t k = rng_.Uniform(1, kTableSize);
  c = rng_.RandomString(kCLength);
  row = PendingWrite{id, k, HashC(c)};
  params_.clear();
  params_.emplace_back(id);
  params_.emplace_back(k);
  params_.emplace_back(std::move(c));
  params_.emplace_back(rng_.RandomString(kPadLength));
  SPHERE_RETURN_NOT_OK(Statement(
      session, "INSERT INTO sbtest (id, k, c, pad) VALUES (?, ?, ?, ?)", params_));
  expect_one("insert", id);
  pending_.push_back(row);
  return Status::OK();
}

bool Client::RunOp(Session* session, std::string* error) {
  pending_.clear();
  Status st = Statement(session, "BEGIN", {});
  if (st.ok() && spec_.mix != Mix::kWriteOnly) {
    for (int i = 0; i < kPointSelectsPerTxn && st.ok(); ++i) st = PointSelect(session);
    if (st.ok()) st = Ranges(session);
  }
  if (st.ok() && HasWrites(spec_.mix)) st = Writes(session);
  if (st.ok()) st = Statement(session, "COMMIT", {});
  if (!st.ok()) {
    (void)Statement(session, "ROLLBACK", {});
    if (error->empty()) *error = st.ToString();
    return false;
  }
  for (const PendingWrite& w : pending_) {
    data_->k[static_cast<size_t>(w.id)] = w.k;
    data_->c_hash[static_cast<size_t>(w.id)] = w.c_hash;
  }
  return true;
}

PhaseResult RunPhase(const WorkloadSpec& spec, Dataset* data, uint64_t seed,
                     double seconds, int64_t ops_per_client,
                     const std::function<std::unique_ptr<Session>(int)>& open) {
  // Timed phases are cut into whole one-second windows; a phase bounded by
  // op count (the warm-up) has none.
  const int windows = ops_per_client == 0 ? static_cast<int>(seconds) : 0;
  struct PerClient {
    std::unique_ptr<Session> session;
    std::unique_ptr<Client> client;
    int64_t attempted = 0;
    int64_t failed = 0;
    int64_t end_ns = 0;
    std::vector<int64_t> window_ops;
    // Fixed-size uniform sample of this client's op latencies (Algorithm
    // R), allocated and touched before the phase: its memory does not grow
    // with throughput, so it cannot move peak_rss_mb.
    std::vector<uint64_t> reservoir;
    int64_t seen = 0;
    Rng sampler{0};
    std::string error;
  };
  std::vector<PerClient> clients(static_cast<size_t>(spec.clients));
  for (int i = 0; i < spec.clients; ++i) {
    PerClient& pc = clients[static_cast<size_t>(i)];
    pc.session = open(i);
    pc.client = std::make_unique<Client>(spec, i, seed, data);
    pc.window_ops.assign(static_cast<size_t>(windows), 0);
    pc.reservoir.assign(kReservoirPerClient, 0);
    pc.sampler = Rng(seed + 0x51 + static_cast<uint64_t>(i));
  }

  std::atomic<bool> go{false};
  std::atomic<int64_t> start_ns{0};
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (PerClient& pc : clients) {
    threads.emplace_back([&, pc_ptr = &pc] {
      PerClient& me = *pc_ptr;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const int64_t t0 = start_ns.load(std::memory_order_relaxed);
      const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
      int64_t now = NowNs();
      while (now < deadline && (ops_per_client == 0 || me.attempted < ops_per_client)) {
        const int64_t start = now;
        const bool ok = me.client->RunOp(me.session.get(), &me.error);
        now = NowNs();
        ++me.attempted;
        if (!ok) ++me.failed;
        const int64_t window = (now - t0) / kWindowNs;
        if (ok && window < windows) ++me.window_ops[static_cast<size_t>(window)];
        // A failed op counts as slower than any completed one.
        const uint64_t latency = ok ? static_cast<uint64_t>(now - start) : kLatencyMask;
        const uint64_t sample =
            (static_cast<uint64_t>(std::min<int64_t>(window, 0xFFFF)) << kWindowShift) |
            std::min(latency, kLatencyMask);
        const uint64_t slot = me.seen < static_cast<int64_t>(kReservoirPerClient)
                                  ? static_cast<uint64_t>(me.seen)
                                  : me.sampler.Next() % static_cast<uint64_t>(me.seen + 1);
        if (slot < kReservoirPerClient) me.reservoir[slot] = sample;
        ++me.seen;
      }
      me.end_ns = now;
    });
  }

  PhaseResult out;
  const double cpu_start = CpuSeconds();
  const int64_t t0 = NowNs();
  start_ns.store(t0, std::memory_order_relaxed);
  go.store(true, std::memory_order_release);
  // Process CPU at every window boundary.
  double cpu_mark = cpu_start;
  for (int w = 1; w <= windows; ++w) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t0 + w * kWindowNs)));
    const double cpu = CpuSeconds();
    out.window_cpu_s.push_back(cpu - cpu_mark);
    cpu_mark = cpu;
  }
  for (auto& t : threads) t.join();

  out.cpu_s = CpuSeconds() - cpu_start;
  out.window_ops.assign(static_cast<size_t>(windows), 0);
  int64_t end_ns = t0;
  for (PerClient& pc : clients) {
    out.attempted += pc.attempted;
    out.failed += pc.failed;
    end_ns = std::max(end_ns, pc.end_ns);
    for (int w = 0; w < windows; ++w) {
      out.window_ops[static_cast<size_t>(w)] += pc.window_ops[static_cast<size_t>(w)];
    }
    const auto kept = static_cast<size_t>(
        std::min<int64_t>(pc.seen, static_cast<int64_t>(kReservoirPerClient)));
    out.samples.insert(out.samples.end(), pc.reservoir.begin(),
                       pc.reservoir.begin() + static_cast<std::ptrdiff_t>(kept));
    if (out.first_error.empty()) out.first_error = pc.error;
    if (!pc.client->wrong().empty()) {
      ++out.wrong_clients;
      if (out.first_wrong.empty()) out.first_wrong = pc.client->wrong();
    }
  }
  out.wall_s = static_cast<double>(end_ns - t0) * 1e-9;
  // Every op ends its transaction, so closing the sessions here rolls back
  // nothing; no connection outlives the phase.
  clients.clear();
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

/// Nearest-rank percentile of sorted latencies, as a 1-based rank.
size_t Rank(size_t n, double q) {
  return std::max<size_t>(1, static_cast<size_t>(std::ceil(q * static_cast<double>(n))));
}

}  // namespace

PhaseStats Summarize(const PhaseResult& phase) {
  PhaseStats out;
  const int64_t completed = phase.attempted - phase.failed;
  std::vector<int64_t> all;
  std::vector<std::vector<int64_t>> per_window(phase.window_ops.size());
  all.reserve(phase.samples.size());
  double sum = 0;
  int64_t finite = 0;
  for (uint64_t sample : phase.samples) {
    const auto latency = static_cast<int64_t>(sample & kLatencyMask);
    const size_t window = static_cast<size_t>(sample >> kWindowShift);
    all.push_back(latency);
    if (window < per_window.size()) per_window[window].push_back(latency);
    if (latency != static_cast<int64_t>(kLatencyMask)) {
      sum += static_cast<double>(latency);
      ++finite;
    }
  }
  std::sort(all.begin(), all.end());
  out.samples = static_cast<int64_t>(all.size());
  if (!all.empty()) {
    const size_t r99 = Rank(all.size(), 0.99);
    out.tail = out.samples - static_cast<int64_t>(r99);
    out.p99_ms = static_cast<double>(all[r99 - 1]) * 1e-6;
    out.p50_ms = static_cast<double>(all[Rank(all.size(), 0.5) - 1]) * 1e-6;
  }
  out.mean_us = finite == 0 ? 0 : sum / static_cast<double>(finite) * 1e-3;

  // Rates and the median latency are medians over the one-second windows,
  // which keeps a few seconds of a noisy host from moving them.
  std::vector<double> rates;
  std::vector<double> cpu_per_op;
  std::vector<double> p50s;
  for (size_t w = 0; w < phase.window_ops.size(); ++w) {
    const int64_t ops = phase.window_ops[w];
    if (ops == 0) continue;
    rates.push_back(static_cast<double>(ops) * 1e9 / static_cast<double>(kWindowNs));
    if (w < phase.window_cpu_s.size()) {
      cpu_per_op.push_back(phase.window_cpu_s[w] * 1e6 / static_cast<double>(ops));
    }
    std::vector<int64_t>& v = per_window[w];
    if (!v.empty()) {
      std::sort(v.begin(), v.end());
      p50s.push_back(static_cast<double>(v[Rank(v.size(), 0.5) - 1]) * 1e-6);
    }
  }
  if (rates.empty() && phase.wall_s > 0 && completed > 0) {
    // Shorter than one window: the whole phase is the window.
    rates.push_back(static_cast<double>(completed) / phase.wall_s);
    cpu_per_op.push_back(phase.cpu_s * 1e6 / static_cast<double>(completed));
  }
  out.throughput_ops_s = Median(rates);
  out.cpu_us_per_op = Median(cpu_per_op);
  if (!p50s.empty()) out.p50_ms = Median(p50s);
  return out;
}

}  // namespace sphere::paperbench
