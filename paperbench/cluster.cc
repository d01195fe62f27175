// Cluster construction, data loading, the untraced sessions and the
// post-run invariants.

#include <cinttypes>

#include "common/strings.h"
#include "paperbench.h"

namespace sphere::paperbench {

uint64_t HashC(std::string_view c) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char ch : c) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

Cluster::Cluster(const WorkloadSpec& spec)
    : client_network_(spec.modeled_lan ? LanNetwork() : net::NetworkConfig::Zero()) {
  core::RuntimeConfig config;
  config.max_connections_per_query = kMaxConnectionsPerQuery;
  ds_ = std::make_unique<adaptor::ShardingDataSource>(
      config, spec.modeled_lan ? LanNetwork() : net::NetworkConfig::Zero());
  for (int i = 0; i < kDataSources; ++i) {
    nodes_.push_back(std::make_unique<engine::StorageNode>("ds_" + std::to_string(i)));
    (void)ds_->AttachNode(nodes_.back()->name(), nodes_.back().get());
  }
  if (spec.adaptor == Adaptor::kProxy) {
    proxy_ = std::make_unique<adaptor::ShardingProxy>(ds_.get(), &client_network_);
  }
}

namespace {

constexpr int64_t kLoadBatch = 200;

Status Exec(adaptor::ShardingConnection* conn, std::string_view sql) {
  auto r = conn->ExecuteSQL(sql);
  return r.ok() ? Status::OK() : r.status();
}

/// Installs the sbtest rule: kDataSources x kTablesPerSource actual tables,
/// MOD on id.
Status InstallRule(adaptor::ShardingDataSource* ds,
                   const std::vector<std::unique_ptr<engine::StorageNode>>& nodes) {
  core::ShardingRuleConfig rule;
  rule.default_data_source = nodes.front()->name();
  core::TableRuleConfig t;
  t.logic_table = "sbtest";
  for (const auto& node : nodes) t.auto_resources.push_back(node->name());
  t.auto_sharding_count = kDataSources * kTablesPerSource;
  t.table_strategy.columns = {"id"};
  t.table_strategy.algorithm_type = "MOD";
  t.table_strategy.props.Set("sharding-count", std::to_string(t.auto_sharding_count));
  rule.tables.push_back(std::move(t));
  return ds->SetRule(std::move(rule));
}

}  // namespace

std::unique_ptr<Cluster> Cluster::Build(const WorkloadSpec& spec, uint64_t seed,
                                        Dataset* data, std::string* error) {
  std::unique_ptr<Cluster> cluster(new Cluster(spec));
  auto fail = [&](const Status& st) -> std::unique_ptr<Cluster> {
    *error = "cluster set-up: " + st.ToString();
    return nullptr;
  };
  if (Status st = InstallRule(cluster->ds_.get(), cluster->nodes_); !st.ok()) {
    return fail(st);
  }
  auto conn = cluster->ds_->GetConnection();
  if (Status st = Exec(conn.get(),
                       "CREATE TABLE sbtest (id BIGINT PRIMARY KEY, k BIGINT, "
                       "c VARCHAR(120), pad VARCHAR(60))");
      !st.ok()) {
    return fail(st);
  }

  // Rows come from the seed alone; the dataset keeps what the checks need.
  const size_t slots = static_cast<size_t>(kTableSize) + 1;
  data->k.assign(slots, 0);
  data->c_hash.assign(slots, 0);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5eed);
  std::string sql;
  for (int64_t first = 1; first <= kTableSize; first += kLoadBatch) {
    sql = "INSERT INTO sbtest (id, k, c, pad) VALUES ";
    int64_t last = std::min(first + kLoadBatch - 1, kTableSize);
    for (int64_t id = first; id <= last; ++id) {
      int64_t k = rng.Uniform(1, kTableSize);
      std::string c = rng.RandomString(kCLength);
      std::string pad = rng.RandomString(kPadLength);
      data->k[static_cast<size_t>(id)] = k;
      data->c_hash[static_cast<size_t>(id)] = HashC(c);
      if (id != first) sql += ", ";
      sql += StrFormat("(%" PRId64 ", %" PRId64 ", '%s', '%s')", id, k, c.c_str(),
                       pad.c_str());
    }
    if (Status st = Exec(conn.get(), sql); !st.ok()) return fail(st);
  }
  data->k_prefix.assign(slots, 0);
  data->c_hash_prefix.assign(slots, 0);
  for (size_t i = 1; i < slots; ++i) {
    data->k_prefix[i] = data->k_prefix[i - 1] + data->k[i];
    data->c_hash_prefix[i] = data->c_hash_prefix[i - 1] + data->c_hash[i];
  }
  return cluster;
}

void DrainInto(engine::ExecResult result, Answer* answer) {
  answer->is_query = result.is_query;
  answer->affected = result.affected_rows;
  answer->rows = 0;
  if (!result.is_query) return;
  adaptor::ShardingResultSet rs(std::move(result.result_set));
  while (rs.Next()) {
    if (answer->c.size() <= answer->rows) answer->c.emplace_back();
    std::string& dst = answer->c[answer->rows++];
    const Value& v = rs.Get(0);
    if (v.is_string()) {
      dst.assign(v.AsString());
    } else {
      dst = v.ToString();
    }
  }
}

namespace {

class JdbcSession : public Session {
 public:
  explicit JdbcSession(adaptor::ShardingDataSource* ds) : conn_(ds->GetConnection()) {}

  Status Execute(std::string_view sql, const std::vector<Value>& params,
                 Answer* answer) override {
    auto r = conn_->ExecuteSQL(sql, params);
    if (!r.ok()) return r.status();
    DrainInto(std::move(r).value(), answer);
    return Status::OK();
  }

 private:
  std::unique_ptr<adaptor::ShardingConnection> conn_;
};

class ProxySession : public Session {
 public:
  explicit ProxySession(adaptor::ShardingProxy* proxy) : conn_(proxy->Connect()) {}

  Status Execute(std::string_view sql, const std::vector<Value>& params,
                 Answer* answer) override {
    auto r = conn_->Execute(sql, params);
    if (!r.ok()) return r.status();
    DrainInto(std::move(r).value(), answer);
    return Status::OK();
  }

 private:
  std::unique_ptr<adaptor::ShardingProxy::Connection> conn_;
};

}  // namespace

std::unique_ptr<Session> OpenSession(Cluster* cluster) {
  if (cluster->proxy() != nullptr) {
    return std::make_unique<ProxySession>(cluster->proxy());
  }
  return std::make_unique<JdbcSession>(cluster->data_source());
}

std::string CheckFinalState(Cluster* cluster, const Dataset& data) {
  auto conn = cluster->data_source()->GetConnection();
  auto scalar = [&](const char* sql, int64_t* out) -> std::string {
    auto r = conn->ExecuteQuery(sql);
    if (!r.ok()) return std::string(sql) + ": " + r.status().ToString();
    if (!r->Next()) return std::string(sql) + ": no row";
    *out = r->GetInt(0);
    return "";
  };
  int64_t count = 0;
  int64_t distinct = 0;
  int64_t k_sum = 0;
  for (auto [sql, out] : {std::pair<const char*, int64_t*>{"SELECT COUNT(*) FROM sbtest", &count},
                          {"SELECT COUNT(DISTINCT id) FROM sbtest", &distinct},
                          {"SELECT SUM(k) FROM sbtest", &k_sum}}) {
    if (std::string err = scalar(sql, out); !err.empty()) return err;
  }
  int64_t want_k_sum = 0;
  for (size_t i = 1; i < data.k.size(); ++i) want_k_sum += data.k[i];
  if (count != kTableSize) {
    return StrFormat("COUNT(*) = %" PRId64 ", want %" PRId64, count, kTableSize);
  }
  if (distinct != count) {
    return StrFormat("COUNT(DISTINCT id) = %" PRId64 ", COUNT(*) = %" PRId64, distinct,
                     count);
  }
  if (k_sum != want_k_sum) {
    return StrFormat("SUM(k) = %" PRId64 ", want %" PRId64, k_sum, want_k_sum);
  }
  return "";
}

}  // namespace sphere::paperbench
