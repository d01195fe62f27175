#include <gtest/gtest.h>

#include <thread>

#include "common/metrics.h"
#include "net/packet.h"
#include "net/pool.h"
#include "net/remote.h"

namespace sphere::net {
namespace {

TEST(PacketTest, ValueRoundTrip) {
  PacketWriter w;
  w.WriteValue(Value::Null());
  w.WriteValue(Value(-42));
  w.WriteValue(Value(2.75));
  w.WriteValue(Value("hello'world"));
  PacketReader r(w.buffer());
  EXPECT_TRUE(r.ReadValue()->is_null());
  EXPECT_EQ(*r.ReadValue(), Value(-42));
  EXPECT_EQ(*r.ReadValue(), Value(2.75));
  EXPECT_EQ(*r.ReadValue(), Value("hello'world"));
  EXPECT_TRUE(r.AtEnd());
}

TEST(PacketTest, QueryRoundTrip) {
  std::string data = EncodeQuery("SELECT * FROM t WHERE id = ?", {Value(7)});
  auto req = DecodeRequest(data);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->type, PacketType::kQuery);
  EXPECT_EQ(req->sql, "SELECT * FROM t WHERE id = ?");
  ASSERT_EQ(req->params.size(), 1u);
  EXPECT_EQ(req->params[0], Value(7));
}

TEST(PacketTest, CommandRoundTrip) {
  auto req = DecodeRequest(EncodeCommand(PacketType::kCommitPrepared, "xid-9"));
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->type, PacketType::kCommitPrepared);
  EXPECT_EQ(req->arg, "xid-9");
}

TEST(PacketTest, ResultSetRoundTrip) {
  auto rs = std::make_unique<engine::VectorResultSet>(
      std::vector<std::string>{"a", "b"},
      std::vector<Row>{{Value(1), Value("x")}, {Value::Null(), Value(0.5)}});
  engine::ExecResult result = engine::ExecResult::Query(std::move(rs));
  std::string data = EncodeExecResult(&result);
  auto decoded = DecodeResponse(data);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->is_query);
  EXPECT_EQ(decoded->result_set->columns(),
            (std::vector<std::string>{"a", "b"}));
  auto rows = engine::DrainResultSet(decoded->result_set.get());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value(1));
  EXPECT_TRUE(rows[1][0].is_null());
}

// The pooled pass-through lane charges Encoded*Size() instead of encoding;
// the latency model only stays honest if the mirrors match the real encoders
// byte for byte. Any wire-format change must keep these in lockstep.
TEST(PacketTest, SizeMirrorsMatchEncoders) {
  const std::vector<Value> values = {Value::Null(), Value(-42), Value(2.75),
                                     Value(""), Value("hello'world"),
                                     Value(std::string(300, 'x'))};
  for (const Value& v : values) {
    PacketWriter w;
    w.WriteValue(v);
    EXPECT_EQ(w.buffer().size(), EncodedValueSize(v)) << v.ToString();
  }

  EXPECT_EQ(EncodeQuery("SELECT * FROM t WHERE id = ?", {Value(7)}).size(),
            EncodedQuerySize("SELECT * FROM t WHERE id = ?", {Value(7)}));
  EXPECT_EQ(EncodeQuery("", {}).size(), EncodedQuerySize("", {}));
  EXPECT_EQ(EncodeQuery("Q", values).size(), EncodedQuerySize("Q", values));

  Status err = Status::Conflict("duplicate key on shard 3");
  EXPECT_EQ(EncodeError(err).size(), EncodedErrorSize(err));

  engine::ExecResult update = engine::ExecResult::Update(12, 99);
  auto update_size = TryEncodedExecResultSize(update);
  ASSERT_TRUE(update_size.has_value());
  EXPECT_EQ(EncodeExecResult(&update).size(), *update_size);

  auto make_query_result = [] {
    return engine::ExecResult::Query(std::make_unique<engine::VectorResultSet>(
        std::vector<std::string>{"a", "long_column_name"},
        std::vector<Row>{{Value(1), Value("x")},
                         {Value::Null(), Value(0.5)},
                         {Value(int64_t{7}), Value(std::string(100, 'y'))}}));
  };
  engine::ExecResult query = make_query_result();
  auto query_size = TryEncodedExecResultSize(query);
  ASSERT_TRUE(query_size.has_value());  // VectorResultSet is materialized
  engine::ExecResult drained = make_query_result();
  EXPECT_EQ(EncodeExecResult(&drained).size(), *query_size);
}

// Every result shape a proxy statement script produces (NULL, double and
// empty-string cells, an empty result, a cursor spanning several pipeline
// batches, update counts, an error) must price and round-trip exactly on the
// encoded wire: the in-process lanes charge the size mirrors and never run
// the encoders themselves.
TEST(PacketTest, ProxyResultShapesPriceAndRoundTrip) {
  struct Shape {
    const char* what;
    bool is_query;
    std::vector<std::string> labels;
    std::vector<Row> rows;
    int64_t affected = 0;
    int64_t last_insert_id = 0;
  };
  std::vector<Row> many;
  for (int i = 0; i < 5 * static_cast<int>(engine::kBatchSize) / 2; ++i) {
    many.push_back({Value(i), Value("row" + std::to_string(i))});
  }
  const std::vector<Shape> shapes = {
      {"null cell", true, {"name"}, {{Value::Null()}}},
      {"double cell", true, {"AVG(score)"}, {{Value(2.75)}, {Value(-0.125)}}},
      {"empty string cell", true, {"name"}, {{Value("")}}},
      {"empty result", true, {"uid"}, {}},
      {"multi-batch cursor", true, {"uid", "name"}, many},
      {"update count", false, {}, {}, 3, 0},
      {"insert id", false, {}, {}, 1, 42},
  };
  auto make = [](const Shape& shape) {
    if (!shape.is_query) {
      return engine::ExecResult::Update(shape.affected, shape.last_insert_id);
    }
    return engine::ExecResult::Query(std::make_unique<engine::VectorResultSet>(
        shape.labels, shape.rows));
  };
  for (const Shape& shape : shapes) {
    engine::ExecResult priced = make(shape);
    std::optional<size_t> size = TryEncodedExecResultSize(priced);
    ASSERT_TRUE(size.has_value()) << shape.what;
    engine::ExecResult encoded_result = make(shape);
    std::string encoded = EncodeExecResult(&encoded_result);
    EXPECT_EQ(encoded.size(), *size) << shape.what;
    auto decoded = DecodeResponse(encoded);
    ASSERT_TRUE(decoded.ok()) << shape.what;
    ASSERT_EQ(decoded->is_query, shape.is_query) << shape.what;
    if (shape.is_query) {
      EXPECT_EQ(decoded->result_set->columns(), shape.labels) << shape.what;
      EXPECT_EQ(engine::DrainResultSet(decoded->result_set.get()), shape.rows)
          << shape.what;
    } else {
      EXPECT_EQ(decoded->affected_rows, shape.affected) << shape.what;
      EXPECT_EQ(decoded->last_insert_id, shape.last_insert_id) << shape.what;
    }
  }
  Status err = Status::NotFound("table nope");
  std::string encoded = EncodeError(err);
  EXPECT_EQ(encoded.size(), EncodedErrorSize(err));
  auto decoded = DecodeResponse(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), err.code());
  EXPECT_EQ(decoded.status().message(), err.message());
}

TEST(PacketTest, UpdateResultRoundTrip) {
  engine::ExecResult result = engine::ExecResult::Update(5, 99);
  auto decoded = DecodeResponse(EncodeExecResult(&result));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->is_query);
  EXPECT_EQ(decoded->affected_rows, 5);
  EXPECT_EQ(decoded->last_insert_id, 99);
}

TEST(PacketTest, ErrorRoundTrip) {
  auto decoded = DecodeResponse(EncodeError(Status::Conflict("dup key")));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kConflict);
  EXPECT_EQ(decoded.status().message(), "dup key");
}

TEST(PacketTest, TruncatedPacketFails) {
  std::string data = EncodeQuery("SELECT 1", {});
  data.resize(data.size() / 2);
  EXPECT_FALSE(DecodeRequest(data).ok());
}

class RemoteTest : public ::testing::Test {
 protected:
  RemoteTest() : node_("ds_0"), network_(NetworkConfig::Zero()) {
    auto s = node_.OpenSession();
    EXPECT_TRUE(s->Execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
    EXPECT_TRUE(s->Execute("INSERT INTO t (id, v) VALUES (1, 10)").ok());
  }
  engine::StorageNode node_;
  LatencyModel network_;
};

TEST_F(RemoteTest, ExecuteOverProtocol) {
  RemoteConnection conn(&node_, &network_);
  auto r = conn.Execute("SELECT v FROM t WHERE id = ?", {Value(1)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto rows = engine::DrainResultSet(r->result_set.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(10));
  EXPECT_GE(network_.messages(), 2);  // request + response counted
}

TEST_F(RemoteTest, TransactionVerbs) {
  RemoteConnection conn(&node_, &network_);
  ASSERT_TRUE(conn.Begin().ok());
  EXPECT_TRUE(conn.in_transaction());
  ASSERT_TRUE(conn.Execute("UPDATE t SET v = 20 WHERE id = 1").ok());
  ASSERT_TRUE(conn.Rollback().ok());
  auto r = conn.Execute("SELECT v FROM t WHERE id = 1");
  auto rows = engine::DrainResultSet(r->result_set.get());
  EXPECT_EQ(rows[0][0], Value(10));
}

TEST_F(RemoteTest, XaVerbsOverProtocol) {
  RemoteConnection conn(&node_, &network_);
  ASSERT_TRUE(conn.Begin("gx-1").ok());
  ASSERT_TRUE(conn.Execute("UPDATE t SET v = 30 WHERE id = 1").ok());
  ASSERT_TRUE(conn.PrepareXa().ok());
  ASSERT_TRUE(conn.CommitPrepared("gx-1").ok());
  auto r = conn.Execute("SELECT v FROM t WHERE id = 1");
  auto rows = engine::DrainResultSet(r->result_set.get());
  EXPECT_EQ(rows[0][0], Value(30));
}

TEST_F(RemoteTest, ErrorPropagates) {
  RemoteConnection conn(&node_, &network_);
  auto r = conn.Execute("SELECT * FROM nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(RemoteTest, LatencyIsApplied) {
  LatencyModel slow(NetworkConfig{2000, 0});  // 2ms per hop
  RemoteConnection conn(&node_, &slow);
  Stopwatch sw;
  ASSERT_TRUE(conn.Execute("SELECT v FROM t WHERE id = 1").ok());
  EXPECT_GE(sw.ElapsedMicros(), 3500);  // ~2 hops
}

TEST_F(RemoteTest, PoolAcquireRelease) {
  ConnectionPool pool(&node_, &network_, 2);
  EXPECT_EQ(pool.available(), 2);
  {
    auto lease = pool.Acquire();
    ASSERT_TRUE(lease.valid());
    EXPECT_EQ(pool.available(), 1);
  }
  EXPECT_EQ(pool.available(), 2);
}

TEST_F(RemoteTest, PoolAcquireManyAtomic) {
  ConnectionPool pool(&node_, &network_, 4);
  auto leases = pool.AcquireMany(3);
  EXPECT_EQ(leases.size(), 3u);
  EXPECT_EQ(pool.available(), 1);
  leases.clear();
  EXPECT_EQ(pool.available(), 4);
  EXPECT_EQ(pool.peak_in_use(), 3);
}

TEST_F(RemoteTest, PoolAcquireManyClampsToMax) {
  ConnectionPool pool(&node_, &network_, 2);
  auto leases = pool.AcquireMany(10);
  EXPECT_EQ(leases.size(), 2u);
}

TEST_F(RemoteTest, PoolBlocksUntilReleased) {
  ConnectionPool pool(&node_, &network_, 1);
  auto lease = pool.Acquire();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto l2 = pool.Acquire();
    acquired = true;
  });
  SleepMicros(20000);
  EXPECT_FALSE(acquired.load());
  lease.Release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST_F(RemoteTest, DataSourcePublishesPoolGauges) {
  auto gauge = [](const std::string& name) -> int64_t {
    for (const metrics::Sample& s :
         metrics::Registry::Instance().Snapshot(name)) {
      if (s.name == name) return s.value;
    }
    return -999;
  };
  {
    DataSource source("probe_ds", &node_, &network_, /*pool_size=*/4);
    EXPECT_EQ(gauge("conn_pool.probe_ds.in_use"), 0);
    EXPECT_EQ(gauge("conn_pool.probe_ds.available"), 4);
    {
      auto leases = source.pool().AcquireMany(3);
      EXPECT_EQ(gauge("conn_pool.probe_ds.in_use"), 3);
      EXPECT_EQ(gauge("conn_pool.probe_ds.available"), 1);
    }
    EXPECT_EQ(gauge("conn_pool.probe_ds.in_use"), 0);
    EXPECT_EQ(gauge("conn_pool.probe_ds.peak_in_use"), 3);
  }
  // The destructor retracts the probes.
  EXPECT_EQ(gauge("conn_pool.probe_ds.in_use"), -999);
}

TEST_F(RemoteTest, ConcurrentAcquireManyNoDeadlock) {
  // The paper's deadlock scenario: two queries each needing 2 connections
  // from a pool of 2. Atomic batch acquisition must serialize them.
  ConnectionPool pool(&node_, &network_, 2);
  std::atomic<int> completed{0};
  auto worker = [&] {
    for (int i = 0; i < 50; ++i) {
      auto leases = pool.AcquireMany(2);
      EXPECT_EQ(leases.size(), 2u);
      leases.clear();
    }
    completed.fetch_add(1);
  };
  std::thread t1(worker), t2(worker);
  t1.join();
  t2.join();
  EXPECT_EQ(completed.load(), 2);
}

}  // namespace
}  // namespace sphere::net
