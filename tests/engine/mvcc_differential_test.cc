// Differential tests for the read-path concurrency-control modes
// (DESIGN.md §15): every script runs once on a kLatch node and once on a
// kMvcc node, and the two transcripts — statuses, affected counts and
// materialized rows — must be identical. The modes differ only in how long
// readers hold the table latch; any divergence in *results* is an MVCC
// visibility bug.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "engine/storage_node.h"

namespace sphere::engine {
namespace {

/// Executes `script` on `node` and returns one transcript line per
/// statement: "ERR:<code>" for failures, "OK:<n>" for DML, or the
/// materialized rows ("a,b|c,d") for queries.
std::vector<std::string> RunScript(StorageNode* node,
                                   const std::vector<std::string>& script) {
  auto session = node->OpenSession();
  std::vector<std::string> transcript;
  transcript.reserve(script.size());
  for (const std::string& sql : script) {
    auto r = session->Execute(sql, {});
    if (!r.ok()) {
      transcript.push_back(
          "ERR:" + std::to_string(static_cast<int>(r.status().code())));
      continue;
    }
    if (!r->is_query) {
      transcript.push_back("OK:" + std::to_string(r->affected_rows));
      continue;
    }
    std::string lines;
    Row row;
    while (r->result_set->Next(&row)) {
      if (!lines.empty()) lines += "|";
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) lines += ",";
        lines += row[i].ToString();
      }
    }
    transcript.push_back(lines.empty() ? "<empty>" : lines);
  }
  return transcript;
}

/// Runs `script` on a fresh node in `mode`.
std::vector<std::string> RunScript(ConcurrencyControl mode,
                                   const std::vector<std::string>& script) {
  StorageNode node("ds_diff");
  node.set_concurrency_control(mode);
  return RunScript(&node, script);
}

void ExpectTranscriptsAgree(const std::vector<std::string>& script,
                            const std::vector<std::string>& latch,
                            const std::vector<std::string>& mvcc) {
  ASSERT_EQ(latch.size(), mvcc.size());
  for (size_t i = 0; i < script.size(); ++i) {
    EXPECT_EQ(latch[i], mvcc[i]) << "divergence at statement " << i << ": "
                                 << script[i];
  }
}

void ExpectModesAgree(const std::vector<std::string>& script) {
  ExpectTranscriptsAgree(script, RunScript(ConcurrencyControl::kLatch, script),
                         RunScript(ConcurrencyControl::kMvcc, script));
}

std::vector<std::string> DmlAndScanScript() {
  std::vector<std::string> script{
      "CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT)",
  };
  for (int id = 1; id <= 20; ++id) {
    script.push_back(StrFormat("INSERT INTO t VALUES (%d, %d, %d)", id,
                               id % 4, id * 10));
  }
  script.insert(script.end(), {
      "SELECT * FROM t ORDER BY id",
      "UPDATE t SET val = val + 5 WHERE grp = 2",
      "SELECT * FROM t WHERE grp = 2 ORDER BY id",
      "DELETE FROM t WHERE id = 7",
      "SELECT COUNT(*) FROM t",
      "INSERT INTO t VALUES (7, 3, 700)",
      "INSERT INTO t VALUES (7, 3, 700)",  // duplicate pk: same error both ways
      "SELECT * FROM t WHERE id >= 5 AND id <= 9 ORDER BY id",
      "UPDATE t SET val = 0 WHERE id = 99",  // no match
      "SELECT val FROM t ORDER BY val DESC LIMIT 3",
  });
  return script;
}

TEST(MvccDifferentialTest, FixedDmlAndScanScript) {
  ExpectModesAgree(DmlAndScanScript());
}

// The mode is a per-node setting: a latch node and an mvcc node live in one
// process and run the same script at the same time.
TEST(MvccDifferentialTest, LatchAndMvccNodesSideBySide) {
  StorageNode latch_node("ds_latch");
  latch_node.set_concurrency_control(ConcurrencyControl::kLatch);
  StorageNode mvcc_node("ds_mvcc");
  ASSERT_EQ(mvcc_node.concurrency_control(), ConcurrencyControl::kMvcc);
  const std::vector<std::string> script = DmlAndScanScript();
  std::vector<std::string> latch;
  std::vector<std::string> mvcc;
  std::thread latch_thread([&] { latch = RunScript(&latch_node, script); });
  std::thread mvcc_thread([&] { mvcc = RunScript(&mvcc_node, script); });
  latch_thread.join();
  mvcc_thread.join();
  ExpectTranscriptsAgree(script, latch, mvcc);
  EXPECT_EQ(latch_node.concurrency_control(), ConcurrencyControl::kLatch);
}

TEST(MvccDifferentialTest, FixedAggregateScript) {
  std::vector<std::string> script{
      "CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT)",
      // Empty-table aggregates: COUNT 0, SUM/MIN/MAX/AVG NULL.
      "SELECT COUNT(*), SUM(val), MIN(val), MAX(val), AVG(val) FROM t",
  };
  for (int id = 1; id <= 25; ++id) {
    script.push_back(StrFormat("INSERT INTO t VALUES (%d, %d, %d)", id,
                               id % 5, (id * 7) % 13));
  }
  script.insert(script.end(), {
      "SELECT COUNT(*), SUM(val), MIN(val), MAX(val), AVG(val) FROM t",
      "SELECT COUNT(*), SUM(val) FROM t WHERE grp = 3",
      "SELECT COUNT(*) FROM t WHERE val > 100",  // filter matches nothing
      "SELECT grp, COUNT(*), SUM(val) FROM t GROUP BY grp ORDER BY grp",
      "DELETE FROM t WHERE grp = 0",
      "SELECT COUNT(*), AVG(val) FROM t",
  });
  ExpectModesAgree(script);
}

TEST(MvccDifferentialTest, FixedTransactionScript) {
  std::vector<std::string> script{
      "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)",
      "INSERT INTO acct VALUES (1, 100)",
      "INSERT INTO acct VALUES (2, 100)",
      // Committed transfer.
      "BEGIN",
      "UPDATE acct SET bal = bal - 30 WHERE id = 1",
      "UPDATE acct SET bal = bal + 30 WHERE id = 2",
      "SELECT * FROM acct ORDER BY id",  // txn reads its own writes
      "COMMIT",
      "SELECT * FROM acct ORDER BY id",
      // Rolled-back insert + update.
      "BEGIN",
      "INSERT INTO acct VALUES (3, 50)",
      "UPDATE acct SET bal = 0 WHERE id = 1",
      "SELECT COUNT(*), SUM(bal) FROM acct",
      "ROLLBACK",
      "SELECT COUNT(*), SUM(bal) FROM acct",
      "SELECT * FROM acct ORDER BY id",
  };
  ExpectModesAgree(script);
}

// Randomized scripts: one deterministic generator emits an interleaving of
// DML, transactions and reads; both modes replay the identical statement
// list. Several seeds to cover different interleavings.
TEST(MvccDifferentialTest, RandomizedScriptsAgree) {
  for (uint64_t seed : {11u, 23u, 47u}) {
    Rng rng(seed);
    std::vector<std::string> script{
        "CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT)"};
    for (int id = 1; id <= 12; ++id) {
      script.push_back(
          StrFormat("INSERT INTO t VALUES (%d, %d, %d)", id, id % 3, id));
    }
    bool in_txn = false;
    for (int step = 0; step < 120; ++step) {
      int64_t op = rng.Uniform(0, 10);
      int64_t id = rng.Uniform(1, 40);
      switch (op) {
        case 0:
          script.push_back(StrFormat("INSERT INTO t VALUES (%d, %d, %d)",
                                     static_cast<int>(id),
                                     static_cast<int>(id % 3),
                                     static_cast<int>(rng.Uniform(0, 100))));
          break;
        case 1:
        case 2:
          script.push_back(StrFormat(
              "UPDATE t SET val = val + %d WHERE id = %d",
              static_cast<int>(rng.Uniform(1, 9)), static_cast<int>(id)));
          break;
        case 3:
          script.push_back(
              StrFormat("DELETE FROM t WHERE id = %d", static_cast<int>(id)));
          break;
        case 4:
          if (!in_txn) {
            script.push_back("BEGIN");
            in_txn = true;
          } else {
            script.push_back(rng.Uniform(0, 2) == 0 ? "COMMIT" : "ROLLBACK");
            in_txn = false;
          }
          break;
        case 5:
          script.push_back("SELECT COUNT(*), SUM(val), MIN(val), MAX(val) FROM t");
          break;
        case 6:
          script.push_back(StrFormat(
              "SELECT COUNT(*), SUM(val) FROM t WHERE grp = %d",
              static_cast<int>(rng.Uniform(0, 3))));
          break;
        case 7:
          script.push_back(
              "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp");
          break;
        default:
          script.push_back(StrFormat(
              "SELECT * FROM t WHERE id >= %d AND id <= %d ORDER BY id",
              static_cast<int>(id), static_cast<int>(id + 10)));
          break;
      }
    }
    if (in_txn) script.push_back("COMMIT");
    script.push_back("SELECT * FROM t ORDER BY id");
    ExpectModesAgree(script);
  }
}

}  // namespace
}  // namespace sphere::engine
