#ifndef SPHERE_NET_REMOTE_H_
#define SPHERE_NET_REMOTE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/storage_node.h"
#include "net/latency.h"
#include "net/packet.h"

namespace sphere::net {

/// Dispatches one decoded request on a server-side session and returns the
/// encoded response. Shared by RemoteConnection (driver side) and the proxy
/// frontend.
std::string ServeRequest(engine::StorageNode::Session* session,
                         const DecodedRequest& request);

/// One client connection to a storage node over the simulated network.
///
/// Every call encodes a protocol packet, pays the transfer latency both ways,
/// and decodes the response — the cost structure of a real driver talking to
/// a real database server. This is what the embedded (JDBC-like) adaptor
/// holds in its pools; the proxy holds these on its backend side.
class RemoteConnection {
 public:
  RemoteConnection(engine::StorageNode* node, const LatencyModel* network)
      : node_(node), network_(network), session_(node->OpenSession()) {}

  engine::StorageNode* node() { return node_; }

  /// Executes one SQL statement with bound parameters.
  Result<engine::ExecResult> Execute(std::string_view sql_text,
                                     const std::vector<Value>& params = {});

  /// Structured unit execution (DESIGN.md §10): runs an already-rewritten
  /// statement on the node session directly — no request encode/decode and
  /// no node-side parse. The latency model charges the bytes Execute would:
  /// the request is the query packet of `sql_text` when the unit carries a
  /// text, else a binary prepared-execute (type byte + statement handle +
  /// bound parameters; the text traveled once at prepare time); the response
  /// is the encoded result set, OK or error packet. Message counts and bytes
  /// therefore match the text path; only the per-execution CPU work goes.
  Result<engine::ExecResult> ExecuteStatement(const sql::Statement& stmt,
                                              std::string_view sql_text,
                                              const std::vector<Value>& params);

  /// Transaction verbs (each one protocol round trip).
  Status Begin(const std::string& xid = "");
  Status Commit();
  Status Rollback();
  /// XA phase 1 on this connection's open transaction.
  Status PrepareXa();
  /// XA phase 2, addressed by global xid.
  Status CommitPrepared(const std::string& xid);
  Status RollbackPrepared(const std::string& xid);

  bool in_transaction() const { return session_->in_transaction(); }

 private:
  /// Round trip: transfer request, serve, transfer response.
  Result<engine::ExecResult> Call(const std::string& request);
  Status CallStatus(const std::string& request);
  /// Charges the response leg of an in-process execution and returns it.
  Result<engine::ExecResult> Respond(Result<engine::ExecResult> result);

  engine::StorageNode* node_;
  const LatencyModel* network_;
  std::unique_ptr<engine::StorageNode::Session> session_;
};

}  // namespace sphere::net

#endif  // SPHERE_NET_REMOTE_H_
