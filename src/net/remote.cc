#include "net/remote.h"

namespace sphere::net {

std::string ServeRequest(engine::StorageNode::Session* session,
                         const DecodedRequest& request) {
  switch (request.type) {
    case PacketType::kQuery: {
      auto result = session->Execute(request.sql, request.params);
      if (!result.ok()) return EncodeError(result.status());
      return EncodeExecResult(&result.value());
    }
    case PacketType::kBegin: {
      Status st = session->Begin(request.arg);
      if (!st.ok()) return EncodeError(st);
      engine::ExecResult ok = engine::ExecResult::Update(0);
      return EncodeExecResult(&ok);
    }
    case PacketType::kCommit: {
      Status st = session->Commit();
      if (!st.ok()) return EncodeError(st);
      engine::ExecResult ok = engine::ExecResult::Update(0);
      return EncodeExecResult(&ok);
    }
    case PacketType::kRollback: {
      Status st = session->Rollback();
      if (!st.ok()) return EncodeError(st);
      engine::ExecResult ok = engine::ExecResult::Update(0);
      return EncodeExecResult(&ok);
    }
    case PacketType::kPrepareXa: {
      Status st = session->Prepare();
      if (!st.ok()) return EncodeError(st);
      engine::ExecResult ok = engine::ExecResult::Update(0);
      return EncodeExecResult(&ok);
    }
    case PacketType::kCommitPrepared: {
      Status st = session->node()->CommitPrepared(request.arg);
      if (!st.ok()) return EncodeError(st);
      engine::ExecResult ok = engine::ExecResult::Update(0);
      return EncodeExecResult(&ok);
    }
    case PacketType::kRollbackPrepared: {
      Status st = session->node()->RollbackPrepared(request.arg);
      if (!st.ok()) return EncodeError(st);
      engine::ExecResult ok = engine::ExecResult::Update(0);
      return EncodeExecResult(&ok);
    }
    default:
      return EncodeError(Status::Internal("unexpected request packet"));
  }
}

Result<engine::ExecResult> RemoteConnection::Call(const std::string& request) {
  network_->Transfer(request.size());
  auto decoded = DecodeRequest(request);
  if (!decoded.ok()) return decoded.status();
  std::string response = ServeRequest(session_.get(), decoded.value());
  network_->Transfer(response.size());
  return DecodeResponse(response);
}

Status RemoteConnection::CallStatus(const std::string& request) {
  auto r = Call(request);
  return r.ok() ? Status::OK() : r.status();
}

Result<engine::ExecResult> RemoteConnection::Respond(
    Result<engine::ExecResult> result) {
  if (!result.ok()) {
    network_->Transfer(EncodedErrorSize(result.status()));
    return result;
  }
  if (std::optional<size_t> size = TryEncodedExecResultSize(result.value())) {
    network_->Transfer(*size);
    return result;
  }
  // Unmaterialized cursor: only a real drain can price it — take the
  // baseline encode/decode path for the response leg.
  std::string response = EncodeExecResult(&result.value());
  network_->Transfer(response.size());
  return DecodeResponse(response);
}

Result<engine::ExecResult> RemoteConnection::Execute(
    std::string_view sql_text, const std::vector<Value>& params) {
  // In-process pass-through: skip the encode → decode → serve → encode →
  // decode round-trip (and all its buffers) but charge the byte-identical
  // transfer sizes the encoders would have produced, so the latency model
  // sees exactly the encoded wire traffic.
  network_->Transfer(EncodedQuerySize(sql_text, params));
  return Respond(session_->Execute(sql_text, params));
}

Result<engine::ExecResult> RemoteConnection::ExecuteStatement(
    const sql::Statement& stmt, std::string_view sql_text,
    const std::vector<Value>& params) {
  size_t request_size;
  if (!sql_text.empty()) {
    request_size = EncodedQuerySize(sql_text, params);
  } else {
    // A COM_STMT_EXECUTE-shaped packet, sized without building it: type
    // byte + u64 statement handle + u32 count + the bound values.
    request_size = 1 + 8 + 4;
    for (const auto& p : params) request_size += EncodedValueSize(p);
  }
  network_->Transfer(request_size);
  return Respond(session_->ExecuteStatement(stmt, params));
}

Status RemoteConnection::Begin(const std::string& xid) {
  return CallStatus(EncodeCommand(PacketType::kBegin, xid));
}

Status RemoteConnection::Commit() {
  return CallStatus(EncodeCommand(PacketType::kCommit));
}

Status RemoteConnection::Rollback() {
  return CallStatus(EncodeCommand(PacketType::kRollback));
}

Status RemoteConnection::PrepareXa() {
  return CallStatus(EncodeCommand(PacketType::kPrepareXa));
}

Status RemoteConnection::CommitPrepared(const std::string& xid) {
  return CallStatus(EncodeCommand(PacketType::kCommitPrepared, xid));
}

Status RemoteConnection::RollbackPrepared(const std::string& xid) {
  return CallStatus(EncodeCommand(PacketType::kRollbackPrepared, xid));
}

}  // namespace sphere::net
