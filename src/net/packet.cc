#include "net/packet.h"

#include <cstring>

#include "engine/row_batch.h"

namespace sphere::net {

void PacketWriter::WriteU16(uint16_t v) {
  buf_.push_back(static_cast<char>(v & 0xFF));
  buf_.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void PacketWriter::WriteU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void PacketWriter::WriteU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void PacketWriter::WriteDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void PacketWriter::WriteString(std::string_view s) {
  WriteU32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

void PacketWriter::WriteValue(const Value& v) {
  if (v.is_null()) {
    WriteU8(0);
  } else if (v.is_int()) {
    WriteU8(1);
    WriteI64(v.AsInt());
  } else if (v.is_double()) {
    WriteU8(2);
    WriteDouble(v.AsDouble());
  } else {
    WriteU8(3);
    WriteString(v.AsString());
  }
}

Status PacketReader::Need(size_t n) const {
  if (pos_ + n > data_.size()) {
    return Status::Internal("truncated packet");
  }
  return Status::OK();
}

Result<uint8_t> PacketReader::ReadU8() {
  SPHERE_RETURN_NOT_OK(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint16_t> PacketReader::ReadU16() {
  SPHERE_RETURN_NOT_OK(Need(2));
  uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v |= static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

Result<uint32_t> PacketReader::ReadU32() {
  SPHERE_RETURN_NOT_OK(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

Result<uint64_t> PacketReader::ReadU64() {
  SPHERE_RETURN_NOT_OK(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

Result<int64_t> PacketReader::ReadI64() {
  SPHERE_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<double> PacketReader::ReadDouble() {
  SPHERE_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

Result<std::string> PacketReader::ReadString() {
  SPHERE_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
  SPHERE_RETURN_NOT_OK(Need(len));
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

Result<Value> PacketReader::ReadValue() {
  SPHERE_ASSIGN_OR_RETURN(uint8_t tag, ReadU8());
  switch (tag) {
    case 0:
      return Value::Null();
    case 1: {
      SPHERE_ASSIGN_OR_RETURN(int64_t v, ReadI64());
      return Value(v);
    }
    case 2: {
      SPHERE_ASSIGN_OR_RETURN(double v, ReadDouble());
      return Value(v);
    }
    case 3: {
      SPHERE_ASSIGN_OR_RETURN(std::string v, ReadString());
      return Value(std::move(v));
    }
    default:
      return Status::Internal("bad value tag");
  }
}

std::string EncodeQuery(std::string_view sql_text,
                        const std::vector<Value>& params) {
  PacketWriter w;
  w.WriteU8(static_cast<uint8_t>(PacketType::kQuery));
  w.WriteString(sql_text);
  w.WriteU16(static_cast<uint16_t>(params.size()));
  for (const Value& p : params) w.WriteValue(p);
  return w.Take();
}

std::string EncodeCommand(PacketType type, std::string_view arg) {
  PacketWriter w;
  w.WriteU8(static_cast<uint8_t>(type));
  w.WriteString(arg);
  return w.Take();
}

Result<DecodedRequest> DecodeRequest(std::string_view data) {
  PacketReader r(data);
  DecodedRequest req;
  SPHERE_ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
  req.type = static_cast<PacketType>(type);
  if (req.type == PacketType::kQuery) {
    SPHERE_ASSIGN_OR_RETURN(req.sql, r.ReadString());
    SPHERE_ASSIGN_OR_RETURN(uint16_t n, r.ReadU16());
    req.params.reserve(n);
    for (uint16_t i = 0; i < n; ++i) {
      SPHERE_ASSIGN_OR_RETURN(Value v, r.ReadValue());
      req.params.push_back(std::move(v));
    }
    return req;
  }
  SPHERE_ASSIGN_OR_RETURN(req.arg, r.ReadString());
  return req;
}

std::string EncodeExecResult(engine::ExecResult* result) {
  PacketWriter w;
  if (!result->is_query) {
    w.WriteU8(static_cast<uint8_t>(PacketType::kOk));
    w.WriteI64(result->affected_rows);
    w.WriteI64(result->last_insert_id);
    return w.Take();
  }
  w.WriteU8(static_cast<uint8_t>(PacketType::kResultSet));
  const auto& cols = result->result_set->columns();
  w.WriteU16(static_cast<uint16_t>(cols.size()));
  for (const auto& c : cols) w.WriteString(c);
  // The row count precedes the rows in the wire layout, so the proxy must
  // buffer the whole result before encoding. DrainResultSet pulls it through
  // the merge pipeline in moves of engine::kBatchSize rows.
  std::vector<Row> rows = engine::DrainResultSet(result->result_set.get());
  w.WriteU32(static_cast<uint32_t>(rows.size()));
  for (const Row& row : rows) {
    for (const Value& v : row) w.WriteValue(v);
  }
  // The drained batch is fully serialized; hand its storage back to the
  // recycler so the next projection/drain reuses it (no-op when pooling is
  // off).
  engine::RecycleRows(std::move(rows));
  return w.Take();
}

std::string EncodeError(const Status& status) {
  PacketWriter w;
  w.WriteU8(static_cast<uint8_t>(PacketType::kError));
  w.WriteU16(static_cast<uint16_t>(status.code()));
  w.WriteString(status.message());
  return w.Take();
}

size_t EncodedValueSize(const Value& v) {
  if (v.is_null()) return 1;
  if (v.is_int() || v.is_double()) return 1 + 8;
  return 1 + 4 + v.AsString().size();
}

size_t EncodedQuerySize(std::string_view sql_text,
                        const std::vector<Value>& params) {
  size_t n = 1 + 4 + sql_text.size() + 2;  // type + string header + u16 count
  for (const Value& p : params) n += EncodedValueSize(p);
  return n;
}

size_t EncodedErrorSize(const Status& status) {
  return 1 + 2 + 4 + status.message().size();
}

std::optional<size_t> TryEncodedExecResultSize(
    const engine::ExecResult& result) {
  if (!result.is_query) return 1 + 8 + 8;
  const std::vector<Row>* rows = result.result_set->MaterializedRows();
  if (rows == nullptr) return std::nullopt;
  size_t n = 1 + 2;
  for (const auto& c : result.result_set->columns()) n += 4 + c.size();
  n += 4;
  for (const Row& row : *rows) {
    for (const Value& v : row) n += EncodedValueSize(v);
  }
  return n;
}

Result<engine::ExecResult> DecodeResponse(std::string_view data) {
  PacketReader r(data);
  SPHERE_ASSIGN_OR_RETURN(uint8_t type_raw, r.ReadU8());
  auto type = static_cast<PacketType>(type_raw);
  switch (type) {
    case PacketType::kOk: {
      SPHERE_ASSIGN_OR_RETURN(int64_t affected, r.ReadI64());
      SPHERE_ASSIGN_OR_RETURN(int64_t last_id, r.ReadI64());
      return engine::ExecResult::Update(affected, last_id);
    }
    case PacketType::kResultSet: {
      SPHERE_ASSIGN_OR_RETURN(uint16_t ncols, r.ReadU16());
      std::vector<std::string> cols;
      cols.reserve(ncols);
      for (uint16_t i = 0; i < ncols; ++i) {
        SPHERE_ASSIGN_OR_RETURN(std::string c, r.ReadString());
        cols.push_back(std::move(c));
      }
      SPHERE_ASSIGN_OR_RETURN(uint32_t nrows, r.ReadU32());
      std::vector<Row> rows;
      rows.reserve(nrows);
      for (uint32_t i = 0; i < nrows; ++i) {
        Row row;
        row.reserve(ncols);
        for (uint16_t c = 0; c < ncols; ++c) {
          SPHERE_ASSIGN_OR_RETURN(Value v, r.ReadValue());
          row.push_back(std::move(v));
        }
        rows.push_back(std::move(row));
      }
      return engine::ExecResult::Query(std::make_unique<engine::VectorResultSet>(
          std::move(cols), std::move(rows)));
    }
    case PacketType::kError: {
      SPHERE_ASSIGN_OR_RETURN(uint16_t code, r.ReadU16());
      SPHERE_ASSIGN_OR_RETURN(std::string msg, r.ReadString());
      return Status(static_cast<StatusCode>(code), std::move(msg));
    }
    default:
      return Status::Internal("unexpected response packet type");
  }
}

}  // namespace sphere::net
