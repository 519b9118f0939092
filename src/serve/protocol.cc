#include "serve/protocol.h"

#include <algorithm>

#include "common/annotations.h"
#include "common/bytes.h"
#include "data/manifest.h"
#include "stream/checkpoint.h"

namespace pmkm {
namespace serve {

namespace {

// Every wire decoder reports malformed bytes as OutOfRange.
ByteReader WirePayloadReader(std::span<const uint8_t> payload) {
  return ByteReader(payload, StatusCode::kOutOfRange, "wire payload");
}

uint32_t FrameCrc(uint32_t type, std::span<const uint8_t> payload) {
  ByteWriter type_le;
  type_le.WriteU32(type);
  const uint32_t seed = Crc32c(type_le.bytes().data(), type_le.size());
  return Crc32c(payload.data(), payload.size(), seed);
}

}  // namespace

// ---------------------------------------------------------------------------
// Handshake.

std::vector<uint8_t> EncodeHello(uint32_t version) PMKM_DETERMINISTIC {
  ByteWriter out;
  out.Reserve(kHelloBytes);
  out.WriteU32(kProtocolMagic);
  out.WriteU32(version);
  return std::move(out).Take();
}

Result<uint32_t> DecodeHello(std::span<const uint8_t> bytes) {
  if (bytes.size() < kHelloBytes) {
    return Status::OutOfRange("truncated hello: got " +
                              std::to_string(bytes.size()) + " of " +
                              std::to_string(kHelloBytes) + " bytes");
  }
  if (LoadLeU32(bytes.data()) != kProtocolMagic) {
    return Status::InvalidArgument("bad protocol magic: not a pmkm serve "
                                   "peer");
  }
  return LoadLeU32(bytes.data() + 4);
}

Result<uint32_t> NegotiateVersion(uint32_t peer_version) {
  const uint32_t effective = std::min(kProtocolVersion, peer_version);
  if (effective < kMinProtocolVersion) {
    return Status::FailedPrecondition(
        "peer protocol version " + std::to_string(peer_version) +
        " is older than the minimum supported version " +
        std::to_string(kMinProtocolVersion));
  }
  return effective;
}

// ---------------------------------------------------------------------------
// Framing.

std::vector<uint8_t> EncodeFrame(
    FrameType type, std::span<const uint8_t> payload) PMKM_DETERMINISTIC {
  ByteWriter out;
  out.Reserve(kFrameFixedBytes + payload.size());
  out.WriteU32(static_cast<uint32_t>(payload.size()));
  out.WriteU32(static_cast<uint32_t>(type));
  out.WriteBytes(payload);
  out.WriteU32(FrameCrc(static_cast<uint32_t>(type), payload));
  return std::move(out).Take();
}

Result<std::optional<Frame>> DecodeFrame(std::span<const uint8_t> buffer,
                                         size_t* consumed) {
  *consumed = 0;
  if (buffer.size() < 8) return std::optional<Frame>();
  const uint32_t payload_len = LoadLeU32(buffer.data());
  if (payload_len > kMaxFramePayload) {
    return Status::OutOfRange("frame payload length " +
                              std::to_string(payload_len) +
                              " exceeds the 64 MiB cap");
  }
  const size_t total = kFrameFixedBytes + payload_len;
  if (buffer.size() < total) return std::optional<Frame>();
  const uint32_t type = LoadLeU32(buffer.data() + 4);
  const std::span<const uint8_t> payload = buffer.subspan(8, payload_len);
  const uint32_t stored_crc = LoadLeU32(buffer.data() + 8 + payload_len);
  const uint32_t actual_crc = FrameCrc(type, payload);
  if (stored_crc != actual_crc) {
    return Status::IOError("frame CRC mismatch: stream corrupted");
  }
  Frame frame;
  frame.type = type;
  frame.payload.assign(payload.begin(), payload.end());
  *consumed = total;
  return std::optional<Frame>(std::move(frame));
}

// ---------------------------------------------------------------------------
// JobSpec.

std::vector<uint8_t> EncodeJobSpec(const JobSpec& spec,
                                   uint32_t version) PMKM_DETERMINISTIC {
  ByteWriter out;
  out.WriteU32(static_cast<uint32_t>(spec.bucket_paths.size()));
  for (const std::string& path : spec.bucket_paths) {
    out.WriteString(path);
  }
  out.WriteI64(spec.engine.k);
  out.WriteI64(spec.engine.restarts);
  out.WriteI64(spec.engine.memory_kib);
  out.WriteI64(spec.engine.cores);
  out.WriteString(spec.engine.failure_policy);
  out.WriteI64(spec.engine.max_retries);
  out.WriteI64(spec.engine.op_timeout_ms);
  out.WriteString(spec.engine.kernel);
  out.WriteString(spec.engine.checkpoint_dir);
  out.WriteI64(spec.engine.checkpoint_sync);
  out.WriteBool(spec.engine.resume);
  if (version >= 2) {
    out.WriteString(spec.run_id);
    out.WriteString(spec.client);
  }
  return std::move(out).Take();
}

Result<JobSpec> DecodeJobSpec(std::span<const uint8_t> payload,
                              uint32_t version) {
  ByteReader reader = WirePayloadReader(payload);
  JobSpec spec;
  uint32_t path_count = 0;
  // Each path costs at least its 4-byte length prefix.
  PMKM_RETURN_NOT_OK(reader.ReadCount(&path_count, 4));
  spec.bucket_paths.reserve(path_count);
  for (uint32_t i = 0; i < path_count; ++i) {
    std::string path;
    PMKM_RETURN_NOT_OK(reader.ReadString(&path));
    spec.bucket_paths.push_back(std::move(path));
  }
  PMKM_RETURN_NOT_OK(reader.ReadI64(&spec.engine.k));
  PMKM_RETURN_NOT_OK(reader.ReadI64(&spec.engine.restarts));
  PMKM_RETURN_NOT_OK(reader.ReadI64(&spec.engine.memory_kib));
  PMKM_RETURN_NOT_OK(reader.ReadI64(&spec.engine.cores));
  PMKM_RETURN_NOT_OK(reader.ReadString(&spec.engine.failure_policy));
  PMKM_RETURN_NOT_OK(reader.ReadI64(&spec.engine.max_retries));
  PMKM_RETURN_NOT_OK(reader.ReadI64(&spec.engine.op_timeout_ms));
  PMKM_RETURN_NOT_OK(reader.ReadString(&spec.engine.kernel));
  PMKM_RETURN_NOT_OK(reader.ReadString(&spec.engine.checkpoint_dir));
  PMKM_RETURN_NOT_OK(reader.ReadI64(&spec.engine.checkpoint_sync));
  PMKM_RETURN_NOT_OK(reader.ReadBool(&spec.engine.resume));
  if (version >= 2) {
    PMKM_RETURN_NOT_OK(reader.ReadString(&spec.run_id));
    PMKM_RETURN_NOT_OK(reader.ReadString(&spec.client));
  }
  // Trailing bytes (fields from a newer minor version) are ignored.
  return spec;
}

// ---------------------------------------------------------------------------
// JobInfo.

namespace {

void AppendJobInfo(ByteWriter* out, const JobInfo& info) {
  out->WriteU64(info.job_id);
  out->WriteU32(static_cast<uint32_t>(info.state));
  out->WriteI32(static_cast<int32_t>(info.status.code()));
  out->WriteString(info.status.message());
  out->WriteString(info.client);
  out->WriteString(info.run_id);
  out->WriteU64(info.cells);
  out->WriteF64(info.wall_seconds);
}

Status ReadStatus(ByteReader* reader, Status* status) {
  int32_t code = 0;
  std::string message;
  PMKM_RETURN_NOT_OK(reader->ReadI32(&code));
  PMKM_RETURN_NOT_OK(reader->ReadString(&message));
  if (code < static_cast<int32_t>(StatusCode::kOk) ||
      code > static_cast<int32_t>(StatusCode::kDeadlineExceeded)) {
    return reader->Error("unknown status code tag " + std::to_string(code));
  }
  *status = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

Status ReadJobInfo(ByteReader* reader, JobInfo* info) {
  PMKM_RETURN_NOT_OK(reader->ReadU64(&info->job_id));
  uint32_t state = 0;
  PMKM_RETURN_NOT_OK(reader->ReadU32(&state));
  if (state > static_cast<uint32_t>(JobState::kCancelled)) {
    return reader->Error("unknown job state tag " + std::to_string(state));
  }
  info->state = static_cast<JobState>(state);
  PMKM_RETURN_NOT_OK(ReadStatus(reader, &info->status));
  PMKM_RETURN_NOT_OK(reader->ReadString(&info->client));
  PMKM_RETURN_NOT_OK(reader->ReadString(&info->run_id));
  PMKM_RETURN_NOT_OK(reader->ReadU64(&info->cells));
  PMKM_RETURN_NOT_OK(reader->ReadF64(&info->wall_seconds));
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeJobInfo(const JobInfo& info) PMKM_DETERMINISTIC {
  ByteWriter out;
  AppendJobInfo(&out, info);
  return std::move(out).Take();
}

Result<JobInfo> DecodeJobInfo(std::span<const uint8_t> payload) {
  ByteReader reader = WirePayloadReader(payload);
  JobInfo info;
  PMKM_RETURN_NOT_OK(ReadJobInfo(&reader, &info));
  return info;
}

std::vector<uint8_t> EncodeJobList(
    const std::vector<JobInfo>& jobs) PMKM_DETERMINISTIC {
  ByteWriter out;
  out.WriteU32(static_cast<uint32_t>(jobs.size()));
  for (const JobInfo& info : jobs) {
    AppendJobInfo(&out, info);
  }
  return std::move(out).Take();
}

Result<std::vector<JobInfo>> DecodeJobList(
    std::span<const uint8_t> payload) {
  ByteReader reader = WirePayloadReader(payload);
  uint32_t count = 0;
  // A JobInfo is at least 40 fixed bytes on the wire.
  PMKM_RETURN_NOT_OK(reader.ReadCount(&count, 40));
  std::vector<JobInfo> jobs;
  jobs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    JobInfo info;
    PMKM_RETURN_NOT_OK(ReadJobInfo(&reader, &info));
    jobs.push_back(std::move(info));
  }
  return jobs;
}

// ---------------------------------------------------------------------------
// Model set.

std::vector<uint8_t> EncodeModelSet(
    const std::map<GridCellId, CellClustering>& cells) PMKM_DETERMINISTIC {
  ByteWriter out;
  out.WriteU32(static_cast<uint32_t>(cells.size()));
  for (const auto& [cell, clustering] : cells) {
    const std::vector<uint8_t> blob = EncodeCellComplete(clustering);
    out.WriteU32(static_cast<uint32_t>(blob.size()));
    out.WriteBytes(blob);
  }
  return std::move(out).Take();
}

Result<std::map<GridCellId, CellClustering>> DecodeModelSet(
    std::span<const uint8_t> payload) {
  ByteReader reader = WirePayloadReader(payload);
  uint32_t count = 0;
  PMKM_RETURN_NOT_OK(reader.ReadCount(&count, 4));
  std::map<GridCellId, CellClustering> cells;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t blob_len = 0;
    PMKM_RETURN_NOT_OK(reader.ReadU32(&blob_len));
    std::span<const uint8_t> blob;
    PMKM_RETURN_NOT_OK(reader.ReadBytes(blob_len, &blob));
    PMKM_ASSIGN_OR_RETURN(CellClustering clustering,
                          DecodeCellComplete(blob));
    const GridCellId cell = clustering.cell;
    cells.emplace(cell, std::move(clustering));
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Scalars and replies.

std::vector<uint8_t> EncodeU64(uint64_t value) PMKM_DETERMINISTIC {
  ByteWriter out;
  out.WriteU64(value);
  return std::move(out).Take();
}

Result<uint64_t> DecodeU64(std::span<const uint8_t> payload) {
  ByteReader reader = WirePayloadReader(payload);
  uint64_t value = 0;
  PMKM_RETURN_NOT_OK(reader.ReadU64(&value));
  return value;
}

std::vector<uint8_t> EncodeReply(
    const Status& status, std::span<const uint8_t> body) PMKM_DETERMINISTIC {
  ByteWriter out;
  out.WriteI32(static_cast<int32_t>(status.code()));
  out.WriteString(status.message());
  out.WriteBytes(body);
  return std::move(out).Take();
}

Result<Reply> DecodeReply(std::span<const uint8_t> payload) {
  ByteReader reader = WirePayloadReader(payload);
  Reply reply;
  PMKM_RETURN_NOT_OK(ReadStatus(&reader, &reply.status));
  std::span<const uint8_t> body;
  PMKM_RETURN_NOT_OK(reader.ReadBytes(reader.remaining(), &body));
  reply.body.assign(body.begin(), body.end());
  return reply;
}

}  // namespace serve
}  // namespace pmkm
