#include "data/io.h"

#include <algorithm>
#include <filesystem>

#include "common/bytes.h"
#include "common/fault.h"
#include "data/manifest.h"

namespace pmkm {
namespace internal {

uint64_t Fnv1a64(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace internal

namespace {

constexpr uint32_t kMagic = 0x424b4d50;  // "PMKB" little-endian
constexpr uint32_t kVersion = 1;

// Upper bound on the per-point dimensionality a bucket header may claim.
// Real workloads are low-dimensional (the paper uses <= 64); the bound
// exists so a corrupt/hostile header cannot request absurd allocations.
constexpr uint32_t kMaxBucketDim = 1u << 20;

// Header layout: magic, version, dim (u32), lat, lon (i32), pad (u32),
// count (u64). The writer back-patches count on Close().
constexpr size_t kHeaderBytes = 32;
constexpr size_t kCountOffset = 24;

// Values encoded per stream write: bounds the writer's buffer, so writing
// a large bucket never holds a second copy of it.
constexpr size_t kEncodeSliceValues = 8192;

// Crash-safe publication: data is staged in a `<path>.tmp` sibling and
// renamed into place only once complete, so a killed process never leaves
// a half-written bucket at the destination path. Durability (not just
// atomicity) needs the fsync pair around the rename: without fsyncing the
// staged file first, the rename can publish a name whose *contents* are
// still unflushed after power loss; without fsyncing the parent directory
// after, the directory entry itself can vanish.
std::string TmpPath(const std::string& path) { return path + ".tmp"; }

Status CommitTmp(const std::string& path) {
  PMKM_RETURN_NOT_OK(FsyncPath(TmpPath(path)));
  PMKM_FAULT_POINT("io.rename");
  std::error_code ec;
  std::filesystem::rename(TmpPath(path), path, ec);
  if (ec) {
    return Status::IOError("cannot rename into place: " + path + " (" +
                           ec.message() + ")");
  }
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  return FsyncPath(parent.empty() ? std::string(".") : parent.string());
}

}  // namespace

Status WriteGridBucket(const std::string& path, const GridBucket& bucket) {
  PMKM_ASSIGN_OR_RETURN(
      GridBucketWriter writer,
      GridBucketWriter::Open(path, bucket.cell, bucket.points.dim()));
  PMKM_RETURN_NOT_OK(writer.AppendAll(bucket.points));
  return writer.Close();
}

Result<GridBucket> ReadGridBucket(const std::string& path) {
  PMKM_ASSIGN_OR_RETURN(GridBucketReader reader,
                        GridBucketReader::Open(path));
  GridBucket bucket;
  bucket.cell = reader.cell();
  bucket.points = Dataset(reader.dim());
  bucket.points.Reserve(
      std::min(reader.total_points(), reader.available_points()));
  Dataset chunk(reader.dim());
  for (;;) {
    PMKM_ASSIGN_OR_RETURN(bool more, reader.Next(1 << 16, &chunk));
    if (!more) break;
    bucket.points.AppendAll(chunk);
  }
  return bucket;
}

Result<std::vector<std::string>> WriteGridBuckets(const std::string& dir,
                                                  const GridIndex& index) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create directory: " + dir);

  std::vector<std::string> paths;
  paths.reserve(index.num_cells());
  for (const auto& [id, points] : index.buckets()) {
    GridBucket bucket;
    bucket.cell = id;
    bucket.points = points;
    const std::string path = dir + "/" + id.ToString() + ".pmkb";
    PMKM_RETURN_NOT_OK(WriteGridBucket(path, bucket));
    paths.push_back(path);
  }
  return paths;
}

Result<GridBucketWriter> GridBucketWriter::Open(const std::string& path,
                                                GridCellId cell,
                                                size_t dim) {
  if (dim == 0) {
    return Status::InvalidArgument("dimensionality must be >= 1");
  }
  // Stage in <path>.tmp; Close() renames into place. An unclosed (crashed)
  // writer leaves no file at the destination path at all.
  auto out = std::make_shared<std::ofstream>(
      TmpPath(path), std::ios::binary | std::ios::trunc);
  if (!*out) {
    return Status::IOError("cannot open for writing: " + TmpPath(path));
  }

  ByteWriter header;
  header.WriteU32(kMagic);
  header.WriteU32(kVersion);
  header.WriteU32(static_cast<uint32_t>(dim));
  header.WriteI32(cell.lat_index);
  header.WriteI32(cell.lon_index);
  header.WriteU32(0);  // pad
  header.WriteU64(0);  // count, patched on Close()
  if (!WriteToStream(*out, header.bytes())) {
    return Status::IOError("short header write: " + path);
  }

  GridBucketWriter writer;
  writer.out_ = std::move(out);
  writer.path_ = path;
  writer.dim_ = dim;
  writer.running_hash_ = internal::kFnvOffset;
  return writer;
}

Status GridBucketWriter::Append(std::span<const double> point) {
  if (point.size() != dim_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  return WriteValues(point);
}

Status GridBucketWriter::AppendAll(const Dataset& points) {
  if (points.dim() != dim_) {
    return Status::InvalidArgument("dataset dimensionality mismatch");
  }
  return WriteValues(points.values());
}

Status GridBucketWriter::WriteValues(std::span<const double> values) {
  if (out_ == nullptr) {
    return Status::FailedPrecondition("writer already closed");
  }
  for (size_t at = 0; at < values.size(); at += kEncodeSliceValues) {
    encoded_.Clear();
    encoded_.WriteF64s(values.subspan(
        at, std::min(kEncodeSliceValues, values.size() - at)));
    if (!WriteToStream(*out_, encoded_.bytes())) {
      return Status::IOError("short write: " + path_);
    }
    running_hash_ = internal::Fnv1a64(encoded_.bytes().data(),
                                      encoded_.size(), running_hash_);
  }
  points_written_ += values.size() / dim_;
  return Status::OK();
}

Status GridBucketWriter::Close() {
  if (out_ == nullptr) {
    return Status::FailedPrecondition("writer already closed");
  }
  PMKM_RETURN_NOT_OK(FaultRegistry::Global().Hit("io.write"));
  // Checksum trailer, then back-patch the point count in the header. A
  // failed write leaves the stream bad, which the check below reports.
  encoded_.Clear();
  encoded_.WriteU64(running_hash_);
  WriteToStream(*out_, encoded_.bytes());
  encoded_.Clear();
  encoded_.WriteU64(points_written_);
  out_->seekp(kCountOffset, std::ios::beg);
  WriteToStream(*out_, encoded_.bytes());
  out_->flush();
  out_->close();
  const bool ok = static_cast<bool>(*out_);
  out_.reset();
  if (!ok) return Status::IOError("failed to finalize: " + path_);
  // Atomically publish the finished file.
  return CommitTmp(path_);
}

Result<GridBucketReader> GridBucketReader::Open(const std::string& path) {
  PMKM_FAULT_POINT("io.read");
  auto in = std::make_shared<std::ifstream>(path, std::ios::binary);
  if (!*in) return Status::IOError("cannot open for reading: " + path);

  uint8_t header[kHeaderBytes];
  if (!ReadFromStream(*in, header)) {
    return Status::IOError("short header: " + path);
  }
  if (LoadLeU32(header) != kMagic) {
    return Status::IOError("bad magic (not a grid bucket file): " + path);
  }
  const uint32_t version = LoadLeU32(header + 4);
  if (version != kVersion) {
    return Status::IOError("unsupported bucket version " +
                           std::to_string(version) + ": " + path);
  }
  const uint32_t dim = LoadLeU32(header + 8);
  if (dim == 0) return Status::IOError("zero dimensionality: " + path);
  if (dim > kMaxBucketDim) {
    return Status::IOError("implausible dimensionality " +
                           std::to_string(dim) +
                           " (corrupt header): " + path);
  }
  const uint64_t count = LoadLeU64(header + kCountOffset);
  GridBucketReader reader;
  reader.in_ = std::move(in);
  reader.path_ = path;
  reader.cell_ = GridCellId{static_cast<int32_t>(LoadLeU32(header + 12)),
                            static_cast<int32_t>(LoadLeU32(header + 16))};
  reader.dim_ = dim;
  reader.total_points_ = count;
  // How many whole points the file can actually hold past the header,
  // independent of what the header claims. Next() bounds its buffer by
  // this, so a corrupt/hostile count never drives an allocation. The
  // division cannot overflow or divide by zero: 0 < dim <= kMaxBucketDim.
  std::error_code size_ec;
  const uint64_t file_size = std::filesystem::file_size(path, size_ec);
  if (!size_ec && file_size >= kHeaderBytes) {
    reader.available_points_ = static_cast<size_t>(
        (file_size - kHeaderBytes) /
        (static_cast<uint64_t>(dim) * sizeof(double)));
  } else {
    // Unsizeable stream (or racing writer): fall back to trusting the
    // header; truncation still surfaces as a short read in Next().
    reader.available_points_ = count;
  }
  reader.running_hash_ = internal::kFnvOffset;
  return reader;
}

Result<bool> GridBucketReader::Next(size_t max_points, Dataset* out) {
  PMKM_CHECK(out != nullptr);
  if (max_points == 0) {
    return Status::InvalidArgument("max_points must be > 0");
  }
  PMKM_FAULT_POINT("io.read");
  *out = Dataset(dim_);
  if (points_read_ >= total_points_) {
    // Verify trailer checksum exactly once, on first end-of-stream call.
    if (in_) {
      uint8_t stored[sizeof(uint64_t)];
      if (!ReadFromStream(*in_, stored)) {
        return Status::IOError("missing checksum: " + path_);
      }
      if (LoadLeU64(stored) != running_hash_) {
        return Status::IOError("checksum mismatch (corrupt bucket): " +
                               path_);
      }
      in_.reset();
    }
    return false;
  }
  const size_t take = std::min(max_points, total_points_ - points_read_);
  if (points_read_ + take > available_points_) {
    // The file cannot hold what the header promised; report the same
    // error a short read would, without sizing a buffer from the header.
    return Status::IOError("truncated bucket payload: " + path_);
  }
  // Land the stored bytes straight in the point buffer, checksum them as
  // stored, then convert to native byte order (a no-op on LE hosts).
  std::vector<double> buf(take * dim_);
  const std::span<uint8_t> stored = MutableBytesOf(buf);
  if (!ReadFromStream(*in_, stored)) {
    return Status::IOError("truncated bucket payload: " + path_);
  }
  running_hash_ =
      internal::Fnv1a64(stored.data(), stored.size(), running_hash_);
  LeToNativeF64s(buf);
  points_read_ += take;
  PMKM_ASSIGN_OR_RETURN(*out, Dataset::FromFlat(dim_, std::move(buf)));
  return true;
}

}  // namespace pmkm
