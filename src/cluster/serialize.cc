#include "cluster/serialize.h"

#include <fstream>
#include <vector>

#include "common/annotations.h"
#include "common/bytes.h"
#include "data/io.h"
#include "data/manifest.h"

namespace pmkm {
namespace {

constexpr uint32_t kModelMagic = 0x4d4b4d50;  // "PMKM"
constexpr uint32_t kModelVersion = 1;
constexpr uint32_t kFlagHasAssignments = 1u << 0;

}  // namespace

Status SaveModel(const std::string& path,
                 const ClusteringModel& model) PMKM_DETERMINISTIC {
  if (model.k() == 0) {
    return Status::InvalidArgument("cannot save an empty model");
  }
  if (model.weights.size() != model.k()) {
    return Status::InvalidArgument("model weights/centroids mismatch");
  }
  ByteWriter out;
  out.WriteU32(kModelMagic);
  out.WriteU32(kModelVersion);
  out.WriteU64(model.k());
  out.WriteU64(model.dim());
  const uint32_t flags =
      model.assignments.empty() ? 0u : kFlagHasAssignments;
  out.WriteU32(flags);
  out.WriteU32(0);  // pad
  out.WriteF64(model.sse);
  out.WriteF64(model.mse_per_point);
  out.WriteU64(model.iterations);
  out.WriteU32(model.converged ? 1 : 0);
  out.WriteU32(0);  // pad
  out.WriteF64s(model.centroids.values());
  out.WriteF64s(model.weights);
  if (flags & kFlagHasAssignments) {
    out.WriteU64(model.assignments.size());
    for (uint32_t a : model.assignments) out.WriteU32(a);
  }
  out.WriteU64(
      internal::Fnv1a64(out.bytes().data(), out.size(), internal::kFnvOffset));

  // Durable atomic publish (stage + fsync + rename + dir fsync): a model
  // file either exists completely or not at all, even across power loss —
  // the kill-sweep harness compares these files bytewise across crashes.
  return AtomicWriteFile(path, out.bytes());
}

Result<ClusteringModel> LoadModel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for reading: " + path);

  // Read everything, verify the trailer checksum first.
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  if (size < static_cast<std::streamoff>(sizeof(uint64_t) + 8)) {
    return Status::IOError("file too small to be a model: " + path);
  }
  std::vector<uint8_t> buf(static_cast<size_t>(size));
  if (!ReadFromStream(in, buf)) return Status::IOError("short read: " + path);
  const size_t body = buf.size() - sizeof(uint64_t);
  if (LoadLeU64(buf.data() + body) !=
      internal::Fnv1a64(buf.data(), body, internal::kFnvOffset)) {
    return Status::IOError("checksum mismatch (corrupt model): " + path);
  }

  const std::string what = "model file " + path;
  ByteReader reader(std::span<const uint8_t>(buf).first(body),
                    StatusCode::kIOError, what);
  uint32_t magic = 0, version = 0, flags = 0, pad = 0;
  uint64_t k = 0, dim = 0;
  PMKM_RETURN_NOT_OK(reader.ReadU32(&magic));
  if (magic != kModelMagic) {
    return Status::IOError("bad magic (not a model file): " + path);
  }
  PMKM_RETURN_NOT_OK(reader.ReadU32(&version));
  if (version != kModelVersion) {
    return Status::IOError("unsupported model version: " + path);
  }
  PMKM_RETURN_NOT_OK(reader.ReadU64(&k));
  PMKM_RETURN_NOT_OK(reader.ReadU64(&dim));
  if (k == 0 || dim == 0) {
    return Status::IOError("degenerate model shape: " + path);
  }
  PMKM_RETURN_NOT_OK(reader.ReadU32(&flags));
  PMKM_RETURN_NOT_OK(reader.ReadU32(&pad));
  if ((flags & ~kFlagHasAssignments) != 0 || pad != 0) {
    return reader.Error("unknown flag bits or nonzero padding");
  }

  ClusteringModel model;
  uint64_t iterations = 0;
  uint32_t converged = 0;
  PMKM_RETURN_NOT_OK(reader.ReadF64(&model.sse));
  PMKM_RETURN_NOT_OK(reader.ReadF64(&model.mse_per_point));
  PMKM_RETURN_NOT_OK(reader.ReadU64(&iterations));
  PMKM_RETURN_NOT_OK(reader.ReadU32(&converged));
  PMKM_RETURN_NOT_OK(reader.ReadU32(&pad));
  if (converged > 1 || pad != 0) {
    return reader.Error("non-boolean converged flag or nonzero padding");
  }
  model.iterations = iterations;
  model.converged = converged != 0;

  // The header's shape is untrusted: k rows of dim centroid values plus a
  // weight must fit in the bytes that remain before anything is sized
  // from it. Checking dim first keeps (dim + 1) * 8 from overflowing.
  PMKM_RETURN_NOT_OK(reader.CheckCount(dim, sizeof(double)));
  PMKM_RETURN_NOT_OK(reader.CheckCount(k, (dim + 1) * sizeof(double)));
  std::vector<double> centroid_values(k * dim);
  PMKM_RETURN_NOT_OK(reader.ReadF64s(centroid_values));
  PMKM_ASSIGN_OR_RETURN(model.centroids,
                        Dataset::FromFlat(dim, std::move(centroid_values)));
  model.weights.resize(k);
  PMKM_RETURN_NOT_OK(reader.ReadF64s(model.weights));
  if (flags & kFlagHasAssignments) {
    uint64_t n = 0;
    PMKM_RETURN_NOT_OK(reader.ReadCount(&n, sizeof(uint32_t)));
    model.assignments.resize(n);
    for (uint32_t& a : model.assignments) {
      PMKM_RETURN_NOT_OK(reader.ReadU32(&a));
    }
  }
  PMKM_RETURN_NOT_OK(reader.ExpectEnd());
  return model;
}

}  // namespace pmkm
