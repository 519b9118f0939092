// Fuzz harness for the model file loader (src/cluster/serialize.cc). The
// header's k, dim and assignment count are untrusted: they must be
// checked against the file size before anything is sized from them, and
// every malformed file must surface as a Status, never a crash or a
// giant allocation.
//
// The trailer checksum would stop almost every mutation at the first
// check, so the harness rewrites the last 8 bytes to the correct FNV-1a
// of the body and lets the mutated body reach the structural decoder.
// Property: the loader accepts exactly what SaveModel writes, so a model
// that loads re-saves to the same bytes, and the re-saved file loads.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <vector>

#include "cluster/serialize.h"
#include "common/bytes.h"
#include "data/io.h"
#include "fuzz_io_util.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < sizeof(uint64_t) || size > (1u << 18)) return 0;
  const size_t body = size - sizeof(uint64_t);
  pmkm::ByteWriter file;
  file.WriteBytes(std::span<const uint8_t>(data, body));
  file.WriteU64(pmkm::internal::Fnv1a64(data, body,
                                        pmkm::internal::kFnvOffset));
  const std::string path =
      pmkm_fuzz::WriteTempInput("pmkm", file.bytes().data(), file.size());

  pmkm::Result<pmkm::ClusteringModel> model = pmkm::LoadModel(path);
  if (!model.ok()) return 0;

  const std::string resaved = path + ".resaved";
  if (!pmkm::SaveModel(resaved, model.value()).ok()) std::abort();
  std::ifstream in(resaved, std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  if (bytes.size() != file.size() ||
      !std::equal(bytes.begin(), bytes.end(), file.bytes().begin())) {
    std::abort();
  }
  if (!pmkm::LoadModel(resaved).ok()) std::abort();
  return 0;
}
