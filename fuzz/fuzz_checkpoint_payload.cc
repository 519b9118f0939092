// Fuzz harness for the checkpoint payload decoders
// (src/stream/checkpoint.cc). Journal records are CRC-checked, but a
// CRC-valid payload can still be arbitrary bytes (a hand-edited journal,
// a future version), and DecodeModelSet feeds cell payloads straight off
// the wire. The first input byte picks the decoder: even for
// DecodeCellComplete, odd for DecodePartialState; the rest is the
// payload. A payload that decodes must re-encode to exactly the same
// bytes: decode and encode are inverses, as in fuzz_frame_decoder.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "stream/checkpoint.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0 || size > (1u << 18)) return 0;
  const std::span<const uint8_t> payload(data + 1, size - 1);

  std::vector<uint8_t> reencoded;
  if (data[0] % 2 == 0) {
    pmkm::Result<pmkm::CellClustering> cell =
        pmkm::DecodeCellComplete(payload);
    if (!cell.ok()) return 0;
    reencoded = pmkm::EncodeCellComplete(cell.value());
  } else {
    auto partial = pmkm::DecodePartialState(payload);
    if (!partial.ok()) return 0;
    reencoded =
        pmkm::EncodePartialState(partial.value().first, partial.value().second);
  }
  if (!std::equal(reencoded.begin(), reencoded.end(), payload.begin(),
                  payload.end())) {
    std::abort();
  }
  return 0;
}
