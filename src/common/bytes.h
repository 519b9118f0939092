// The one byte codec: explicit little-endian encoding for every pmkm
// format that leaves the process (DESIGN.md §18).
//
// Grid buckets (.pmkb), model files (.pmkm), the run journal (.pmkj),
// checkpoint payloads and the serve wire protocol all write integers
// little-endian and doubles as their IEEE-754 bit pattern, little-endian.
// ByteWriter appends such values to a growing buffer; ByteReader is the
// bounds-checked cursor that decodes them. Every read fails cleanly on
// truncation, with the StatusCode of the decoder that owns the reader
// (the wire protocol reports OutOfRange, on-disk formats IOError) and a
// message naming the input and the byte offset. Element counts are
// checked against the bytes that remain before anything is allocated
// from them (ReadCount/CheckCount), so a hostile count cannot drive an
// allocation.
//
// Double arrays go in bulk: one memcpy on little-endian hosts, a
// byte-swap loop otherwise. pmkm_lint's raw-bytes rule keeps memcpy and
// char-pointer casts out of the rest of src/, so no format grows its own
// codec again.

#ifndef PMKM_COMMON_BYTES_H_
#define PMKM_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"

namespace pmkm {

namespace bytes_internal {

inline constexpr bool kNativeLittle =
    std::endian::native == std::endian::little;

}  // namespace bytes_internal

/// Fixed-offset little-endian loads, for framing code that has already
/// checked the bounds (a frame header is read before the rest of the
/// frame has arrived).
inline uint32_t LoadLeU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline uint64_t LoadLeU64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadLeU32(p)) |
         (static_cast<uint64_t>(LoadLeU32(p + 4)) << 32);
}

/// The bytes a value array occupies in memory. A file reader lands stored
/// doubles straight in their destination buffer through MutableBytesOf,
/// checksums them as stored, then converts them with LeToNativeF64s.
inline std::span<uint8_t> MutableBytesOf(std::span<double> values) {
  return {reinterpret_cast<uint8_t*>(values.data()), values.size_bytes()};
}

inline std::span<const uint8_t> BytesOf(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

/// Converts doubles read verbatim from little-endian storage to native
/// order, in place. A no-op on little-endian hosts.
inline void LeToNativeF64s(std::span<double> values) {
  if constexpr (!bytes_internal::kNativeLittle) {
    for (double& v : values) {
      v = std::bit_cast<double>(__builtin_bswap64(std::bit_cast<uint64_t>(v)));
    }
  }
}

/// Stream adapters: the one place a byte buffer meets the char-based
/// iostream API. Both return false on a short read or write.
inline bool WriteToStream(std::ostream& out, std::span<const uint8_t> bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

inline bool ReadFromStream(std::istream& in, std::span<uint8_t> bytes) {
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(in);
}

/// Appends explicit little-endian values to an owned buffer.
class ByteWriter {
 public:
  void Reserve(size_t n) { buf_.reserve(n); }
  void Clear() { buf_.clear(); }

  void WriteU32(uint32_t v) PMKM_DETERMINISTIC {
    const uint8_t le[4] = {
        static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8),
        static_cast<uint8_t>(v >> 16), static_cast<uint8_t>(v >> 24)};
    buf_.insert(buf_.end(), le, le + 4);
  }

  void WriteU64(uint64_t v) PMKM_DETERMINISTIC {
    WriteU32(static_cast<uint32_t>(v));
    WriteU32(static_cast<uint32_t>(v >> 32));
  }

  void WriteI32(int32_t v) PMKM_DETERMINISTIC {
    WriteU32(static_cast<uint32_t>(v));
  }

  void WriteI64(int64_t v) PMKM_DETERMINISTIC {
    WriteU64(static_cast<uint64_t>(v));
  }

  void WriteF64(double v) PMKM_DETERMINISTIC {
    WriteU64(std::bit_cast<uint64_t>(v));
  }

  /// One byte, 1 or 0.
  void WriteBool(bool v) PMKM_DETERMINISTIC { buf_.push_back(v ? 1 : 0); }

  /// Raw bytes, no length prefix.
  void WriteBytes(std::span<const uint8_t> bytes) PMKM_DETERMINISTIC {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }
  void WriteBytes(std::string_view bytes) PMKM_DETERMINISTIC {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// u32 length prefix, then the bytes.
  void WriteString(std::string_view s) PMKM_DETERMINISTIC {
    WriteU32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// The doubles back to back, no count prefix.
  void WriteF64s(std::span<const double> values) PMKM_DETERMINISTIC {
    const size_t at = buf_.size();
    buf_.resize(at + values.size_bytes());
    if constexpr (bytes_internal::kNativeLittle) {
      if (!values.empty()) {
        std::memcpy(buf_.data() + at, values.data(), values.size_bytes());
      }
    } else {
      for (size_t i = 0; i < values.size(); ++i) {
        const uint64_t bits = std::bit_cast<uint64_t>(values[i]);
        for (size_t b = 0; b < 8; ++b) {
          buf_[at + 8 * i + b] = static_cast<uint8_t>(bits >> (8 * b));
        }
      }
    }
  }

  size_t size() const { return buf_.size(); }
  std::span<const uint8_t> bytes() const { return buf_; }
  std::vector<uint8_t> Take() && { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian cursor over a byte span. Every failure is
/// a Status with the owner's `code`, naming `what` (which must outlive the
/// reader) and the byte offset where decoding stopped.
class ByteReader {
 public:
  ByteReader(std::span<const uint8_t> data, StatusCode code,
             std::string_view what)
      : data_(data), code_(code), what_(what) {}

  size_t remaining() const { return data_.size() - pos_; }

  /// A failure at the current offset, with this reader's code.
  Status Error(std::string_view message) const {
    return Status(code_, std::string(what_) + " at byte " +
                             std::to_string(pos_) + ": " +
                             std::string(message));
  }

  Status ReadU32(uint32_t* out) {
    PMKM_RETURN_NOT_OK(Need(4));
    *out = LoadLeU32(data_.data() + pos_);
    pos_ += 4;
    return Status::OK();
  }

  Status ReadU64(uint64_t* out) {
    PMKM_RETURN_NOT_OK(Need(8));
    *out = LoadLeU64(data_.data() + pos_);
    pos_ += 8;
    return Status::OK();
  }

  Status ReadI32(int32_t* out) {
    uint32_t v = 0;
    PMKM_RETURN_NOT_OK(ReadU32(&v));
    *out = static_cast<int32_t>(v);
    return Status::OK();
  }

  Status ReadI64(int64_t* out) {
    uint64_t v = 0;
    PMKM_RETURN_NOT_OK(ReadU64(&v));
    *out = static_cast<int64_t>(v);
    return Status::OK();
  }

  Status ReadF64(double* out) {
    uint64_t bits = 0;
    PMKM_RETURN_NOT_OK(ReadU64(&bits));
    *out = std::bit_cast<double>(bits);
    return Status::OK();
  }

  Status ReadBool(bool* out) {
    PMKM_RETURN_NOT_OK(Need(1));
    *out = data_[pos_] != 0;
    pos_ += 1;
    return Status::OK();
  }

  /// Borrows the next `len` bytes (no copy).
  Status ReadBytes(size_t len, std::span<const uint8_t>* out) {
    PMKM_RETURN_NOT_OK(Need(len));
    *out = data_.subspan(pos_, len);
    pos_ += len;
    return Status::OK();
  }

  /// u32 length prefix, then the bytes.
  Status ReadString(std::string* out) {
    uint32_t len = 0;
    PMKM_RETURN_NOT_OK(ReadU32(&len));
    std::span<const uint8_t> bytes;
    PMKM_RETURN_NOT_OK(ReadBytes(len, &bytes));
    out->assign(bytes.begin(), bytes.end());
    return Status::OK();
  }

  /// Fills `out` with the next out.size() doubles.
  Status ReadF64s(std::span<double> out) {
    PMKM_RETURN_NOT_OK(Need(out.size_bytes()));
    if constexpr (bytes_internal::kNativeLittle) {
      if (!out.empty()) {
        std::memcpy(out.data(), data_.data() + pos_, out.size_bytes());
      }
    } else {
      for (size_t i = 0; i < out.size(); ++i) {
        out[i] = std::bit_cast<double>(LoadLeU64(data_.data() + pos_ + 8 * i));
      }
    }
    pos_ += out.size_bytes();
    return Status::OK();
  }

  /// Fails unless `count` elements of `element_bytes` each fit in the
  /// remaining bytes. Overflow-safe: the product is never formed.
  Status CheckCount(uint64_t count, size_t element_bytes) const {
    if (element_bytes != 0 && count > remaining() / element_bytes) {
      return Error("count " + std::to_string(count) + " of " +
                   std::to_string(element_bytes) +
                   "-byte elements exceeds the " +
                   std::to_string(remaining()) + " remaining bytes");
    }
    return Status::OK();
  }

  /// Reads an element count and checks it with CheckCount, so the caller
  /// may size an allocation from it. `min_element_bytes` is the smallest
  /// encoding one element can have.
  Status ReadCount(uint32_t* out, size_t min_element_bytes) {
    PMKM_RETURN_NOT_OK(ReadU32(out));
    return CheckCount(*out, min_element_bytes);
  }

  Status ReadCount(uint64_t* out, size_t min_element_bytes) {
    PMKM_RETURN_NOT_OK(ReadU64(out));
    return CheckCount(*out, min_element_bytes);
  }

  /// Fails unless every byte has been consumed: a decoder that accepts
  /// exactly what its encoder writes re-encodes to the same bytes.
  Status ExpectEnd() const {
    if (remaining() != 0) {
      return Error(std::to_string(remaining()) + " trailing bytes");
    }
    return Status::OK();
  }

 private:
  Status Need(size_t n) const {
    if (remaining() < n) {
      return Error("truncated: need " + std::to_string(n) + " bytes, have " +
                   std::to_string(remaining()));
    }
    return Status::OK();
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  StatusCode code_;
  std::string_view what_;
};

}  // namespace pmkm

#endif  // PMKM_COMMON_BYTES_H_
