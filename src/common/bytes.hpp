// Byte-buffer type and a small big-endian serialization layer.
//
// Every wire message in the repo (SAP, NAS, traffic reports, MPTCP record
// framing) is serialized through ByteWriter/ByteReader so that crypto
// operations (hash, sign, encrypt) act on real octets, exactly as they would
// on a production wire format.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cb {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Render a byte span as lowercase hex (for logs and fingerprints).
std::string to_hex(BytesView data);

/// Parse lowercase/uppercase hex into bytes; throws std::invalid_argument on
/// malformed input.
Bytes from_hex(std::string_view hex);

/// Convert a string to its byte representation (no copy of semantics, just
/// octets; used for identifiers inside signed messages).
Bytes to_bytes(std::string_view s);

/// Constant-time equality for MAC/signature comparison.
bool constant_time_equal(BytesView a, BytesView b);

/// Append-only big-endian serializer.
class ByteWriter {
 public:
  /// Pre-size the buffer for a message whose length is known up front.
  void reserve(std::size_t n) { buf_.reserve(n); }
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Raw bytes, no length prefix.
  void raw(BytesView data);
  /// Length-prefixed (u32) byte string.
  void bytes(BytesView data);
  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s);

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Cursor-based big-endian deserializer. All accessors throw
/// std::out_of_range when the buffer is exhausted, which callers treat as a
/// malformed-message error.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  Bytes raw(std::size_t n);
  /// Reads a u32 length prefix then that many bytes.
  Bytes bytes();
  std::string str();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const;
  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace cb
