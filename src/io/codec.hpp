// The one byte codec behind every binary format the project persists.
//
// The stage-cache entry, the item-feature and embedding blobs, the dataset
// file, the checkpoint and the weight and Adam records inside it are all
// written with ByteWriter and parsed with ByteReader. The rules every format
// inherits (docs/robustness.md, "Binary formats"):
//
//   * fixed-width little-endian integers and IEEE-754 floats, no padding;
//   * a length read from the bytes is checked against its cap *and* against
//     the bytes left (its smallest possible encoding must still fit) before
//     anything is allocated for it;
//   * every failure is std::runtime_error("<format>: <what> at offset N");
//   * durable files close the payload with a (u64 bytes, u32 CRC32) footer.
//
// CRC32 is the standard reflected polynomial 0xEDB88320 (zlib-compatible).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>

namespace mvgnn::io {

/// Incremental CRC32 update over `n` bytes. Seed with 0; feed the previous
/// return value to continue.
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                                         std::size_t n) noexcept;

/// One-shot CRC32 of a buffer.
[[nodiscard]] inline std::uint32_t crc32(const void* data,
                                         std::size_t n) noexcept {
  return crc32_update(0, data, n);
}

/// Reads `is` to its end, or `max_bytes` at most, and returns the bytes.
/// Stops short without an error; the decoder then reports the truncation at
/// its offset. When the "io.read.truncate" fault site is armed with N, at
/// most N bytes are delivered, as if the file had been cut mid-write.
[[nodiscard]] std::string read_stream(
    std::istream& is,
    std::uint64_t max_bytes = std::numeric_limits<std::uint64_t>::max());

/// Little-endian encoder. Collects into memory (take()) or, given a sink
/// stream, drains to it in bounded chunks (flush() when done), so a large
/// file never has a second full copy in memory.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::ostream& sink) : sink_(&sink) {}

  void u8(std::uint8_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  /// Raw floats, no length prefix.
  void f32s(std::span<const float> v);
  /// Raw bytes, no length prefix.
  void bytes(std::string_view b) { append(b.data(), b.size()); }
  /// u64 length, then the bytes.
  void str(std::string_view s) {
    u64(s.size());
    bytes(s);
  }

  /// Starts the checksummed payload: CRC32 and byte count restart here.
  void begin_crc();
  /// Ends it: appends u64 payload bytes and u32 CRC32 of the payload.
  void crc_footer();

  /// Memory mode: the encoding so far; the writer is left empty.
  [[nodiscard]] std::string take() { return std::move(buf_); }
  /// Stream mode: writes everything still buffered to the sink.
  void flush();

 private:
  template <typename U>
  void put_le(U v) {
    char b[sizeof(U)];
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      b[i] = static_cast<char>(v >> (8 * i));
    }
    append(b, sizeof b);
  }
  void append(const char* p, std::size_t n);
  void fold_crc();

  std::string buf_;
  std::ostream* sink_ = nullptr;
  bool crc_on_ = false;
  std::size_t crc_pos_ = 0;  // buf_ bytes already folded into crc_
  std::uint32_t crc_ = 0;
  std::uint64_t crc_bytes_ = 0;
};

/// Little-endian decoder over a byte view. `format` prefixes every error.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, std::string_view format)
      : bytes_(bytes), format_(format) {}

  std::uint8_t u8() { return get_le<std::uint8_t>("u8"); }
  std::uint32_t u32() { return get_le<std::uint32_t>("u32"); }
  std::uint64_t u64() { return get_le<std::uint64_t>("u64"); }
  std::int32_t i32() {
    return static_cast<std::int32_t>(get_le<std::uint32_t>("i32"));
  }
  std::int64_t i64() {
    return static_cast<std::int64_t>(get_le<std::uint64_t>("i64"));
  }
  double f64();
  /// Fills `out` with raw floats.
  void f32s(std::span<float> out, std::string_view what);
  /// The next `n` raw bytes (a view into the input).
  std::string_view bytes(std::size_t n, std::string_view what);
  /// A u64 length (capped at `cap`), then that many bytes.
  std::string str(std::uint64_t cap);

  /// A u64 element count, rejected when above `cap` or when `n` elements of
  /// at least `each` bytes cannot fit in what is left.
  std::uint64_t count(std::uint64_t cap, std::string_view what,
                      std::uint64_t each = 1);
  /// The remaining-bytes half of count() for a size read some other way
  /// (`n` elements of `each` bytes, the size field having started at `at`).
  void fits(std::uint64_t n, std::uint64_t each, std::size_t at,
            std::string_view what) const;

  /// Marks the start of the checksummed payload.
  void begin_crc() { crc_from_ = pos_; }
  /// Reads the (u64 bytes, u32 CRC32) footer and checks it against the
  /// payload read since begin_crc().
  void crc_footer();
  /// Fails unless every byte has been consumed.
  void expect_end();

  [[nodiscard]] std::size_t offset() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  /// Throws "<format>: <what> at offset <at>".
  [[noreturn]] void fail_at(std::size_t at, std::string_view what) const;

 private:
  [[noreturn]] void fail(std::string_view what) const { fail_at(pos_, what); }
  const char* take(std::size_t n, std::string_view what);
  template <typename U>
  U get_le(std::string_view what) {
    const auto* p = reinterpret_cast<const unsigned char*>(take(sizeof(U), what));
    U v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) v |= U(p[i]) << (8 * i);
    return v;
  }

  std::string_view bytes_;
  std::string_view format_;
  std::size_t pos_ = 0;
  std::size_t crc_from_ = 0;
};

}  // namespace mvgnn::io
