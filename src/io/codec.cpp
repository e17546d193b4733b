#include "io/codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "fault/fault.hpp"

namespace mvgnn::io {

namespace {

/// Reflected CRC32 table for polynomial 0xEDB88320, built once.
const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

/// A stream-mode writer drains once this much is buffered.
constexpr std::size_t kChunk = 64 << 10;

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t n) noexcept {
  const auto& table = crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::string read_stream(std::istream& is, std::uint64_t max_bytes) {
  const std::uint64_t limit = std::min(
      max_bytes, fault::armed_nth("io.read.truncate")
                     .value_or(std::numeric_limits<std::uint64_t>::max()));
  std::string out;
  while (out.size() < limit) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunk, limit - out.size()));
    const std::size_t had = out.size();
    out.resize(had + want);
    is.read(out.data() + had, static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(is.gcount());
    out.resize(had + got);
    if (got < want) break;
  }
  return out;
}

// ---- ByteWriter -----------------------------------------------------------

void ByteWriter::f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::f32s(std::span<const float> v) {
  if constexpr (kLittleEndian) {
    append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
  } else {
    for (const float x : v) put_le(std::bit_cast<std::uint32_t>(x));
  }
}

void ByteWriter::append(const char* p, std::size_t n) {
  buf_.append(p, n);
  if (sink_ != nullptr && buf_.size() >= kChunk) flush();
}

void ByteWriter::fold_crc() {
  if (!crc_on_) return;
  crc_ = crc32_update(crc_, buf_.data() + crc_pos_, buf_.size() - crc_pos_);
  crc_bytes_ += buf_.size() - crc_pos_;
  crc_pos_ = buf_.size();
}

void ByteWriter::flush() {
  if (sink_ == nullptr) return;
  fold_crc();
  sink_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
  crc_pos_ = 0;
}

void ByteWriter::begin_crc() {
  crc_on_ = true;
  crc_pos_ = buf_.size();
  crc_ = 0;
  crc_bytes_ = 0;
}

void ByteWriter::crc_footer() {
  fold_crc();
  crc_on_ = false;
  u64(crc_bytes_);
  u32(crc_);
}

// ---- ByteReader -----------------------------------------------------------

void ByteReader::fail_at(std::size_t at, std::string_view what) const {
  throw std::runtime_error(std::string(format_) + ": " + std::string(what) +
                           " at offset " + std::to_string(at));
}

const char* ByteReader::take(std::size_t n, std::string_view what) {
  if (remaining() < n) fail("truncated (" + std::string(what) + ")");
  const char* p = bytes_.data() + pos_;
  pos_ += n;
  return p;
}

double ByteReader::f64() {
  return std::bit_cast<double>(get_le<std::uint64_t>("f64"));
}

void ByteReader::f32s(std::span<float> out, std::string_view what) {
  const char* p = take(out.size_bytes(), what);
  if (out.empty()) return;  // an empty span may hold a null pointer
  if constexpr (kLittleEndian) {
    std::memcpy(out.data(), p, out.size_bytes());
  } else {
    ByteReader r(std::string_view(p, out.size_bytes()), format_);
    for (float& x : out) x = std::bit_cast<float>(r.u32());
  }
}

std::string_view ByteReader::bytes(std::size_t n, std::string_view what) {
  return {take(n, what), n};
}

std::string ByteReader::str(std::uint64_t cap) {
  const std::uint64_t n = count(cap, "string");
  return std::string(bytes(static_cast<std::size_t>(n), "string"));
}

std::uint64_t ByteReader::count(std::uint64_t cap, std::string_view what,
                                std::uint64_t each) {
  const std::size_t at = pos_;
  const std::uint64_t n = u64();
  if (n > cap) {
    fail_at(at, std::string(what) + " length " + std::to_string(n) +
                    " exceeds cap " + std::to_string(cap));
  }
  fits(n, each, at, what);
  return n;
}

void ByteReader::fits(std::uint64_t n, std::uint64_t each, std::size_t at,
                      std::string_view what) const {
  if (each != 0 && n > remaining() / each) {
    fail_at(at, std::string(what) + " length " + std::to_string(n) +
                    " exceeds the " + std::to_string(remaining()) +
                    " bytes left");
  }
}

void ByteReader::crc_footer() {
  const std::size_t end = pos_;
  const std::uint64_t want_bytes = u64();
  const std::uint32_t want_crc = u32();
  const std::uint64_t got_bytes = end - crc_from_;
  if (got_bytes != want_bytes) {
    fail_at(end, "payload length mismatch: read " + std::to_string(got_bytes) +
                     " bytes, footer says " + std::to_string(want_bytes));
  }
  const std::uint32_t crc = crc32(bytes_.data() + crc_from_, got_bytes);
  if (crc != want_crc) {
    fail_at(end, "checksum mismatch: payload crc32 " + std::to_string(crc) +
                     ", footer says " + std::to_string(want_crc));
  }
}

void ByteReader::expect_end() {
  if (remaining() != 0) fail("trailing bytes");
}

}  // namespace mvgnn::io
