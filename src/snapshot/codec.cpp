#include "snapshot/codec.hpp"

#include <cstring>
#include <limits>

namespace spfail::snapshot {

void Writer::f64(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::str(std::string_view v) {
  if (v.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw SnapshotError("string exceeds u32 length prefix");
  }
  u32(static_cast<std::uint32_t>(v.size()));
  bytes_.append(v.data(), v.size());
}

std::size_t Writer::open_length() {
  const std::size_t at = bytes_.size();
  u32(0);
  return at;
}

void Writer::close_length(std::size_t at) {
  const std::size_t length = bytes_.size() - at - 4;
  if (length > std::numeric_limits<std::uint32_t>::max()) {
    throw SnapshotError("string exceeds u32 length prefix");
  }
  for (std::size_t i = 0; i < 4; ++i) {
    bytes_[at + i] = static_cast<char>((length >> (8 * i)) & 0xFF);
  }
}

std::uint64_t Reader::unsigned_le(int width) {
  if (remaining() < static_cast<std::size_t>(width)) {
    throw SnapshotError("truncated input (wanted " + std::to_string(width) +
                        " bytes, have " + std::to_string(remaining()) + ")");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<std::uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += static_cast<std::size_t>(width);
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) {
    throw SnapshotError("invalid boolean byte " + std::to_string(v));
  }
  return v == 1;
}

std::string Reader::str() {
  const std::uint32_t length = u32();
  if (remaining() < length) {
    throw SnapshotError("truncated string (wanted " + std::to_string(length) +
                        " bytes, have " + std::to_string(remaining()) + ")");
  }
  std::string v(bytes_.substr(pos_, length));
  pos_ += length;
  return v;
}

void Reader::expect_done() const {
  if (!done()) {
    throw SnapshotError(std::to_string(remaining()) +
                        " trailing bytes after the last field");
  }
}

}  // namespace spfail::snapshot
