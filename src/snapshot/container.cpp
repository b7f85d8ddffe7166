#include "snapshot/container.hpp"

#include <bit>
#include <cstring>
#include <string>

namespace spfail::snapshot {

namespace {

constexpr std::size_t kHeaderBytes = 8 + 2 + 4;  // magic, version, length
constexpr std::size_t kChecksumBytes = 8;

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

// Little-endian loads through memcpy: no unaligned read, any host order.
std::uint64_t load64(const char* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

std::uint32_t load32(const char* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t lane) noexcept {
  acc += lane * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

std::uint64_t merge_round(std::uint64_t acc, std::uint64_t v) noexcept {
  acc ^= lane_round(0, v);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t checksum(std::string_view body) noexcept {
  const char* p = body.data();
  const char* const end = p + body.size();
  std::uint64_t acc = 0;
  if (body.size() >= 32) {
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = lane_round(v1, load64(p));
      v2 = lane_round(v2, load64(p + 8));
      v3 = lane_round(v3, load64(p + 16));
      v4 = lane_round(v4, load64(p + 24));
    }
    acc = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
          std::rotl(v4, 18);
    acc = merge_round(acc, v1);
    acc = merge_round(acc, v2);
    acc = merge_round(acc, v3);
    acc = merge_round(acc, v4);
  } else {
    acc = kPrime5;
  }
  acc += body.size();
  for (; end - p >= 8; p += 8) {
    acc ^= lane_round(0, load64(p));
    acc = std::rotl(acc, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    acc ^= load32(p) * kPrime1;
    acc = std::rotl(acc, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    acc ^= static_cast<std::uint8_t>(*p) * kPrime5;
    acc = std::rotl(acc, 11) * kPrime1;
  }
  acc ^= acc >> 33;
  acc *= kPrime2;
  acc ^= acc >> 29;
  acc *= kPrime3;
  acc ^= acc >> 32;
  return acc;
}

std::size_t begin_file(Writer& w, const FileFormat& format) {
  for (const char c : format.magic) w.u8(static_cast<std::uint8_t>(c));
  w.u16(kFormatVersion);
  return w.open_length();
}

void end_file(Writer& w, std::size_t slot) {
  w.close_length(slot);
  w.u64(checksum(std::string_view(w.bytes()).substr(slot + 4)));
}

std::string_view open_file(std::string_view bytes, const FileFormat& format) {
  const std::string name = format.name;
  Reader head(bytes.substr(0, kHeaderBytes));
  for (const char expected : format.magic) {
    if (head.u8() != static_cast<std::uint8_t>(expected)) {
      throw SnapshotError("bad magic (not an spfail " + name + ")");
    }
  }
  const std::uint16_t version = head.u16();
  if (version != kFormatVersion) {
    throw SnapshotError("unsupported " + name + " format version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kFormatVersion) + ")");
  }
  const std::uint64_t length = head.u32();
  const std::size_t framed = bytes.size() - kHeaderBytes;
  if (framed != length + kChecksumBytes) {
    throw SnapshotError(name + " body length " + std::to_string(length) +
                        " does not match the " + std::to_string(framed) +
                        " bytes framed after the header");
  }
  const std::string_view body = bytes.substr(kHeaderBytes, length);
  if (Reader(bytes.substr(kHeaderBytes + length)).u64() != checksum(body)) {
    throw SnapshotError(name + " checksum mismatch (corrupt file)");
  }
  return body;
}

}  // namespace spfail::snapshot
