#include "snapshot/container.hpp"

#include <string>

#include "util/rng.hpp"

namespace spfail::snapshot {

namespace {

constexpr std::size_t kHeaderBytes = 8 + 2 + 4;  // magic, version, length
constexpr std::size_t kChecksumBytes = 8;

}  // namespace

std::size_t begin_file(Writer& w, const FileFormat& format) {
  for (const char c : format.magic) w.u8(static_cast<std::uint8_t>(c));
  w.u16(kFormatVersion);
  return w.open_length();
}

void end_file(Writer& w, std::size_t slot) {
  w.close_length(slot);
  w.u64(util::fnv1a(std::string_view(w.bytes()).substr(slot + 4)));
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
  if (Reader(bytes.substr(kHeaderBytes + length)).u64() !=
      util::fnv1a(body)) {
    throw SnapshotError(name + " checksum mismatch (corrupt file)");
  }
  return body;
}

}  // namespace spfail::snapshot
