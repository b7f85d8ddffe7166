// The one file frame every persisted file kind shares (DESIGN.md §11).
//
// Layout: magic[8] | u16 version | u32 body length | body | u64 XXH64 of the
// body (seed 0). A file is one body: no sections, no extension point. Study
// checkpoints (StudySnapshot) and the service state file (svc_state) are the
// two kinds; each names its own magic, and both are read and written at one
// format version. This module is the only code that knows the frame.
//
// Writing appends in place: begin_file() writes the header into the caller's
// Writer and returns the length slot, the caller appends the body, and
// end_file() patches the length and appends the checksum — the body is never
// copied. Reading checks magic, version, length and checksum, in that order,
// and returns a view of the body; callers decode it with a Reader and end
// with expect_done().
//
// Only kFormatVersion is read: an older or newer file is refused with its
// version number, never guessed at. The version is a u16 so that both
// version-1 layouts (the snapshot's u32 1 and the service state's u16 1, each
// right after its magic) read as version 1 and are refused by number, as is
// version 2 (the same frame under an FNV-1a checksum, with wider fields).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "snapshot/codec.hpp"

namespace spfail::snapshot {

// The format version every file kind is written at, and the only one read.
inline constexpr std::uint16_t kFormatVersion = 3;

// One persisted file kind: its magic, and the noun rejections name it by.
struct FileFormat {
  char magic[8];
  const char* name;
};

inline constexpr FileFormat kSnapshotFile = {
    {'S', 'P', 'F', 'S', 'N', 'A', 'P', '\0'}, "snapshot"};
inline constexpr FileFormat kSvcStateFile = {
    {'S', 'P', 'F', 'S', 'V', 'C', '0', '1'}, "svc state"};

// The frame checksum: XXH64 with seed 0, as the xxHash specification
// (doc/xxhash_spec.md) defines it, on any host byte order.
std::uint64_t checksum(std::string_view body) noexcept;

// Writes the header of a `format` file to `w` and returns the offset of its
// body-length slot, for end_file().
std::size_t begin_file(Writer& w, const FileFormat& format);

// Closes the file begin_file() opened at `slot`: everything written since is
// the body. Patches its length and appends its checksum.
void end_file(Writer& w, std::size_t slot);

// The body of a `format` file. Throws SnapshotError on a wrong magic, any
// version but kFormatVersion, a body length that does not match the bytes
// framed (truncation or trailing bytes), or a checksum mismatch.
std::string_view open_file(std::string_view bytes, const FileFormat& format);

}  // namespace spfail::snapshot
