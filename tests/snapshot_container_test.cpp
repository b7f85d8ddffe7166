// The one file frame (snapshot/container.hpp) both persisted file kinds
// share: its layout and XXH64 checksum, and the rejections every decoder
// inherits from it — wrong magic, versions 1 and 2 as the previous layouts
// wrote them, a future version, a bad body length, truncation, trailing
// bytes and a corrupt checksum. Each case runs for both formats: study
// checkpoints and svc_state.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "scratch_path.hpp"
#include "snapshot/container.hpp"
#include "snapshot/snapshot.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace spfail::snapshot {
namespace {

constexpr const FileFormat* kFormats[] = {&kSnapshotFile, &kSvcStateFile};

// A small file of `format` around `body`.
std::string framed(const FileFormat& format, std::string_view body) {
  Writer w;
  const std::size_t slot = begin_file(w, format);
  w.raw(body);
  end_file(w, slot);
  return w.take();
}

std::string small_body() {
  Writer w;
  w.u64(0x0123456789ABCDEFULL);
  w.str("body");
  w.boolean(true);
  return w.take();
}

// Expects open_file to refuse `bytes` with a message containing `needle`.
void expect_refused(std::string_view bytes, const FileFormat& format,
                    const std::string& needle, const std::string& which) {
  try {
    (void)open_file(bytes, format);
    ADD_FAILURE() << format.name << ": " << which << " opened";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << format.name << ": " << which << ": " << e.what();
  }
}

TEST(SnapshotContainer, RoundTripsAndPinsTheLayout) {
  const std::string body = small_body();
  for (const FileFormat* format : kFormats) {
    const std::string file = framed(*format, body);
    ASSERT_EQ(file.size(), 8 + 2 + 4 + body.size() + 8) << format->name;
    EXPECT_EQ(file.substr(0, 8), std::string(format->magic, 8));
    Reader head(std::string_view(file).substr(8, 6));
    EXPECT_EQ(head.u16(), kFormatVersion);
    EXPECT_EQ(head.u32(), body.size());
    EXPECT_EQ(file.substr(14, body.size()), body);
    Reader tail(std::string_view(file).substr(14 + body.size()));
    EXPECT_EQ(tail.u64(), checksum(body));
    EXPECT_EQ(open_file(file, *format), body) << format->name;
    EXPECT_EQ(open_file(framed(*format, ""), *format), "") << format->name;
  }
}

TEST(SnapshotContainer, ChecksumMatchesXxh64ReferenceVectors) {
  // XXH64 with seed 0, from the xxHash reference implementation.
  EXPECT_EQ(checksum(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(checksum("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(checksum("abc"), 0x44BC2CF5AD770999ULL);
}

TEST(SnapshotContainer, ChecksumCatchesTwoFlipsOfOneBitPosition) {
  // A word-wise FNV-1a, h = (h ^ w) * P, keeps a flip of bit 63 as exactly
  // bit 63 through every odd multiply, so two such flips in different words
  // cancel. The frame checksum must see them; so must every single flip and
  // every pair of flips of the same bit in two words, at each length that
  // takes another path through the hash (stripes, 8-, 4- and 1-byte tails).
  for (const std::size_t size : {std::size_t{7}, std::size_t{13},
                                 std::size_t{31}, std::size_t{64},
                                 std::size_t{77}}) {
    std::string body(size, '\0');
    for (std::size_t i = 0; i < size; ++i) {
      body[i] = static_cast<char>(i * 37 + 11);
    }
    const std::uint64_t clean = checksum(body);
    for (std::size_t i = 0; i < size; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string once = body;
        once[i] ^= static_cast<char>(1 << bit);
        EXPECT_NE(checksum(once), clean) << size << " byte " << i;
        if (i + 8 < size) {
          once[i + 8] ^= static_cast<char>(1 << bit);
          EXPECT_NE(checksum(once), clean)
              << size << " bytes " << i << " and " << i + 8;
        }
      }
    }
  }
}

TEST(SnapshotContainer, RejectsBadMagic) {
  for (const FileFormat* format : kFormats) {
    const std::string file = framed(*format, small_body());
    for (std::size_t i = 0; i < 8; ++i) {
      std::string bad = file;
      bad[i] ^= 0x20;
      expect_refused(bad, *format, "bad magic",
                     "magic byte " + std::to_string(i));
    }
  }
  // Each kind refuses the other.
  expect_refused(framed(kSvcStateFile, small_body()), kSnapshotFile,
                 "not an spfail snapshot", "an svc_state file");
  expect_refused(framed(kSnapshotFile, small_body()), kSvcStateFile,
                 "not an spfail svc state", "a snapshot file");
}

TEST(SnapshotContainer, RejectsATrailingByte) {
  for (const FileFormat* format : kFormats) {
    expect_refused(framed(*format, small_body()) + "x", *format,
                   "body length", "a trailing byte");
  }
}

TEST(SnapshotContainer, RejectsEveryTruncation) {
  for (const FileFormat* format : kFormats) {
    const std::string file = framed(*format, small_body());
    for (std::size_t cut = 0; cut < file.size(); ++cut) {
      EXPECT_THROW(open_file(std::string_view(file).substr(0, cut), *format),
                   SnapshotError)
          << format->name << ": truncation at " << cut;
    }
  }
}

TEST(SnapshotContainer, RejectsAFlippedChecksumByte) {
  for (const FileFormat* format : kFormats) {
    const std::string file = framed(*format, small_body());
    for (std::size_t i = file.size() - 8; i < file.size(); ++i) {
      std::string bad = file;
      bad[i] ^= 0x01;
      expect_refused(bad, *format, "checksum mismatch",
                     "checksum byte " + std::to_string(i));
    }
    // A flipped body byte fails the same check.
    std::string bad = file;
    bad[14] ^= 0x01;
    expect_refused(bad, *format, "checksum mismatch", "a body byte");
  }
}

TEST(SnapshotContainer, RejectsABodyLengthOneShortOrLong) {
  for (const FileFormat* format : kFormats) {
    const std::string body = small_body();
    const std::string file = framed(*format, body);
    for (const std::size_t length : {body.size() - 1, body.size() + 1}) {
      Writer patch;
      patch.u32(static_cast<std::uint32_t>(length));
      std::string bad = file;
      bad.replace(10, 4, patch.bytes());
      expect_refused(bad, *format, "body length",
                     "length " + std::to_string(length));
    }
  }
}

// The version-1 files the previous layouts wrote, byte for byte: the
// snapshot put a u32 version and its meta block outside the checksummed,
// u32-length-prefixed payload; svc_state put a u16 version and no length.
std::string version1_snapshot() {
  const std::string payload = small_body();
  Writer w;
  for (const char c : kSnapshotFile.magic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(1);
  w.u8(static_cast<std::uint8_t>(SnapshotKind::Study));
  w.u64(2021);      // fleet seed
  w.f64(0.01);      // scale
  w.u64(20211011);  // study seed
  w.u64(0xFA171);   // fault seed
  w.f64(0.0);       // fault rate
  w.boolean(false);  // tracing
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  w.u64(util::fnv1a(payload));
  return w.take();
}

// A version-2 file as the previous build wrote it: this frame, with the
// body's FNV-1a-64 where XXH64 sits now.
std::string version2_file(const FileFormat& format, std::string_view body) {
  Writer w;
  for (const char c : format.magic) w.u8(static_cast<std::uint8_t>(c));
  w.u16(2);
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.raw(body);
  w.u64(util::fnv1a(body));
  return w.take();
}

std::string version1_svc_state() {
  const std::string payload = small_body();
  Writer w;
  for (const char c : kSvcStateFile.magic) w.u8(static_cast<std::uint8_t>(c));
  w.u16(1);
  w.raw(payload);
  w.u64(util::fnv1a(payload));
  return w.take();
}

// Both decoders behind the frame refuse `snapshot` and `svc_state` with a
// message containing `needle`: StudySnapshot::decode, and a service that
// restores `svc_state` from its directory. spfail_scan and spfail_svc map
// that SnapshotError to exit 2.
void expect_decoders_refuse(const std::string& snapshot,
                            const std::string& svc_state,
                            const std::string& needle,
                            const std::string& which) {
  try {
    (void)StudySnapshot::decode(snapshot);
    ADD_FAILURE() << which << " snapshot decoded";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
  svc::SvcConfig config;
  config.dir = testutil::scratch_path("container_svc");
  std::filesystem::remove_all(config.dir);
  std::filesystem::create_directories(config.dir);
  {
    std::ofstream out(config.dir + "/svc_state",
                      std::ios::binary | std::ios::trunc);
    out << svc_state;
  }
  try {
    svc::ServiceLoop loop(config);
    (void)loop.run();
    ADD_FAILURE() << which << " svc_state restored";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(config.dir);
}

TEST(SnapshotContainer, RefusesVersionOneAsThePreviousLayoutsWroteIt) {
  const std::string v1_snapshot = version1_snapshot();
  const std::string v1_state = version1_svc_state();
  expect_refused(v1_snapshot, kSnapshotFile,
                 "unsupported snapshot format version 1 (this build reads 3)",
                 "a version-1 snapshot");
  expect_refused(v1_state, kSvcStateFile,
                 "unsupported svc state format version 1 (this build reads 3)",
                 "a version-1 svc_state");
  expect_decoders_refuse(v1_snapshot, v1_state,
                         "format version 1 (this build reads 3)",
                         "a version-1");
}

TEST(SnapshotContainer, RefusesVersionTwoAsThePreviousBuildWroteIt) {
  // The start of each version-2 body (the snapshot's meta block, the
  // service state's counters) under the FNV-1a frame: the version is refused
  // before any of it is read.
  Writer snapshot_body;
  snapshot_body.u8(static_cast<std::uint8_t>(SnapshotKind::Study));
  snapshot_body.u64(2021);      // fleet seed
  snapshot_body.f64(0.01);      // scale
  snapshot_body.u64(20211011);  // study seed
  Writer state_body;
  state_body.u64(3);        // completed ticks
  state_body.u64(1);        // seq counter
  state_body.u64(2);        // commands consumed
  state_body.boolean(false);
  const std::string v2_snapshot =
      version2_file(kSnapshotFile, snapshot_body.bytes());
  const std::string v2_state = version2_file(kSvcStateFile, state_body.bytes());
  expect_refused(v2_snapshot, kSnapshotFile,
                 "unsupported snapshot format version 2 (this build reads 3)",
                 "a version-2 snapshot");
  expect_refused(v2_state, kSvcStateFile,
                 "unsupported svc state format version 2 (this build reads 3)",
                 "a version-2 svc_state");
  expect_decoders_refuse(v2_snapshot, v2_state,
                         "format version 2 (this build reads 3)",
                         "a version-2");
}

TEST(SnapshotContainer, RefusesVersionsTwoAndFour) {
  for (const FileFormat* format : kFormats) {
    for (const std::uint16_t version : {2, 4}) {
      std::string file = framed(*format, small_body());
      Writer patch;
      patch.u16(version);
      file.replace(8, 2, patch.bytes());
      expect_refused(file, *format,
                     "format version " + std::to_string(version) +
                         " (this build reads 3)",
                     "version " + std::to_string(version));
    }
  }
}

}  // namespace
}  // namespace spfail::snapshot
