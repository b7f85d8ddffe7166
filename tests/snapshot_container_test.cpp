// The one file frame (snapshot/container.hpp) both persisted file kinds
// share: its layout, and the rejections every decoder inherits from it —
// wrong magic, version 1 as the previous layouts wrote it, a future version,
// a bad body length, truncation, trailing bytes and a corrupt checksum. Each
// case runs for both formats: study checkpoints and svc_state.
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
    EXPECT_EQ(tail.u64(), util::fnv1a(body));
    EXPECT_EQ(open_file(file, *format), body) << format->name;
    EXPECT_EQ(open_file(framed(*format, ""), *format), "") << format->name;
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
  w.str(payload);
  w.u64(util::fnv1a(payload));
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

TEST(SnapshotContainer, RefusesVersionOneAsThePreviousLayoutsWroteIt) {
  const std::string v1_snapshot = version1_snapshot();
  const std::string v1_state = version1_svc_state();
  expect_refused(v1_snapshot, kSnapshotFile,
                 "unsupported snapshot format version 1 (this build reads 2)",
                 "a version-1 snapshot");
  expect_refused(v1_state, kSvcStateFile,
                 "unsupported svc state format version 1 (this build reads 2)",
                 "a version-1 svc_state");

  // The decoders behind both files refuse them the same way.
  try {
    (void)StudySnapshot::decode(v1_snapshot);
    ADD_FAILURE() << "a version-1 snapshot decoded";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("format version 1 (this build "
                                         "reads 2)"),
              std::string::npos)
        << e.what();
  }
  svc::SvcConfig config;
  config.dir = testutil::scratch_path("container_v1_svc");
  std::filesystem::remove_all(config.dir);
  std::filesystem::create_directories(config.dir);
  {
    std::ofstream out(config.dir + "/svc_state",
                      std::ios::binary | std::ios::trunc);
    out << v1_state;
  }
  try {
    svc::ServiceLoop loop(config);
    (void)loop.run();
    ADD_FAILURE() << "a version-1 svc_state restored";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("format version 1 (this build "
                                         "reads 2)"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(config.dir);
}

TEST(SnapshotContainer, RefusesVersionThree) {
  for (const FileFormat* format : kFormats) {
    std::string file = framed(*format, small_body());
    Writer patch;
    patch.u16(3);
    file.replace(8, 2, patch.bytes());
    expect_refused(file, *format, "format version 3 (this build reads 2)",
                   "version 3");
  }
}

}  // namespace
}  // namespace spfail::snapshot
