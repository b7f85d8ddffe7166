// Binary encode/decode primitives for the checkpoint format (DESIGN.md §11).
//
// Little-endian, explicitly sized fields; strings and blobs are u32
// length-prefixed. The writer is append-only; the reader throws
// SnapshotError on truncation, trailing garbage, or any value that fails
// validation — a snapshot either decodes exactly or not at all, it is never
// silently patched up.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace spfail::snapshot {

// Every decode/validation failure in the snapshot layer surfaces as this.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("snapshot: " + what) {}
};

class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { unsigned_le(v, 2); }
  void u32(std::uint32_t v) { unsigned_le(v, 4); }
  void u64(std::uint64_t v) { unsigned_le(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);  // IEEE-754 bit pattern
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view v);
  // Already-encoded bytes, appended verbatim (no length prefix).
  void raw(std::string_view v) { bytes_.append(v.data(), v.size()); }

  // A u32 length prefix written ahead of its body: open_length() writes a
  // placeholder and returns its offset, close_length() patches in the count
  // of bytes written since. Throws if that count exceeds a u32.
  std::size_t open_length();
  void close_length(std::size_t at);

  void reserve(std::size_t capacity) { bytes_.reserve(capacity); }
  const std::string& bytes() const noexcept { return bytes_; }
  std::string take() { return std::move(bytes_); }

 private:
  void unsigned_le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      bytes_.push_back(static_cast<char>(v & 0xFF));
      v >>= 8;
    }
  }

  std::string bytes_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(unsigned_le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(unsigned_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(unsigned_le(4)); }
  std::uint64_t u64() { return unsigned_le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean();
  std::string str();

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool done() const noexcept { return pos_ == bytes_.size(); }
  // Throws unless every byte was consumed.
  void expect_done() const;

 private:
  std::uint64_t unsigned_le(int width);

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace spfail::snapshot
