// Bounds-checked binary state serialization for the checkpoint layer
// (DESIGN.md §14): StateWriter appends primitives to a byte buffer — a
// checkpoint hands analyzers a writer over its image, so their state
// lands in place — and StateReader parses them back with every read
// validated against the remaining span — a truncated or hostile payload
// turns the reader permanently !ok() instead of reading out of bounds.
//
// Scalars are little-endian (matching the .scol framing); bulk vectors of
// trivially-copyable elements are raw memcpy. Checkpoints are host-local
// artifacts — written and resumed on the same machine between crashes —
// so cross-endian portability is explicitly out of scope, and the format
// version in the enclosing .sckpt header guards against skew.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace spider {

/// Little-endian image of an unsigned scalar: the byte order of every
/// StateWriter scalar, and what a checkpoint patches into a header it
/// reserved (study/checkpoint.cc).
template <typename T>
std::array<std::uint8_t, sizeof(T)> le_bytes(T v) {
  static_assert(std::is_unsigned_v<T>);
  std::array<std::uint8_t, sizeof(T)> b;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(b.data(), &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  return b;
}

/// Appends to a caller-owned buffer, which may already hold bytes: a
/// checkpoint writes each analyzer's state straight into its image. Every
/// method appends its value in one step.
class StateWriter {
 public:
  explicit StateWriter(std::vector<std::uint8_t>* out) : out_(out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u32(std::uint32_t v) { scalar(v); }
  void u64(std::uint64_t v) { scalar(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Exact bit pattern: doubles round-trip bit-for-bit, which the
  /// byte-identical resume guarantee requires.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void bytes(std::span<const std::uint8_t> b) {
    u64(b.size());
    append(b.data(), b.size());
  }
  void str(std::string_view s) {
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// Raw image of one trivially-copyable value (fixed size, no prefix).
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&v, sizeof(T));
  }

  /// Length-prefixed raw image of a trivially-copyable element vector.
  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    append(v.data(), v.size() * sizeof(T));
  }

  /// Count-prefixed vector of vectors (each inner one length-prefixed).
  template <typename T>
  void vec2(const std::vector<std::vector<T>>& v) {
    u64(v.size());
    for (const std::vector<T>& inner : v) vec(inner);
  }

  std::vector<std::uint8_t>* out() { return out_; }

 private:
  template <typename T>
  void scalar(T v) {
    const std::array<std::uint8_t, sizeof(T)> b = le_bytes(v);
    append(b.data(), b.size());
  }
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_->insert(out_->end(), b, b + n);
  }

  std::vector<std::uint8_t>* out_;
};

class StateReader {
 public:
  explicit StateReader(std::span<const std::uint8_t> in) : in_(in) {}

  bool ok() const { return ok_; }
  /// True when every byte was consumed — load paths check this to reject
  /// payloads with trailing garbage.
  bool exhausted() const { return ok_ && pos_ == in_.size(); }
  std::size_t remaining() const { return in_.size() - pos_; }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return in_[pos_ - 1];
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(in_[pos_ - 4 + i]) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(in_[pos_ - 8 + i]) << (8 * i);
    }
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  bool bytes(std::vector<std::uint8_t>* out) {
    const std::uint64_t n = u64();
    if (!take(n)) return false;
    out->assign(in_.begin() + static_cast<std::ptrdiff_t>(pos_ - n),
                in_.begin() + static_cast<std::ptrdiff_t>(pos_));
    return true;
  }
  bool str(std::string* out) {
    const std::uint64_t n = u64();
    if (!take(n)) return false;
    out->assign(reinterpret_cast<const char*>(in_.data()) + (pos_ - n), n);
    return true;
  }

  template <typename T>
  bool pod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!take(sizeof(T))) return false;
    std::memcpy(out, in_.data() + pos_ - sizeof(T), sizeof(T));
    return true;
  }

  template <typename T>
  bool vec(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = u64();
    // Overflow-safe size check before multiplying.
    if (!ok_ || count > remaining() / sizeof(T)) return fail();
    const std::size_t n = static_cast<std::size_t>(count) * sizeof(T);
    take(n);
    out->resize(static_cast<std::size_t>(count));
    if (n > 0) std::memcpy(out->data(), in_.data() + pos_ - n, n);
    return true;
  }

  template <typename T>
  bool vec2(std::vector<std::vector<T>>* out) {
    const std::uint64_t count = u64();
    // Every inner vector carries at least its 8-byte count.
    if (!ok_ || count > remaining() / 8) return fail();
    out->assign(static_cast<std::size_t>(count), {});
    for (std::vector<T>& inner : *out) {
      if (!vec(&inner)) return false;
    }
    return true;
  }

 private:
  bool take(std::uint64_t n) {
    if (!ok_ || n > in_.size() - pos_) return fail();
    pos_ += static_cast<std::size_t>(n);
    return true;
  }
  bool fail() {
    ok_ = false;
    return false;
  }

  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace spider
