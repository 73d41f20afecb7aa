// LEB128 varints and zig-zag transforms — the primitive integer encodings
// of the .scol columnar format and of spill partitions — plus the
// wrapping delta arithmetic and shared-prefix search that both codecs'
// delta and front coders use. Header-only; hot in the codec loops.
//
// Bulk decode (get_varints / zigzag_decode_bulk) carries an AVX2 kernel
// behind runtime dispatch: snapshot columns are dominated by one-byte
// varints (delta timestamps, RLE ids, small inode deltas), so the kernel's
// movemask fast path widens 32 single-byte values per iteration and falls
// back to scalar only around multi-byte stragglers. Acceptance semantics
// are bit-identical to the scalar loop — same values, same final position,
// same rejection of truncated and overlong (>10 byte) input — which the
// property suite enforces on random, corrupt, and truncated streams.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SPIDER_VARINT_X86 1
#include <immintrin.h>
#endif

namespace spider {

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Writes `v` as a varint at `out`, which must have room for 10 bytes, and
/// returns the byte after it: for encoders that reserve a record's worst
/// case up front and write through a pointer.
inline std::uint8_t* put_varint_at(std::uint8_t* out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(v);
  return out;
}

/// Decodes a varint at `pos`, advancing it. Returns false on truncated or
/// overlong (>10 byte) input, leaving pos unspecified.
inline bool get_varint(std::span<const std::uint8_t> in, std::size_t& pos,
                       std::uint64_t& value) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= in.size()) return false;
    const std::uint8_t byte = in[pos++];
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      value = v;
      return true;
    }
  }
  return false;
}

inline constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Signed addition through unsigned arithmetic, for applying decoded
/// deltas: corrupt payloads can produce arbitrary operands, and plain
/// `a + b` on int64 would be UB on overflow (the sanitizer suites decode
/// random damage).
inline constexpr std::int64_t wrapping_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

/// Signed subtraction through unsigned arithmetic, so that the delta of
/// two arbitrary values wraps instead of overflowing; wrapping_add undoes
/// it.
inline constexpr std::int64_t wrapping_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

/// Length of the common prefix of `a` and `b`, compared a word at a time:
/// the front coders' step for each path.
inline std::size_t shared_prefix(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t wa = 0, wb = 0;
    std::memcpy(&wa, a.data() + i, sizeof(wa));
    std::memcpy(&wb, b.data() + i, sizeof(wb));
    const std::uint64_t diff = wa ^ wb;
    if (diff != 0) {
      const int same_bits = std::endian::native == std::endian::little
                                ? std::countr_zero(diff)
                                : std::countl_zero(diff);
      return i + static_cast<std::size_t>(same_bits / 8);
    }
  }
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

inline void put_zigzag(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_varint(out, zigzag_encode(v));
}

inline bool get_zigzag(std::span<const std::uint8_t> in, std::size_t& pos,
                       std::int64_t& value) {
  std::uint64_t raw = 0;
  if (!get_varint(in, pos, raw)) return false;
  value = zigzag_decode(raw);
  return true;
}

namespace varint_detail {

/// Reference implementation: get_varint called `count` times. The SIMD
/// kernel must be indistinguishable from this, including on bad input.
inline bool get_varints_scalar(std::span<const std::uint8_t> in,
                               std::size_t& pos, std::uint64_t* out,
                               std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (!get_varint(in, pos, out[i])) return false;
  }
  return true;
}

inline void zigzag_decode_bulk_scalar(const std::uint64_t* raw,
                                      std::int64_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = zigzag_decode(raw[i]);
}

#if defined(SPIDER_VARINT_X86)

/// AVX2 bulk varint decode. A 32-byte window whose movemask is zero is 32
/// complete one-byte varints and is widened straight to u64 lanes; a
/// window with continuation bits consumes its one-byte prefix, then one
/// multi-byte varint through the scalar routine (same truncation/overlong
/// acceptance), and re-enters the vector loop.
__attribute__((target("avx2"))) inline bool get_varints_avx2(
    std::span<const std::uint8_t> in, std::size_t& pos, std::uint64_t* out,
    std::size_t count) {
  std::size_t produced = 0;
  while (produced < count) {
    if (count - produced >= 32 && in.size() >= 32 &&
        pos <= in.size() - 32) {
      const __m256i bytes = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(in.data() + pos));
      const auto cont =
          static_cast<std::uint32_t>(_mm256_movemask_epi8(bytes));
      if (cont == 0) {
        for (std::size_t k = 0; k < 32; k += 4) {
          std::uint32_t quad = 0;
          std::memcpy(&quad, in.data() + pos + k, 4);
          const __m256i wide =
              _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(quad)));
          _mm256_storeu_si256(
              reinterpret_cast<__m256i*>(out + produced + k), wide);
        }
        pos += 32;
        produced += 32;
        continue;
      }
      // One-byte values up to the first continuation byte, then one
      // multi-byte varint the slow way.
      const auto prefix = static_cast<unsigned>(std::countr_zero(cont));
      for (unsigned k = 0; k < prefix; ++k) out[produced++] = in[pos++];
      if (!get_varint(in, pos, out[produced])) return false;
      ++produced;
      continue;
    }
    if (!get_varint(in, pos, out[produced])) return false;
    ++produced;
  }
  return true;
}

/// AVX2 zig-zag: (v >> 1) ^ -(v & 1) on four lanes at a time.
__attribute__((target("avx2"))) inline void zigzag_decode_bulk_avx2(
    const std::uint64_t* raw, std::int64_t* out, std::size_t n) {
  std::size_t i = 0;
  const __m256i one = _mm256_set1_epi64x(1);
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(raw + i));
    const __m256i half = _mm256_srli_epi64(v, 1);
    const __m256i sign =
        _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_and_si256(v, one));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_xor_si256(half, sign));
  }
  for (; i < n; ++i) out[i] = zigzag_decode(raw[i]);
}

inline bool have_avx2() {
  static const bool cached = __builtin_cpu_supports("avx2") != 0;
  return cached;
}

#endif  // SPIDER_VARINT_X86

}  // namespace varint_detail

/// Decodes exactly `count` varints starting at `pos` into `out`,
/// advancing `pos` past the last one. Exactly equivalent to `count`
/// get_varint calls: false on truncated or overlong input, with `pos` and
/// `out` contents unspecified on failure.
inline bool get_varints(std::span<const std::uint8_t> in, std::size_t& pos,
                        std::uint64_t* out, std::size_t count) {
#if defined(SPIDER_VARINT_X86)
  if (varint_detail::have_avx2()) {
    return varint_detail::get_varints_avx2(in, pos, out, count);
  }
#endif
  return varint_detail::get_varints_scalar(in, pos, out, count);
}

/// Bulk zigzag_decode of `n` raw varint values (may alias in place:
/// out == (int64_t*)raw is fine — each lane is read before written).
inline void zigzag_decode_bulk(const std::uint64_t* raw, std::int64_t* out,
                               std::size_t n) {
#if defined(SPIDER_VARINT_X86)
  if (varint_detail::have_avx2()) {
    varint_detail::zigzag_decode_bulk_avx2(raw, out, n);
    return;
  }
#endif
  varint_detail::zigzag_decode_bulk_scalar(raw, out, n);
}

}  // namespace spider
