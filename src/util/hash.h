// Hashing primitives shared by the engine's hash tables and file formats.
//
// Two string hashes, each with one job:
//
//   * hash_bytes — for bytes whose hash is written into a file or decides
//     generated bytes: .scol payload checksums, .sckpt section checksums
//     and table fingerprints, spill block and directory checksums, the
//     generator's path-uniqueness set (and engine/dict.h's short
//     extension strings). Changing it changes files on disk (every
//     existing .scol would read as corrupt) or the generated series, so
//     it stays as it is.
//   * hash_path — for in-memory path keys: the snapshot table's path_hash
//     column, and every hash compared against it (census's parent hashes,
//     the runner's first-seen map, the diff's path indexes, spill
//     partitions). It is about 3.5x faster on the study's paths (mean
//     164 B), and nothing it computes outlives the process except through
//     a checkpoint, which fingerprints it (checkpoint_hash_probe).
//
// Both are seed-stable across platforms — std::hash is not, and
// reproducibility of shard assignment matters for deterministic parallel
// aggregation output. Neither is cryptographic.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace spider {

/// Final avalanche mix (from MurmurHash3 / SplitMix64 family).
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::uint64_t load_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// 64-bit string hash: unrolled 8-byte blocks with multiply-rotate mixing,
/// tail folded in, avalanche finish. Each block waits on the previous
/// one's mix, so it runs at about 1.4 bytes per ns; keep it to the file
/// formats listed above.
inline std::uint64_t hash_bytes(std::string_view s,
                                std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
  std::uint64_t h = seed ^ (static_cast<std::uint64_t>(s.size()) *
                            0x9e3779b97f4a7c15ULL);
  const char* p = s.data();
  std::size_t n = s.size();
  while (n >= 8) {
    h = mix64(h ^ load_u64(p));
    h *= 0x2545f4914f6cdd1dULL;
    p += 8;
    n -= 8;
  }
  std::uint64_t tail = 0;
  for (std::size_t i = 0; i < n; ++i) {
    tail |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
            << (8 * i);
  }
  h = mix64(h ^ tail);
  return mix64(h);
}

namespace hash_detail {

inline constexpr std::uint64_t kPathSecret[4] = {
    0x2d358dccaa6c78a5ULL, 0x8bb84b93962eacc9ULL, 0x4b33a62ed433d4a3ULL,
    0x4d5a2da51de1aa47ULL};

inline std::uint64_t load_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// The 128-bit product of a and b, folded to 64 bits (low ^ high).
inline std::uint64_t mul_fold(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(r) ^ static_cast<std::uint64_t>(r >> 64);
}

}  // namespace hash_detail

/// 64-bit path hash in the style of wyhash: 64x64 -> 128-bit multiplies
/// folded to 64 bits. Three independent lanes take 48-byte stripes, so
/// their multiplies overlap; 16-byte steps take the rest, and a final read
/// covers the last 16 bytes (overlapping what came before). The length is
/// folded in at the end. Strings of at most 16 bytes take two overlapping
/// reads and no loop.
inline std::uint64_t hash_path(std::string_view s) {
  using hash_detail::kPathSecret;
  using hash_detail::load_u32;
  using hash_detail::mul_fold;
  const char* p = s.data();
  const std::size_t n = s.size();
  std::uint64_t seed = mul_fold(kPathSecret[0], kPathSecret[1]);
  std::uint64_t a = 0, b = 0;
  if (n <= 16) {
    if (n >= 4) {
      // Two 4-byte reads from each end, the inner ones 4 bytes in once
      // n >= 8: together they cover every byte.
      const std::size_t in = (n >> 3) << 2;
      a = (load_u32(p) << 32) | load_u32(p + in);
      b = (load_u32(p + n - 4) << 32) | load_u32(p + n - 4 - in);
    } else if (n > 0) {
      const auto byte = [p](std::size_t i) {
        return static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]));
      };
      a = (byte(0) << 16) | (byte(n >> 1) << 8) | byte(n - 1);
    }
  } else {
    std::size_t i = n;
    if (i > 48) {
      std::uint64_t lane1 = seed, lane2 = seed;
      do {
        seed = mul_fold(load_u64(p) ^ kPathSecret[1], load_u64(p + 8) ^ seed);
        lane1 = mul_fold(load_u64(p + 16) ^ kPathSecret[2],
                         load_u64(p + 24) ^ lane1);
        lane2 = mul_fold(load_u64(p + 32) ^ kPathSecret[3],
                         load_u64(p + 40) ^ lane2);
        p += 48;
        i -= 48;
      } while (i > 48);
      seed ^= lane1 ^ lane2;
    }
    while (i > 16) {
      seed = mul_fold(load_u64(p) ^ kPathSecret[1], load_u64(p + 8) ^ seed);
      p += 16;
      i -= 16;
    }
    a = load_u64(p + i - 16);
    b = load_u64(p + i - 8);
  }
  const unsigned __int128 r =
      static_cast<unsigned __int128>(a ^ kPathSecret[1]) * (b ^ seed);
  return mul_fold(static_cast<std::uint64_t>(r) ^ kPathSecret[0] ^ n,
                  static_cast<std::uint64_t>(r >> 64) ^ kPathSecret[1]);
}

/// Combine two hashes (boost::hash_combine style but 64-bit).
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4)));
}

}  // namespace spider
