// Aggregation helpers beside the flat tables (flat_map.h, dict.h):
// generic count maps with deterministic top-k, top-k over
// dictionary-encoded counts, and a radix-sharded distinct-key set built
// in parallel (DESIGN.md §12).
//
// The pattern mirrors the paper's SparkSQL aggregations: each thread folds
// rows into private state, partials merge in chunk order. Results are
// bit-identical run to run — important because the calibration tests
// assert on exact counts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/dict.h"
#include "engine/flat_map.h"
#include "engine/partition.h"
#include "util/parallel.h"

namespace spider {

template <typename Key>
using CountMap = std::unordered_map<Key, std::uint64_t>;

/// Distinct 64-bit keys sharded by the top key bits: the union of many key
/// spans built fully in parallel (one task per radix partition, no
/// atomics), for high-cardinality set merges — the census parent-directory
/// union is the canonical user. Keys must be well-mixed (path hashes):
/// partitioning uses the top bits, the identity-mixed shards the low bits.
class PartitionedU64Set {
 public:
  /// Rebuilds the set as the union of all keys in `spans`.
  void build(std::span<const std::span<const std::uint64_t>> spans,
             ThreadPool* pool = nullptr) {
    std::size_t total = 0;
    std::vector<std::size_t> offsets(spans.size() + 1, 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      offsets[i + 1] = offsets[i] + spans[i].size();
      total += spans[i].size();
    }
    parts_.clear();
    bits_ = radix_bits_for(total);
    if (total == 0) return;

    std::vector<std::uint64_t> flat(total);
    parallel_for(
        spans.size(),
        [&](std::size_t i) {
          std::copy(spans[i].begin(), spans[i].end(),
                    flat.begin() + static_cast<std::ptrdiff_t>(offsets[i]));
        },
        pool, /*grain=*/1);

    const RadixPartitions parts = radix_partition(
        total, bits_, [&](std::size_t i) { return flat[i]; },
        [](std::size_t) { return true; }, pool);

    parts_.resize(parts.partition_count());
    parallel_for(
        parts.partition_count(),
        [&](std::size_t p) {
          const auto keys = parts.partition_keys(p);
          FlatSet<IdentityKeyMix> set(keys.size());
          for (const std::uint64_t key : keys) set.insert(key);
          parts_[p] = std::move(set);
        },
        pool, /*grain=*/1);
  }

  bool contains(std::uint64_t key) const {
    if (parts_.empty()) return false;
    return parts_[RadixPartitions::partition_of(key, bits_)].contains(key);
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& part : parts_) total += part.size();
    return total;
  }

 private:
  std::uint32_t bits_ = 0;
  std::vector<FlatSet<IdentityKeyMix>> parts_;
};

/// Largest-count-first top-k; ties break on key order so output is stable.
template <typename Key>
std::vector<std::pair<Key, std::uint64_t>> top_k(const CountMap<Key>& counts,
                                                 std::size_t k) {
  std::vector<std::pair<Key, std::uint64_t>> entries(counts.begin(),
                                                     counts.end());
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (entries.size() > k) entries.resize(k);
  return entries;
}

/// Top-k over dictionary-encoded counts (`counts[id]` for ids of `dict`);
/// ties break on the interned NAME — not the id — so the ranking is
/// independent of intern order and matches the string-keyed top_k exactly.
/// Returns (id, count) pairs.
inline std::vector<std::pair<std::uint32_t, std::uint64_t>> top_k_dict(
    const std::vector<std::uint64_t>& counts, const StringDict& dict,
    std::size_t k) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> entries;
  for (std::uint32_t id = 0; id < counts.size() && id < dict.size(); ++id) {
    if (counts[id] > 0) entries.emplace_back(id, counts[id]);
  }
  std::sort(entries.begin(), entries.end(),
            [&dict](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return dict.name(a.first) < dict.name(b.first);
            });
  if (entries.size() > k) entries.resize(k);
  return entries;
}

}  // namespace spider
