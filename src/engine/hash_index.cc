#include "engine/hash_index.h"

#include <algorithm>
#include <atomic>
#include <bit>

namespace spider {

void PathIndex::reset(std::size_t keys) {
  const std::size_t capacity =
      std::bit_ceil(std::max<std::size_t>(keys * 2, 16));
  slots_.assign(capacity, 0);
  mask_ = capacity - 1;
  size_ = 0;
}

DetachedPathIndex::DetachedPathIndex(const SnapshotTable& table,
                                     std::vector<std::uint32_t> rows)
    : rows_(std::move(rows)), index_(rows_.size()) {
  for (std::size_t pos = 0; pos < rows_.size(); ++pos) {
    const std::string_view path = table.path(rows_[pos]);
    index_.insert(static_cast<std::uint32_t>(pos),
                  table.path_hash(rows_[pos]),
                  [this, &table, path](std::uint32_t other) {
                    return table.path(rows_[other]) == path;
                  });
  }
}

PartitionedPathIndex::PartitionedPathIndex(const SnapshotTable& table,
                                           ThreadPool* pool) {
  // Ascending file-row gather, fused with the payload gather and written
  // in two phases (parallel per-chunk counts, serial prefix over chunk
  // cursors, parallel direct writes) so the row list and the classifier
  // timestamps land at their final offsets in one pass — no partial
  // vectors to splice, and the chunk layout stays a pure function of the
  // row count.
  const std::size_t n = table.size();
  const std::size_t chunks =
      n == 0 ? 0 : (n + kRadixGrainRows - 1) / kRadixGrainRows;
  std::vector<std::size_t> chunk_offsets(chunks + 1, 0);
  parallel_for_chunked(
      n, kRadixGrainRows,
      [&](std::size_t begin, std::size_t end) {
        std::size_t files = 0;
        for (std::size_t row = begin; row < end; ++row) {
          files += !table.is_dir(row);
        }
        chunk_offsets[begin / kRadixGrainRows + 1] = files;
      },
      pool);
  for (std::size_t c = 0; c < chunks; ++c) {
    chunk_offsets[c + 1] += chunk_offsets[c];
  }
  file_rows_.resize(chunk_offsets[chunks]);
  payloads_.resize(chunk_offsets[chunks]);
  parallel_for_chunked(
      n, kRadixGrainRows,
      [&](std::size_t begin, std::size_t end) {
        std::size_t w = chunk_offsets[begin / kRadixGrainRows];
        for (std::size_t row = begin; row < end; ++row) {
          if (!table.is_dir(row)) {
            file_rows_[w] = static_cast<std::uint32_t>(row);
            payloads_[w] =
                Payload{table.atime(row), table.ctime(row), table.mtime(row)};
            ++w;
          }
        }
      },
      pool);

  // Partition ordinals (not rows): matched flags and the deleted sweep in
  // the diff stay dense over files, and row_of() recovers the row.
  parts_ = radix_partition(
      file_rows_.size(), radix_bits_for(file_rows_.size()),
      [&](std::size_t i) { return table.path_hash(file_rows_[i]); },
      [](std::size_t) { return true; }, pool);

  // Per-shard capacity: power of two at load factor <= 0.5, laid out in
  // one concatenated array. Each shard's range is private to the one task
  // that builds it — distinct bytes are distinct memory locations, so the
  // build needs no atomics.
  const std::size_t parts = parts_.partition_count();
  shards_.resize(parts);
  std::size_t total = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t count = parts_.offsets[p + 1] - parts_.offsets[p];
    const std::size_t capacity =
        std::bit_ceil(std::max<std::size_t>(count * 2, 2));
    shards_[p] = ShardRef{static_cast<std::uint32_t>(total),
                          static_cast<std::uint32_t>(capacity - 1)};
    total += capacity;
  }
  slots_.resize(total);

  // Bloom pre-filter: ~16 bits per key overall, clamped so small tables
  // pay a few cache lines and huge ones stay L2-sized. Sharded like the
  // slots — each partition owns a word-aligned region (>= one word), so
  // build_shard sets its keys' bits with plain ORs, no atomics anywhere
  // in the build.
  const std::size_t bloom_bits = std::bit_ceil(std::clamp<std::size_t>(
      file_rows_.size() * 16, 1024, std::size_t{1} << 25));
  const std::uint32_t bloom_total_bits =
      static_cast<std::uint32_t>(std::bit_width(bloom_bits - 1));
  bloom_local_bits_ = bloom_total_bits > parts_.bits + 6
                          ? bloom_total_bits - parts_.bits
                          : 6;
  bloom_local_mask_ = (std::uint64_t{1} << bloom_local_bits_) - 1;
  bloom_.assign((std::size_t{1} << (parts_.bits + bloom_local_bits_)) / 64, 0);

  parallel_for(
      parts, [&](std::size_t p) { build_shard(table, p); }, pool,
      /*grain=*/1);
}

void PartitionedPathIndex::build_shard(const SnapshotTable& table,
                                       std::size_t p) {
  const ShardRef shard = shards_[p];
  Slot* base = slots_.data() + shard.base;
  const std::uint64_t mask = shard.mask;
  const std::span<const std::uint32_t> ordinals = parts_.partition_items(p);
  const std::span<const std::uint64_t> keys = parts_.partition_keys(p);
  for (std::size_t i = 0; i < ordinals.size(); ++i) {
    const std::uint32_t ordinal = ordinals[i];
    const std::uint64_t hash = keys[i];
    const std::uint64_t bloom_bit = bloom_bit_of(hash);
    bloom_[bloom_bit >> 6] |= std::uint64_t{1} << (bloom_bit & 63);
    const std::uint32_t fp = fingerprint_of(hash);
    std::uint64_t slot = hash & mask;
    for (;;) {
      Slot& entry = base[slot];
      if (entry.ordinal == kNotFound) {
        entry.fingerprint = fp;
        entry.ordinal = ordinal;
        break;
      }
      if (entry.fingerprint == fp &&
          table.path(file_rows_[entry.ordinal]) ==
              table.path(file_rows_[ordinal])) {
        break;  // duplicate path: ordinals ascend, so the first row wins
      }
      slot = (slot + 1) & mask;
    }
  }
}

}  // namespace spider
