// Path -> row hash indexes for the diff join (Fig 13): the previous week's
// snapshot is indexed once, then the current week's rows probe it in
// parallel.
//
// Two shapes:
//
//   PathIndex — one open-addressing slot table over positions of any keyed
//   column set, whose compare the caller supplies. Serial build.
//   DetachedPathIndex indexes a week's directory rows with it, and the
//   spill join (engine/spill.h) its mapped partition records.
//
//   PartitionedPathIndex — the radix-partitioned build side (DESIGN.md
//   §11): file rows are partitioned by the top bits of the path hash
//   (engine/partition.h), then each partition's shard is built by one task
//   with no atomics — the shard's slot range is private to it.
//
// Both store a hash fingerprint inside the 8-byte slot itself, so probe
// misses — the common case when the current week has grown — resolve
// inside one compact slot array without ever touching the previous week's
// hash column or path arena. The adjacent-week probe workload is
// miss-dominated and latency-bound; PathIndex exposes prefetch() so probe
// loops can overlap slot-line misses a few rows ahead, and the
// partitioned index goes further with an L2-resident Bloom pre-filter
// that answers most misses without touching the slot array at all.
//
// Both confirm fingerprint matches with a full path comparison (PathIndex
// through its caller's compare), so hash collisions cost a compare but
// never a wrong answer.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "engine/partition.h"
#include "snapshot/table.h"
#include "util/parallel.h"

namespace spider {

class PathIndex {
 public:
  static constexpr std::uint32_t kNotFound = 0xffff'ffffu;

  /// An empty index with room for `keys` positions (see reset()). insert()
  /// fills it and find() reads it. The index holds no reference to the
  /// columns its positions stand for: the caller's compare confirms every
  /// fingerprint hit, so any keyed column set can be indexed (the spill
  /// join indexes mapped partition records).
  explicit PathIndex(std::size_t keys = 0) { reset(keys); }

  /// Empties the index and sizes it for at most `keys` insertions at load
  /// factor <= 0.5 (linear-probe chains stay short). Keeps the slot
  /// array's capacity, so an index reused across partitions allocates
  /// only when one outgrows the last.
  void reset(std::size_t keys);

  /// Adds position `pos` under `hash`, unless a position already stored
  /// under an equal fingerprint is the same key — `same_key(other)` says
  /// so — in which case the first position stays. Serial.
  template <typename SameKey>
  void insert(std::uint32_t pos, std::uint64_t hash, SameKey&& same_key) {
    const std::uint64_t entry =
        (static_cast<std::uint64_t>(fingerprint_of(hash)) << 32) |
        (static_cast<std::uint64_t>(pos) + 1);
    std::uint64_t slot = hash & mask_;
    for (;;) {
      const std::uint64_t stored = slots_[slot];
      if (static_cast<std::uint32_t>(stored) == 0) {
        slots_[slot] = entry;
        ++size_;
        return;
      }
      if ((stored >> 32) == (entry >> 32) &&
          same_key(static_cast<std::uint32_t>(stored) - 1)) {
        return;  // duplicate key: keep the first position
      }
      slot = (slot + 1) & mask_;
    }
  }

  /// The position stored under `hash` whose key `is_key(pos)` confirms, or
  /// kNotFound. Thread-safe. Defined inline: the diff probe calls this
  /// once per current-week row, and keeping the slot walk inlined into
  /// that loop is worth ~2x on the probe phase.
  template <typename IsKey>
  std::uint32_t find(std::uint64_t hash, IsKey&& is_key) const {
    const std::uint32_t fp = fingerprint_of(hash);
    std::uint64_t slot = hash & mask_;
    for (;;) {
      const std::uint64_t stored = slots_[slot];
      if (static_cast<std::uint32_t>(stored) == 0) return kNotFound;
      if (static_cast<std::uint32_t>(stored >> 32) == fp) {
        const std::uint32_t pos = static_cast<std::uint32_t>(stored) - 1;
        if (is_key(pos)) return pos;
      }
      slot = (slot + 1) & mask_;
    }
  }

  /// Pulls the slot line a future find(hash, ...) will start at into
  /// cache. Probe loops call this a fixed distance ahead.
  void prefetch(std::uint64_t hash) const {
    __builtin_prefetch(slots_.data() + (hash & mask_));
  }

  std::size_t size() const { return size_; }

 private:
  /// Top 32 bits of the hash: disjoint from the low slot-selector bits, so
  /// the in-slot filter adds information instead of echoing them.
  static constexpr std::uint32_t fingerprint_of(std::uint64_t hash) {
    return static_cast<std::uint32_t>(hash >> 32);
  }

  // fingerprint << 32 | (position + 1); 0 in the low half = empty. The
  // fingerprint lives inside the slot so non-matching candidates are
  // rejected without a memory access outside this array.
  std::vector<std::uint64_t> slots_;
  std::uint64_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Subset index that, like PartitionedPathIndex below, survives table
/// moves: it owns its row list and stores no table reference, so the study
/// runner can build it once per week and keep it attached to the Snapshot
/// as it moves between pipeline slots. Serial build — it indexes the
/// directory rows for the diff's directory side, a small minority of the
/// snapshot.
class DetachedPathIndex {
 public:
  static constexpr std::uint32_t kNotFound = 0xffff'ffffu;

  DetachedPathIndex() = default;

  /// Indexes the subset `rows` of `table` (row indices, any order;
  /// duplicate paths keep the first position). The table is only read
  /// during the build.
  DetachedPathIndex(const SnapshotTable& table,
                    std::vector<std::uint32_t> rows);

  /// Position in rows() of `path`, or kNotFound. `table` must be the
  /// indexed table (possibly relocated by a move since the build).
  /// Thread-safe.
  std::uint32_t lookup(const SnapshotTable& table, std::uint64_t hash,
                       std::string_view path) const {
    return index_.find(hash, [this, &table, path](std::uint32_t pos) {
      return table.path(rows_[pos]) == path;
    });
  }

  /// Indexed rows in insertion order; lookup() returns positions in it.
  std::span<const std::uint32_t> rows() const { return rows_; }
  std::uint32_t row_of(std::uint32_t pos) const { return rows_[pos]; }
  std::size_t size() const { return rows_.size(); }

 private:
  std::vector<std::uint32_t> rows_;
  PathIndex index_;  // positions in rows_
};

/// Radix-partitioned build side of the diff join. Deliberately does NOT
/// retain a pointer to the indexed table: the study runner moves Snapshot
/// objects between pipeline slots (retain-by-move), which would dangle a
/// stored reference, so lookup() takes the (possibly relocated) table as a
/// parameter. Everything stored inside — row indices and copied
/// timestamps — survives the move.
class PartitionedPathIndex {
 public:
  static constexpr std::uint32_t kNotFound = 0xffff'ffffu;

  /// One 8-byte shard slot: the fingerprint rejects non-matching
  /// candidates in place, the ordinal (position in file_rows()) confirms
  /// and addresses the payload. Kept minimal on purpose: the probe is
  /// miss-dominated, so the slot array — not the payload — must stay
  /// cache-resident.
  struct Slot {
    std::uint32_t fingerprint = 0;
    std::uint32_t ordinal = kNotFound;  // kNotFound = vacant
  };

  /// The three timestamps the Fig 13 classifier compares, gathered at
  /// build time into one dense-by-ordinal array: a probe hit reads one
  /// 24-byte record instead of three scattered timestamp columns of the
  /// previous week's table.
  struct Payload {
    std::int64_t atime = 0;
    std::int64_t ctime = 0;
    std::int64_t mtime = 0;
  };

  /// Indexes the regular-file rows of `table`. Partition count comes from
  /// radix_bits_for(file count); shards build fully in parallel.
  explicit PartitionedPathIndex(const SnapshotTable& table,
                                ThreadPool* pool = nullptr);

  /// Ordinal of `path` (position in file_rows()), or kNotFound. `table`
  /// must be the indexed table (possibly relocated by a move since the
  /// build). Thread-safe. Inline for the same reason as
  /// PathIndex::find — the probe loop lives or dies on this staying in
  /// registers.
  std::uint32_t lookup(const SnapshotTable& table, std::uint64_t hash,
                       std::string_view path) const {
    return lookup_lazy(table, hash, [path] { return path; });
  }

  /// lookup with the probe-side path materialized only when a slot
  /// candidate survives the Bloom filter and the fingerprint — the
  /// dominant miss never reads the probe table's path columns at all.
  /// `path_fn` is called zero or more times and must be idempotent.
  template <typename PathFn>
  std::uint32_t lookup_lazy(const SnapshotTable& table, std::uint64_t hash,
                            PathFn&& path_fn) const {
    if (!maybe_contains(hash)) return kNotFound;
    const ShardRef shard =
        shards_[RadixPartitions::partition_of(hash, parts_.bits)];
    const Slot* base = slots_.data() + shard.base;
    const std::uint64_t mask = shard.mask;
    const std::uint32_t fp = fingerprint_of(hash);
    std::uint64_t slot = hash & mask;
    for (;;) {
      const Slot& entry = base[slot];
      if (entry.ordinal == kNotFound) return kNotFound;
      if (entry.fingerprint == fp &&
          table.path(file_rows_[entry.ordinal]) == path_fn()) {
        return entry.ordinal;
      }
      slot = (slot + 1) & mask;
    }
  }

  /// Bloom pre-filter over every indexed path hash: false only when the
  /// hash is definitely absent (no false negatives). The diff probe is
  /// miss-dominated — a growing facility makes most current-week files new
  /// — and the filter is sized ~16 bits per key so it stays L2-resident;
  /// the common miss is answered here without touching the (much larger)
  /// slot array at all. lookup() consults it first, so callers get the
  /// fast path for free.
  bool maybe_contains(std::uint64_t hash) const {
    const std::uint64_t bit = bloom_bit_of(hash);
    return (bloom_[bit >> 6] >> (bit & 63)) & 1u;
  }

  const Payload& payload(std::uint32_t ordinal) const {
    return payloads_[ordinal];
  }

  /// Indexed rows, ascending — the deleted sweep iterates this, and
  /// lookup()'s ordinal indexes into it.
  std::span<const std::uint32_t> file_rows() const { return file_rows_; }
  std::uint32_t row_of(std::uint32_t ordinal) const {
    return file_rows_[ordinal];
  }

  /// Number of indexed (regular-file) rows, duplicates included — equals
  /// the table's file_count().
  std::size_t size() const { return file_rows_.size(); }
  std::uint32_t bits() const { return parts_.bits; }
  std::size_t partition_count() const { return parts_.partition_count(); }

 private:
  /// Bits [16, 48) of the hash: disjoint from both the partition selector
  /// (top bits) and the slot selector (low bits), so the filter adds
  /// information instead of echoing them.
  static constexpr std::uint32_t fingerprint_of(std::uint64_t hash) {
    return static_cast<std::uint32_t>(hash >> 16);
  }

  /// One shard's slice of slots_, packed into 8 bytes so the probe's
  /// partition -> shard hop is a single load from a table that fits in L1.
  struct ShardRef {
    std::uint32_t base = 0;
    std::uint32_t mask = 0;  // capacity - 1 (capacity is a power of two)
  };

  /// The filter is sharded like the slots: the partition selector picks a
  /// word-aligned private region, low hash bits (from bit 8 up) pick the
  /// bit inside it. Overlap with the fingerprint/slot-selector ranges is
  /// fine — the filter only needs no false negatives, not independence —
  /// and the private regions are what lets build_shard set bits with
  /// plain ORs.
  std::uint64_t bloom_bit_of(std::uint64_t hash) const {
    return (static_cast<std::uint64_t>(
                RadixPartitions::partition_of(hash, parts_.bits))
            << bloom_local_bits_) |
           ((hash >> 8) & bloom_local_mask_);
  }

  void build_shard(const SnapshotTable& table, std::size_t p);

  std::vector<std::uint32_t> file_rows_;
  RadixPartitions parts_;  // partitions ordinals (positions in file_rows_)
  std::vector<Slot> slots_;  // all shards, concatenated
  std::vector<Payload> payloads_;  // dense by ordinal
  std::vector<ShardRef> shards_;  // partition -> slots_ slice
  std::vector<std::uint64_t> bloom_;  // one bit per bloom_bit_of() value
  std::uint32_t bloom_local_bits_ = 6;  // bits per partition region (>= 6)
  std::uint64_t bloom_local_mask_ = 63;  // (1 << bloom_local_bits_) - 1
};

}  // namespace spider
