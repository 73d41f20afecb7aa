// The engine's open-addressing table for 64-bit keys, in two forms:
//
//   * FlatMap<V, KeyMix> — key → V. Values live in a parallel array, so
//     probes touch only the key lane (one cache line covers eight
//     candidate slots).
//   * FlatSet<KeyMix> — keys only, 8 bytes per slot: the distinct-path
//     sets and the (user, project) membership sets.
//
// Both forms share one implementation (detail::FlatTable) of home-slot
// selection, linear probing, growth, key 0 and the checkpoint image. The
// key policy has no default, so every declaration states what its keys
// are:
//
//   * IdentityKeyMix — for keys that are already well-mixed (path hashes,
//     hash_bytes output). Slot selection uses the low bits directly, so
//     the top bits stay free for radix partitioning (engine/partition.h)
//     without correlation between the two.
//   * FingerprintKeyMix — for raw ids (gids, packed user pairs) whose low
//     bits are dense or structured; mix64 avalanches them first. Under
//     identity placement every packed (user << 32 | project) key of one
//     project would share a home slot and the table would degrade into
//     one long probe run.
//
// Growth discipline: probe FIRST, grow only when the probe ends at a
// genuine insert — a duplicate-heavy stream must never trigger a resize,
// because duplicates do not add occupancy.
//
// FlatMap::for_each walks the slot array in index order with the reserved
// empty key last. For a fixed insertion sequence the layout — and
// therefore the iteration order — is a pure function of the inputs, which
// is what lets the study's ordered merges stay bit-identical at any
// thread count.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/serialize.h"

namespace spider {

struct IdentityKeyMix {
  static constexpr std::uint64_t mix(std::uint64_t key) { return key; }
};

struct FingerprintKeyMix {
  static constexpr std::uint64_t mix(std::uint64_t key) { return mix64(key); }
};

namespace detail {

/// The one implementation behind FlatMap (V = the value type) and FlatSet
/// (V = void: no value array). Linear probing at a load factor of at most
/// 1/2. Key 0 is reserved as the empty-slot marker and held out of line,
/// so the full key space is usable.
template <typename KeyMix, typename V>
class FlatTable {
 public:
  /// `expected` sizes the initial allocation; 0 defers allocation to the
  /// first insert (cheap empty tables for sparse per-chunk states).
  explicit FlatTable(std::size_t expected = 0) {
    if (expected > 0) allocate(capacity_for(expected));
  }

  bool contains(std::uint64_t key) const { return lookup(key) != kNoSlot; }

  std::size_t size() const { return size_ + (has_zero_key_ ? 1 : 0); }
  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return keys_.size(); }

  void clear() { *this = FlatTable(); }

  /// Checkpoint image: the raw slot arrays verbatim. Iteration order is
  /// slot order and therefore layout-dependent, so preserving the layout
  /// byte-for-byte is what keeps a resumed study's ordered folds — and
  /// hence its rendered output — identical to the uninterrupted run
  /// (DESIGN.md §14). Requires a trivially-copyable V.
  void save_state(StateWriter& w) const {
    w.vec(keys_);
    if constexpr (kHasValues) w.vec(values_);
    w.u64(size_);
    w.u8(has_zero_key_ ? 1 : 0);
    if constexpr (kHasValues) w.pod(zero_value_);
  }
  /// Restores a save_state image; false (table unusable until reassigned)
  /// when the payload is short or violates the structural invariants.
  bool load_state(StateReader& r) {
    if (!r.vec(&keys_)) return false;
    if constexpr (kHasValues) {
      if (!r.vec(&values_) || values_.size() != keys_.size()) return false;
    }
    size_ = static_cast<std::size_t>(r.u64());
    has_zero_key_ = r.u8() != 0;
    if constexpr (kHasValues) {
      if (!r.pod(&zero_value_)) return false;
    }
    if (!r.ok()) return false;
    if (keys_.empty()) {
      mask_ = 0;
      return size_ == 0;
    }
    if (!std::has_single_bit(keys_.size()) || size_ * 2 > keys_.size()) {
      return false;
    }
    mask_ = keys_.size() - 1;
    return true;
  }

 protected:
  static constexpr bool kHasValues = !std::is_void_v<V>;
  struct NoValue {};
  using Value = std::conditional_t<kHasValues, V, NoValue>;
  using Values = std::conditional_t<kHasValues, std::vector<Value>, NoValue>;

  /// Slot index standing for key 0, which lives out of line.
  static constexpr std::size_t kZeroSlot = SIZE_MAX;
  static constexpr std::size_t kNoSlot = SIZE_MAX - 1;

  /// Insert-or-find: the slot holding `key`, and whether this call
  /// inserted it.
  std::pair<std::size_t, bool> emplace(std::uint64_t key) {
    if (key == kEmptyKey) {
      const bool fresh = !has_zero_key_;
      has_zero_key_ = true;
      return {kZeroSlot, fresh};
    }
    if (keys_.empty()) allocate(kMinCapacity);
    std::size_t s = home(key);
    for (; keys_[s] != kEmptyKey; s = (s + 1) & mask_) {
      if (keys_[s] == key) return {s, false};
    }
    // Probe-before-grow: only a genuine insert may resize.
    if ((size_ + 1) * 2 > keys_.size()) {
      grow();
      s = place(key);
    } else {
      keys_[s] = key;
    }
    ++size_;
    return {s, true};
  }

  /// The slot holding `key`, or kNoSlot.
  std::size_t lookup(std::uint64_t key) const {
    if (key == kEmptyKey) return has_zero_key_ ? kZeroSlot : kNoSlot;
    if (keys_.empty()) return kNoSlot;
    for (std::size_t s = home(key); keys_[s] != kEmptyKey;
         s = (s + 1) & mask_) {
      if (keys_[s] == key) return s;
    }
    return kNoSlot;
  }

  Value& value_at(std::size_t s) {
    return s == kZeroSlot ? zero_value_ : values_[s];
  }
  const Value& value_at(std::size_t s) const {
    return s == kZeroSlot ? zero_value_ : values_[s];
  }

  /// Visits (key, slot) in slot order, key 0 last.
  template <typename Fn>
  void for_each_slot(Fn&& fn) const {
    for (std::size_t s = 0; s < keys_.size(); ++s) {
      if (keys_[s] != kEmptyKey) fn(keys_[s], s);
    }
    if (has_zero_key_) fn(kEmptyKey, kZeroSlot);
  }

 private:
  static constexpr std::uint64_t kEmptyKey = 0;
  static constexpr std::size_t kMinCapacity = 16;

  static std::size_t capacity_for(std::size_t expected) {
    return std::bit_ceil(std::max<std::size_t>(expected * 2, kMinCapacity));
  }

  std::size_t home(std::uint64_t key) const { return KeyMix::mix(key) & mask_; }

  void allocate(std::size_t capacity) {
    keys_.assign(capacity, kEmptyKey);
    if constexpr (kHasValues) values_.assign(capacity, Value{});
    mask_ = capacity - 1;
  }

  /// Probes for the empty slot of a key known to be absent and claims it.
  std::size_t place(std::uint64_t key) {
    std::size_t s = home(key);
    while (keys_[s] != kEmptyKey) s = (s + 1) & mask_;
    keys_[s] = key;
    return s;
  }

  void grow() {
    const std::vector<std::uint64_t> old_keys = std::exchange(keys_, {});
    [[maybe_unused]] Values old_values = std::exchange(values_, {});
    allocate(old_keys.size() * 2);
    for (std::size_t s = 0; s < old_keys.size(); ++s) {
      if (old_keys[s] == kEmptyKey) continue;
      const std::size_t to = place(old_keys[s]);
      if constexpr (kHasValues) values_[to] = std::move(old_values[s]);
    }
  }

  std::vector<std::uint64_t> keys_;
  [[no_unique_address]] Values values_{};
  std::uint64_t mask_ = 0;
  std::size_t size_ = 0;
  bool has_zero_key_ = false;
  [[no_unique_address]] Value zero_value_{};
};

}  // namespace detail

/// Growable open-addressing map from 64-bit keys to V.
template <typename V, typename KeyMix>
class FlatMap : public detail::FlatTable<KeyMix, V> {
  using Table = detail::FlatTable<KeyMix, V>;

 public:
  using Table::Table;

  /// Insert-or-find: returns the value slot for `key`, default-constructing
  /// it on first insertion.
  V& slot(std::uint64_t key) {
    return this->value_at(this->emplace(key).first);
  }

  V* find(std::uint64_t key) {
    return const_cast<V*>(std::as_const(*this).find(key));
  }
  const V* find(std::uint64_t key) const {
    const std::size_t s = this->lookup(key);
    return s == Table::kNoSlot ? nullptr : &this->value_at(s);
  }

  /// Visits (key, value) in slot order, the reserved empty key last.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    this->for_each_slot(
        [&](std::uint64_t key, std::size_t s) { fn(key, this->value_at(s)); });
  }
};

/// Growable open-addressing set of 64-bit keys: the map form without its
/// value array.
template <typename KeyMix>
class FlatSet : public detail::FlatTable<KeyMix, void> {
 public:
  using detail::FlatTable<KeyMix, void>::FlatTable;

  /// Inserts `key`; returns true when the key was not present before.
  bool insert(std::uint64_t key) { return this->emplace(key).second; }
};

}  // namespace spider
