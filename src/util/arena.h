// Chunked string arena: append-only byte storage with stable addresses.
//
// A daily snapshot holds millions of path strings; storing each in its own
// std::string would cost an allocation plus ~32 bytes of header apiece. The
// arena packs them back-to-back in large blocks and hands out string_views
// that stay valid for the arena's lifetime (blocks are never reallocated).
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace spider {

class StringArena {
 public:
  static constexpr std::size_t kDefaultBlockSize = 1 << 20;  // 1 MiB

  explicit StringArena(std::size_t block_size = kDefaultBlockSize)
      : block_size_(block_size) {}

  // A moved-from arena owns no block, so it must not keep pointing into
  // the open block it gave away.
  StringArena(StringArena&& other) noexcept
      : block_size_(other.block_size_),
        blocks_(std::move(other.blocks_)),
        open_(std::exchange(other.open_, nullptr)),
        open_left_(std::exchange(other.open_left_, 0)),
        bytes_used_(std::exchange(other.bytes_used_, 0)),
        bytes_reserved_(std::exchange(other.bytes_reserved_, 0)) {
    other.blocks_.clear();
  }
  StringArena& operator=(StringArena&& other) noexcept {
    if (this != &other) {
      block_size_ = other.block_size_;
      blocks_ = std::move(other.blocks_);
      other.blocks_.clear();
      open_ = std::exchange(other.open_, nullptr);
      open_left_ = std::exchange(other.open_left_, 0);
      bytes_used_ = std::exchange(other.bytes_used_, 0);
      bytes_reserved_ = std::exchange(other.bytes_reserved_, 0);
    }
    return *this;
  }
  StringArena(const StringArena&) = delete;
  StringArena& operator=(const StringArena&) = delete;

  /// Copies `s` into the arena and returns a view of the stored copy.
  std::string_view intern(std::string_view s) {
    if (s.empty()) return {};
    char* dst = allocate(s.size());
    std::char_traits<char>::copy(dst, s.data(), s.size());
    return {dst, s.size()};
  }

  /// Concatenates two pieces into one contiguous stored string. Used by the
  /// snapshot readers to join directory prefixes with file names without a
  /// temporary.
  std::string_view intern_concat(std::string_view a, std::string_view b) {
    if (a.empty()) return intern(b);
    if (b.empty()) return intern(a);
    char* dst = allocate(a.size() + b.size());
    std::char_traits<char>::copy(dst, a.data(), a.size());
    std::char_traits<char>::copy(dst + a.size(), b.data(), b.size());
    return {dst, a.size() + b.size()};
  }

  /// Takes ownership of a caller-filled block of `size` bytes, counted as
  /// used in full. Later interns never write into it. The bulk decoder
  /// rebuilds a row group's paths straight into one exact-size block and
  /// hands it over here.
  void adopt(std::unique_ptr<char[]> block, std::size_t size) {
    blocks_.push_back(std::move(block));
    bytes_used_ += size;
    bytes_reserved_ += size;
  }

  /// Steals every block of `other`, leaving it empty. Views into either
  /// arena stay valid: blocks are moved, never copied or reallocated. The
  /// bulk-splice path of SnapshotTable uses this to merge per-shard arenas
  /// without touching a single string byte.
  void absorb(StringArena&& other) {
    for (auto& block : other.blocks_) blocks_.push_back(std::move(block));
    other.blocks_.clear();
    // Keep appending into whichever open block has more room left.
    if (other.open_left_ > open_left_) {
      open_ = other.open_;
      open_left_ = other.open_left_;
    }
    bytes_used_ += std::exchange(other.bytes_used_, 0);
    bytes_reserved_ += std::exchange(other.bytes_reserved_, 0);
    other.open_ = nullptr;
    other.open_left_ = 0;
  }

  std::size_t bytes_used() const { return bytes_used_; }
  std::size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  char* allocate(std::size_t n) {
    if (n > open_left_) {
      if (n > block_size_) {
        // Oversized strings get a dedicated block, so the open block's
        // spare capacity survives.
        adopt(std::make_unique_for_overwrite<char[]>(n), n);
        return blocks_.back().get();
      }
      blocks_.push_back(std::make_unique_for_overwrite<char[]>(block_size_));
      open_ = blocks_.back().get();
      open_left_ = block_size_;
      bytes_reserved_ += block_size_;
    }
    char* ptr = open_;
    open_ += n;
    open_left_ -= n;
    bytes_used_ += n;
    return ptr;
  }

  std::size_t block_size_;
  std::vector<std::unique_ptr<char[]>> blocks_;
  char* open_ = nullptr;       // next free byte of the block interns fill
  std::size_t open_left_ = 0;  // bytes left there
  std::size_t bytes_used_ = 0;
  std::size_t bytes_reserved_ = 0;
};

}  // namespace spider
