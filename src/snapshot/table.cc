#include "snapshot/table.h"

#include <algorithm>
#include <limits>
#include <string>

namespace spider {

void SnapshotTable::reserve(std::size_t rows) {
  for_each_row_column([rows](auto& column) { column.reserve(rows); });
  ost_offsets_.reserve(rows + 1);
}

std::uint32_t SnapshotTable::add(std::string_view path, std::int64_t atime,
                                 std::int64_t ctime, std::int64_t mtime,
                                 std::uint32_t uid, std::uint32_t gid,
                                 std::uint32_t mode, std::uint64_t inode,
                                 std::span<const std::uint32_t> osts) {
  const std::uint32_t row = static_cast<std::uint32_t>(size());
  const std::string_view stored = arena_.intern(path);
  paths_.push_back(stored);
  path_hash_.push_back(hash_path(stored));
  depth_.push_back(static_cast<std::uint16_t>(
      std::min<std::size_t>(path_depth(stored),
                            std::numeric_limits<std::uint16_t>::max())));
  atime_.push_back(atime);
  ctime_.push_back(ctime);
  mtime_.push_back(mtime);
  uid_.push_back(uid);
  gid_.push_back(gid);
  mode_.push_back(mode);
  inode_.push_back(inode);
  ost_values_.insert(ost_values_.end(), osts.begin(), osts.end());
  ost_offsets_.push_back(static_cast<std::uint32_t>(ost_values_.size()));
  if (mode_is_regular(mode)) ++file_count_;
  return row;
}

void SnapshotTable::append_table(SnapshotTable&& other) {
  if (other.empty()) return;
  if (empty()) {
    // Whole-table move: the common case when decode staged exactly one
    // group into a fresh destination.
    *this = std::move(other);
    other = SnapshotTable();
    return;
  }
  arena_.absorb(std::move(other.arena_));
  paths_.insert(paths_.end(), other.paths_.begin(), other.paths_.end());
  path_hash_.insert(path_hash_.end(), other.path_hash_.begin(),
                    other.path_hash_.end());
  depth_.insert(depth_.end(), other.depth_.begin(), other.depth_.end());
  atime_.insert(atime_.end(), other.atime_.begin(), other.atime_.end());
  ctime_.insert(ctime_.end(), other.ctime_.begin(), other.ctime_.end());
  mtime_.insert(mtime_.end(), other.mtime_.begin(), other.mtime_.end());
  uid_.insert(uid_.end(), other.uid_.begin(), other.uid_.end());
  gid_.insert(gid_.end(), other.gid_.begin(), other.gid_.end());
  mode_.insert(mode_.end(), other.mode_.begin(), other.mode_.end());
  inode_.insert(inode_.end(), other.inode_.begin(), other.inode_.end());
  const std::uint32_t base = ost_offsets_.back();
  ost_offsets_.reserve(ost_offsets_.size() + other.size());
  for (std::size_t i = 1; i < other.ost_offsets_.size(); ++i) {
    ost_offsets_.push_back(base + other.ost_offsets_[i]);
  }
  ost_values_.insert(ost_values_.end(), other.ost_values_.begin(),
                     other.ost_values_.end());
  file_count_ += other.file_count_;
  other = SnapshotTable();
}

SnapshotTable::BulkAppend::BulkAppend(SnapshotTable* table, std::size_t rows)
    : t_(table),
      first_(table->size()),
      rows_(rows),
      ost_values_(table->ost_values_.size()) {}

SnapshotTable::BulkAppend::~BulkAppend() {
  if (committed_) return;
  t_->for_each_row_column([this](auto& column) { column.resize(first_); });
  t_->ost_offsets_.resize(first_ + 1);
  t_->ost_values_.resize(ost_values_);
}

void SnapshotTable::BulkAppend::reserve(std::size_t ost_values) {
  // Geometric, as appends grow: groups decoded one after another into one
  // table must not reallocate every column at every group.
  const auto grow = [](auto& column, std::size_t need) {
    if (column.capacity() < need) {
      column.reserve(std::max(need, 2 * column.capacity()));
    }
  };
  const std::size_t end = first_ + rows_;
  t_->for_each_row_column([&](auto& column) { grow(column, end); });
  grow(t_->ost_offsets_, end + 1);
  grow(t_->ost_values_, t_->ost_values_.size() + ost_values);
}

SnapshotTable::BulkAppend::PathSpans SnapshotTable::BulkAppend::paths(
    std::size_t bytes, char** block) {
  t_->paths_.resize(first_ + rows_);
  t_->path_hash_.resize(first_ + rows_);
  t_->depth_.resize(first_ + rows_);
  block_ = bytes == 0 ? nullptr : std::make_unique_for_overwrite<char[]>(bytes);
  block_bytes_ = bytes;
  *block = block_.get();
  return PathSpans{std::span(t_->paths_).subspan(first_),
                   std::span(t_->path_hash_).subspan(first_),
                   std::span(t_->depth_).subspan(first_)};
}

void SnapshotTable::BulkAppend::commit() {
  SnapshotTable& t = *t_;
  const std::size_t end = first_ + rows_;
  // A column the decoder left alone reads back as add() would store an
  // empty path with zero fields.
  t.path_hash_.resize(end, hash_path({}));
  t.for_each_row_column([end](auto& column) { column.resize(end); });
  t.ost_offsets_.resize(end + 1,
                        static_cast<std::uint32_t>(t.ost_values_.size()));
  if (block_) t.arena_.adopt(std::move(block_), block_bytes_);
  for (std::size_t i = first_; i < end; ++i) {
    t.file_count_ += mode_is_regular(t.mode_[i]) ? 1 : 0;
  }
  committed_ = true;
}

void SnapshotTable::clear() {
  arena_ = StringArena();
  for_each_row_column([](auto& column) { column.clear(); });
  ost_offsets_.clear();
  ost_offsets_.push_back(0);
  ost_values_.clear();
  file_count_ = 0;
}

RawRecord SnapshotTable::row(std::size_t i) const {
  RawRecord rec;
  rec.path = std::string(paths_[i]);
  rec.atime = atime_[i];
  rec.ctime = ctime_[i];
  rec.mtime = mtime_[i];
  rec.uid = uid_[i];
  rec.gid = gid_[i];
  rec.mode = mode_[i];
  rec.inode = inode_[i];
  const auto o = osts(i);
  rec.osts.assign(o.begin(), o.end());
  return rec;
}

std::size_t SnapshotTable::memory_bytes() const {
  return arena_.bytes_used() +
         paths_.capacity() * sizeof(std::string_view) +
         path_hash_.capacity() * sizeof(std::uint64_t) +
         depth_.capacity() * sizeof(std::uint16_t) +
         (atime_.capacity() + ctime_.capacity() + mtime_.capacity()) *
             sizeof(std::int64_t) +
         (uid_.capacity() + gid_.capacity() + mode_.capacity()) *
             sizeof(std::uint32_t) +
         inode_.capacity() * sizeof(std::uint64_t) +
         (ost_offsets_.capacity() + ost_values_.capacity()) *
             sizeof(std::uint32_t);
}

SnapshotTable SnapshotTable::clone() const {
  SnapshotTable copy;
  copy.path_hash_ = path_hash_;
  copy.depth_ = depth_;
  copy.atime_ = atime_;
  copy.ctime_ = ctime_;
  copy.mtime_ = mtime_;
  copy.uid_ = uid_;
  copy.gid_ = gid_;
  copy.mode_ = mode_;
  copy.inode_ = inode_;
  copy.ost_offsets_ = ost_offsets_;
  copy.ost_values_ = ost_values_;
  copy.file_count_ = file_count_;
  // Every path's bytes, back to back in one block the copy's arena adopts.
  std::size_t bytes = 0;
  for (const std::string_view path : paths_) bytes += path.size();
  auto block = std::make_unique_for_overwrite<char[]>(bytes);
  char* dst = block.get();
  copy.paths_.reserve(paths_.size());
  for (const std::string_view path : paths_) {
    std::char_traits<char>::copy(dst, path.data(), path.size());
    copy.paths_.emplace_back(dst, path.size());
    dst += path.size();
  }
  copy.arena_.adopt(std::move(block), bytes);
  return copy;
}

}  // namespace spider
