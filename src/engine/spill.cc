#include "engine/spill.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <span>
#include <utility>

#include "util/hash.h"
#include "util/io.h"

namespace spider {

namespace {

/// Trailer magic: "SPL0001\0" little-endian.
constexpr std::uint64_t kSpillMagic = 0x00313030304c5053ULL;

/// Fixed bytes per record ahead of the path: hash(8) + row(4) + kind(1) +
/// three timestamps(24) + path length(4), at these offsets.
constexpr std::size_t kRecordHeaderBytes = 41;
constexpr std::size_t kRowAt = 8;
constexpr std::size_t kKindAt = 12;
constexpr std::size_t kAtimeAt = 13;
constexpr std::size_t kMtimeAt = 21;
constexpr std::size_t kCtimeAt = 29;
constexpr std::size_t kPathLengthAt = 37;

constexpr std::size_t kTrailerBytes = 32;

/// Per-partition buffer flushed to disk when it crosses this size.
constexpr std::size_t kFlushBytes = 256 * 1024;

constexpr std::uint32_t kMaxBits = 8;

std::size_t partition_of_hash(std::uint64_t hash, std::uint32_t bits) {
  return bits == 0 ? 0 : static_cast<std::size_t>(hash >> (64 - bits));
}

Status errno_status(const char* op, const std::string& file) {
  return Status::io_error(std::string(op) + " " + file + ": " +
                          std::strerror(errno));
}

/// Appends `count` bytes to `fd`, looping over short writes and EINTR.
bool write_all(int fd, const std::uint8_t* data, std::size_t count) {
  while (count > 0) {
    const ssize_t n = ::write(fd, data, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(n);
    count -= static_cast<std::size_t>(n);
  }
  return true;
}

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, T value) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

template <typename T>
T load_pod(const std::uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

/// One record's contribution to the partition checksum: the chain folds
/// the hash of each record's serialized bytes in append order
/// (hash_combine), so the value is independent of how the writer chunked
/// its flushes, and a reader may hash the records in any order as long as
/// it folds them in record order.
std::uint64_t record_hash(const std::uint8_t* record, std::size_t bytes) {
  return hash_bytes(
      std::string_view(reinterpret_cast<const char*>(record), bytes));
}

Status corrupt(const std::string& file, const std::string& what) {
  return Status::corruption("spill partition " + file + ": " + what);
}

}  // namespace

std::uint32_t spill_bits_for(std::uint64_t rows, std::size_t bytes_per_row,
                             std::size_t partition_budget) {
  if (partition_budget == 0) return 0;
  const std::uint64_t total = rows * bytes_per_row;
  const std::uint64_t parts =
      (total + partition_budget - 1) / partition_budget;
  std::uint32_t bits = 0;
  while ((1ULL << bits) < parts && bits < kMaxBits) ++bits;
  return bits;
}

SpillPartitionWriter::~SpillPartitionWriter() {
  // A writer destroyed before finish() was abandoned mid-spill; its files
  // are incomplete and must not be left for a reader to trip over. A
  // finished writer leaves its files alone — the SpilledSide owns them.
  if (!finished_) remove_files();
}

Status SpillPartitionWriter::open(const Options& options) {
  if (!files_.empty() || finished_) {
    return Status::failed_precondition("spill writer already opened");
  }
  if (options.bits > kMaxBits) {
    return Status::invalid_argument("spill fan-out above " +
                                    std::to_string(kMaxBits) + " bits");
  }
  bits_ = options.bits;
  const std::size_t parts = std::size_t{1} << bits_;
  files_.reserve(parts);
  fds_.assign(parts, -1);
  buffers_.assign(parts, {});
  counts_.assign(parts, 0);
  bytes_.assign(parts, 0);
  checksums_.assign(parts, 0);
  for (std::size_t p = 0; p < parts; ++p) {
    std::string name = options.dir + "/" + options.stem + "-p" +
                       std::to_string(p) + ".spill";
    int fd = -1;
    do {
      fd = ::open(name.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                  0644);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) {
      const Status s = errno_status("open", name);
      files_.push_back(std::move(name));
      remove_files();
      return s;
    }
    files_.push_back(std::move(name));
    fds_[p] = fd;
  }
  return Status();
}

Status SpillPartitionWriter::flush(std::size_t p) {
  std::vector<std::uint8_t>& buffer = buffers_[p];
  if (buffer.empty()) return Status();
  if (!write_all(fds_[p], buffer.data(), buffer.size())) {
    return errno_status("write", files_[p]);
  }
  buffer.clear();
  return Status();
}

Status SpillPartitionWriter::add(std::uint64_t path_hash, std::uint32_t row,
                                 bool is_dir, std::int64_t atime,
                                 std::int64_t mtime, std::int64_t ctime,
                                 std::string_view path) {
  if (finished_ || files_.empty()) {
    return Status::failed_precondition("spill writer not open");
  }
  const std::size_t p = partition_of_hash(path_hash, bits_);
  std::vector<std::uint8_t>& buffer = buffers_[p];
  const std::size_t at = buffer.size();
  append_pod(buffer, path_hash);
  append_pod(buffer, row);
  append_pod(buffer, static_cast<std::uint8_t>(is_dir ? 1 : 0));
  append_pod(buffer, atime);
  append_pod(buffer, mtime);
  append_pod(buffer, ctime);
  append_pod(buffer, static_cast<std::uint32_t>(path.size()));
  buffer.insert(buffer.end(), path.begin(), path.end());
  const std::size_t record_bytes = buffer.size() - at;
  checksums_[p] = hash_combine(checksums_[p],
                               record_hash(buffer.data() + at, record_bytes));
  ++counts_[p];
  bytes_[p] += record_bytes;
  if (is_dir) {
    ++dir_rows_;
  } else {
    ++file_rows_;
  }
  if (buffer.size() >= kFlushBytes) return flush(p);
  return Status();
}

Status SpillPartitionWriter::add_table(const SnapshotTable& table,
                                       std::size_t base) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    const Status s =
        add(table.path_hash(i), static_cast<std::uint32_t>(base + i),
            table.is_dir(i), table.atime(i), table.mtime(i), table.ctime(i),
            table.path(i));
    if (!s.ok()) return s;
  }
  return Status();
}

Status SpillPartitionWriter::finish() {
  if (finished_ || files_.empty()) {
    return Status::failed_precondition("spill writer not open");
  }
  for (std::size_t p = 0; p < files_.size(); ++p) {
    Status s = flush(p);
    if (!s.ok()) return s;
    std::vector<std::uint8_t> trailer;
    trailer.reserve(kTrailerBytes);
    append_pod(trailer, kSpillMagic);
    append_pod(trailer, counts_[p]);
    append_pod(trailer, bytes_[p]);
    append_pod(trailer, checksums_[p]);
    if (!write_all(fds_[p], trailer.data(), trailer.size())) {
      return errno_status("write", files_[p]);
    }
    ::close(fds_[p]);
    fds_[p] = -1;
  }
  finished_ = true;
  return Status();
}

void SpillPartitionWriter::remove_files() {
  for (std::size_t p = 0; p < files_.size(); ++p) {
    if (p < fds_.size() && fds_[p] >= 0) {
      ::close(fds_[p]);
      fds_[p] = -1;
    }
    ::unlink(files_[p].c_str());
  }
}

SpilledSide SpillPartitionWriter::side() const {
  SpilledSide side;
  side.bits = bits_;
  side.files = files_;
  side.file_rows = file_rows_;
  side.dir_rows = dir_rows_;
  return side;
}

void SpillRecords::clear() {
  hashes.clear();
  rows.clear();
  dir_flags.clear();
  atimes.clear();
  mtimes.clear();
  ctimes.clear();
  path_offsets.clear();
  path_bytes.clear();
}

namespace {

/// Records per task when a partition's records are hashed or probed.
constexpr std::size_t kJoinGrain = 4096;

/// How many records ahead the probe pulls in its slot line (as
/// diff_snapshots does; the value is uncritical).
constexpr std::size_t kProbePrefetchDistance = 16;

/// One partition file, mapped and verified. Nothing is copied out of the
/// mapping: the accessors read each record where it lies.
class MappedPartition {
 public:
  /// Maps `file`, checks its trailer, frames its records serially, hashes
  /// them on `pool` and folds the checksum chain in record order. A file
  /// that fails is unmapped before this returns, because the next step may
  /// be its owner rewriting it.
  Status open(const std::string& file, ThreadPool* pool) {
    records_.clear();
    Status s = map_.open(file);
    if (s.ok()) s = frame(file, pool);
    if (!s.ok()) {
      map_.close();
      records_.clear();
    }
    return s;
  }

  std::size_t size() const { return records_.size(); }
  std::uint64_t hash(std::size_t i) const {
    return load_pod<std::uint64_t>(records_[i]);
  }
  std::uint32_t row(std::size_t i) const {
    return load_pod<std::uint32_t>(records_[i] + kRowAt);
  }
  bool is_dir(std::size_t i) const { return records_[i][kKindAt] != 0; }
  std::int64_t atime(std::size_t i) const {
    return load_pod<std::int64_t>(records_[i] + kAtimeAt);
  }
  std::int64_t mtime(std::size_t i) const {
    return load_pod<std::int64_t>(records_[i] + kMtimeAt);
  }
  std::int64_t ctime(std::size_t i) const {
    return load_pod<std::int64_t>(records_[i] + kCtimeAt);
  }
  std::string_view path(std::size_t i) const {
    return std::string_view(
        reinterpret_cast<const char*>(records_[i]) + kRecordHeaderBytes,
        load_pod<std::uint32_t>(records_[i] + kPathLengthAt));
  }

 private:
  Status frame(const std::string& file, ThreadPool* pool) {
    const std::span<const std::uint8_t> bytes = map_.bytes();
    if (bytes.size() < kTrailerBytes) {
      return Status::truncated("spill partition " + file +
                               ": shorter than its trailer");
    }
    const std::uint8_t* trailer = bytes.data() + bytes.size() - kTrailerBytes;
    if (load_pod<std::uint64_t>(trailer) != kSpillMagic) {
      return corrupt(file, "bad trailer magic");
    }
    const std::uint64_t count = load_pod<std::uint64_t>(trailer + 8);
    const std::uint64_t payload = load_pod<std::uint64_t>(trailer + 16);
    const std::uint64_t checksum = load_pod<std::uint64_t>(trailer + 24);
    if (payload != bytes.size() - kTrailerBytes) {
      return corrupt(file, "payload size disagrees with trailer");
    }
    // Every record carries at least its header, so the payload bounds the
    // count. Checked before anything is sized from it: the trailer is not
    // covered by the checksum.
    if (count > payload / kRecordHeaderBytes) {
      return corrupt(file, "record count exceeds what the payload holds");
    }

    records_.resize(count);
    const std::uint8_t* p = bytes.data();
    std::uint64_t remaining = payload;
    for (std::uint64_t i = 0; i < count; ++i) {
      if (remaining < kRecordHeaderBytes) {
        return corrupt(file, "record header runs past the payload");
      }
      const std::uint64_t record_bytes =
          kRecordHeaderBytes + load_pod<std::uint32_t>(p + kPathLengthAt);
      if (remaining < record_bytes) {
        return corrupt(file, "record path runs past the payload");
      }
      records_[i] = p;
      p += record_bytes;
      remaining -= record_bytes;
    }
    if (remaining != 0) {
      return corrupt(file, "payload bytes left over after the last record");
    }

    hashes_.resize(count);
    parallel_for_chunked(
        count, kJoinGrain,
        [this](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            hashes_[i] =
                record_hash(records_[i], kRecordHeaderBytes + path(i).size());
          }
        },
        pool);
    std::uint64_t chain = 0;
    for (const std::uint64_t h : hashes_) chain = hash_combine(chain, h);
    if (chain != checksum) return corrupt(file, "checksum mismatch");
    return Status();
  }

  MappedFile map_;
  std::vector<const std::uint8_t*> records_;  // record starts, file order
  std::vector<std::uint64_t> hashes_;         // per-record checksum terms
};

/// Loads one partition, retrying once through the side's regenerate hook
/// when the file fails verification — the owning side can always re-derive
/// a scratch partition from its original data.
Status load_partition(const SpilledSide& side, std::size_t p, ThreadPool* pool,
                      MappedPartition* out) {
  Status s = out->open(side.files[p], pool);
  if (s.ok() || !side.regenerate) return s;
  const Status regen = side.regenerate(p);
  if (!regen.ok()) return regen;
  return out->open(side.files[p], pool);
}

/// One byte per row of each side. A row starts kAbsent; loading its
/// partition claims it as a file or a directory; on the current side the
/// probe then overwrites the claim with the row's class. A directory left
/// at kDirRow was not classified (the directory diff was not asked for).
enum RowState : std::uint8_t {
  kAbsent = 0,
  kFileRow,
  kDirRow,
  kNewFile,
  kReadonlyFile,
  kUpdatedFile,
  kUntouchedFile,
  kNewDir,
  kChangedDir,
  kSameDir,
  kRowStateCount,
};

/// Claims the row of every record of `part` in `state`. The checksum
/// proves only that a record reads as it was written, so a row at or past
/// the side's row count, or one claimed twice, is refused here before the
/// probe writes anything at that row.
Status claim_rows(const MappedPartition& part, const std::string& file,
                  std::vector<std::uint8_t>& state) {
  for (std::size_t i = 0; i < part.size(); ++i) {
    const std::uint32_t row = part.row(i);
    if (row >= state.size()) {
      return corrupt(file, "record row " + std::to_string(row) +
                               " outside the side's " +
                               std::to_string(state.size()) + " rows");
    }
    if (state[row] != kAbsent) {
      return corrupt(file, "row " + std::to_string(row) + " spilled twice");
    }
    state[row] = part.is_dir(i) ? kDirRow : kFileRow;
  }
  return Status();
}

/// The state the probe writes for a current-side record matched to a
/// previous-side one: the classification of engine/diff.cc's joins.
std::uint8_t matched_state(const MappedPartition& prev, std::size_t pi,
                           const MappedPartition& cur, std::size_t ci) {
  const bool atime_same = cur.atime(ci) == prev.atime(pi);
  const bool mtime_same = cur.mtime(ci) == prev.mtime(pi);
  const bool ctime_same = cur.ctime(ci) == prev.ctime(pi);
  if (cur.is_dir(ci)) {
    return atime_same && mtime_same && ctime_same ? kSameDir : kChangedDir;
  }
  if (mtime_same && ctime_same) {
    return atime_same ? kUntouchedFile : kReadonlyFile;
  }
  return kUpdatedFile;
}

}  // namespace

Status read_spill_partition(const std::string& file, SpillRecords* out) {
  out->clear();
  MappedPartition part;
  const Status s = part.open(file, nullptr);
  if (!s.ok()) return s;
  const std::size_t count = part.size();
  out->hashes.reserve(count);
  out->rows.reserve(count);
  out->dir_flags.reserve(count);
  out->atimes.reserve(count);
  out->mtimes.reserve(count);
  out->ctimes.reserve(count);
  out->path_offsets.reserve(count + 1);
  out->path_offsets.push_back(0);
  for (std::size_t i = 0; i < count; ++i) {
    out->hashes.push_back(part.hash(i));
    out->rows.push_back(part.row(i));
    out->dir_flags.push_back(part.is_dir(i) ? 1 : 0);
    out->atimes.push_back(part.atime(i));
    out->mtimes.push_back(part.mtime(i));
    out->ctimes.push_back(part.ctime(i));
    out->path_bytes.append(part.path(i));
    out->path_offsets.push_back(
        static_cast<std::uint32_t>(out->path_bytes.size()));
  }
  return Status();
}

Status spill_diff_join(const SpilledSide& prev, const SpilledSide& cur,
                       const DiffOptions& options, DiffResult* out,
                       ThreadPool* pool) {
  if (prev.bits != cur.bits || prev.files.size() != cur.files.size()) {
    return Status::invalid_argument(
        "spill join requires both sides partitioned alike");
  }
  *out = DiffResult{};
  out->prev_files = static_cast<std::size_t>(prev.file_rows);
  out->cur_files = static_cast<std::size_t>(cur.file_rows);
  out->has_prev_rows = options.prev_rows;
  out->has_dir_diff = options.dirs;

  // Everything the join holds is sized here, on the calling thread; the
  // pool's tasks only fill it.
  std::vector<std::uint8_t> prev_state(prev.file_rows + prev.dir_rows,
                                       kAbsent);
  std::vector<std::uint8_t> cur_state(cur.file_rows + cur.dir_rows, kAbsent);
  // 0 -> 1 only: two current records can match one previous record only
  // if the current side repeats a path, and then both store the same 1.
  const std::unique_ptr<std::atomic<std::uint8_t>[]> prev_matched(
      new std::atomic<std::uint8_t>[prev_state.size()]());
  // The matched previous row of each current row, for the prev-row lists
  // and the changed-directory pairs.
  std::vector<std::uint32_t> twin(
      options.prev_rows || options.dirs ? cur_state.size() : 0);
  MappedPartition prev_part, cur_part;
  PathIndex index;

  for (std::size_t p = 0; p < prev.files.size(); ++p) {
    Status s = load_partition(prev, p, pool, &prev_part);
    if (s.ok()) s = claim_rows(prev_part, prev.files[p], prev_state);
    if (s.ok()) s = load_partition(cur, p, pool, &cur_part);
    if (s.ok()) s = claim_rows(cur_part, cur.files[p], cur_state);
    if (!s.ok()) return s;

    index.reset(prev_part.size());
    for (std::size_t j = 0; j < prev_part.size(); ++j) {
      const bool is_dir = prev_part.is_dir(j);
      if (is_dir && !options.dirs) continue;
      const std::string_view path = prev_part.path(j);
      index.insert(static_cast<std::uint32_t>(j), prev_part.hash(j),
                   [&prev_part, is_dir, path](std::uint32_t other) {
                     return prev_part.is_dir(other) == is_dir &&
                            prev_part.path(other) == path;
                   });
    }

    parallel_for_chunked(
        cur_part.size(), kJoinGrain,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            if (i + kProbePrefetchDistance < end) {
              index.prefetch(cur_part.hash(i + kProbePrefetchDistance));
            }
            const bool is_dir = cur_part.is_dir(i);
            if (is_dir && !options.dirs) continue;
            const std::string_view path = cur_part.path(i);
            const std::uint32_t j = index.find(
                cur_part.hash(i), [&prev_part, is_dir, path](std::uint32_t k) {
                  return prev_part.is_dir(k) == is_dir &&
                         prev_part.path(k) == path;
                });
            const std::uint32_t row = cur_part.row(i);
            if (j == PathIndex::kNotFound) {
              cur_state[row] = is_dir ? kNewDir : kNewFile;
              continue;
            }
            const std::uint32_t prev_row = prev_part.row(j);
            prev_matched[prev_row].store(1, std::memory_order_relaxed);
            if (!twin.empty()) twin[row] = prev_row;
            cur_state[row] = matched_state(prev_part, j, cur_part, i);
          }
        },
        pool);
  }

  // One sweep per side, in row order, so every list comes out ascending.
  std::size_t counts[kRowStateCount] = {};
  for (const std::uint8_t state : cur_state) ++counts[state];
  out->new_rows.reserve(counts[kNewFile]);
  out->readonly_rows.reserve(counts[kReadonlyFile]);
  out->updated_rows.reserve(counts[kUpdatedFile]);
  out->untouched_rows.reserve(counts[kUntouchedFile]);
  if (options.prev_rows) {
    out->readonly_prev_rows.reserve(counts[kReadonlyFile]);
    out->updated_prev_rows.reserve(counts[kUpdatedFile]);
    out->untouched_prev_rows.reserve(counts[kUntouchedFile]);
  }
  if (options.dirs) {
    out->new_dir_rows.reserve(counts[kNewDir]);
    out->changed_dir_rows.reserve(counts[kChangedDir]);
    out->changed_dir_prev_rows.reserve(counts[kChangedDir]);
  }
  for (std::uint32_t row = 0; row < cur_state.size(); ++row) {
    switch (cur_state[row]) {
      case kNewFile:
        out->new_rows.push_back(row);
        break;
      case kReadonlyFile:
        out->readonly_rows.push_back(row);
        if (options.prev_rows) out->readonly_prev_rows.push_back(twin[row]);
        break;
      case kUpdatedFile:
        out->updated_rows.push_back(row);
        if (options.prev_rows) out->updated_prev_rows.push_back(twin[row]);
        break;
      case kUntouchedFile:
        out->untouched_rows.push_back(row);
        if (options.prev_rows) out->untouched_prev_rows.push_back(twin[row]);
        break;
      case kNewDir:
        out->new_dir_rows.push_back(row);
        break;
      case kChangedDir:
        out->changed_dir_rows.push_back(row);
        out->changed_dir_prev_rows.push_back(twin[row]);
        break;
      default:
        break;
    }
  }
  for (std::uint32_t row = 0; row < prev_state.size(); ++row) {
    if (prev_matched[row].load(std::memory_order_relaxed) != 0) continue;
    if (prev_state[row] == kFileRow) {
      out->deleted_rows.push_back(row);
    } else if (prev_state[row] == kDirRow && options.dirs) {
      out->deleted_dir_rows.push_back(row);
    }
  }
  return Status();
}

}  // namespace spider
