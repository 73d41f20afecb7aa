#include "engine/spill.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <utility>

#include "engine/partition.h"
#include "snapshot/varint.h"
#include "util/hash.h"
#include "util/io.h"

namespace spider {

namespace {

/// Trailer magic: "SPL0002\0" little-endian.
constexpr std::uint64_t kSpillMagic = 0x00323030304c5053ULL;

/// Records per block. The front coding restarts at each block, and each
/// block is one decode task of the join.
constexpr std::uint64_t kBlockRecords = 4096;

/// A block also ends once its coded bytes reach this size, so that a run
/// of long paths does not make one block (one task) large.
constexpr std::size_t kBlockBytes = 256 * 1024;

/// Directory entry per block: records, bytes, decoded path bytes,
/// checksum.
constexpr std::size_t kEntryBytes = 32;

/// Fixed trailer: magic, block count, record count, payload bytes,
/// directory checksum.
constexpr std::size_t kTrailerBytes = 40;

/// The fewest bytes a record codes to: its hash, then one byte for each of
/// its six varints (row, prefix and kind, suffix length, three times).
constexpr std::uint64_t kMinRecordBytes = 8 + 6;

/// The most bytes a record codes to ahead of its suffix (a varint takes at
/// most 10 bytes).
constexpr std::size_t kMaxRecordFixedBytes = 8 + 6 * 10;

constexpr std::uint32_t kMaxBits = 8;

Status errno_status(const char* op, const std::string& file) {
  return Status::io_error(std::string(op) + " " + file + ": " + errno_text());
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

std::uint64_t checksum_of(const std::uint8_t* data, std::size_t bytes) {
  return hash_bytes(
      std::string_view(reinterpret_cast<const char*>(data), bytes));
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
  parts_.assign(parts, Partition{});
  for (std::size_t p = 0; p < parts; ++p) {
    std::string name = options.dir + "/" + options.stem + "-p" +
                       std::to_string(p) + ".spill";
    const int fd =
        open_retry(name.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                   0644);
    if (fd < 0) {
      const Status s = errno_status("open", name);
      files_.push_back(std::move(name));
      remove_files();
      return s;
    }
    files_.push_back(std::move(name));
    parts_[p].fd = fd;
  }
  return Status();
}

Status SpillPartitionWriter::seal_block(std::size_t p) {
  Partition& part = parts_[p];
  append_pod(part.directory, part.block_records);
  append_pod(part.directory, static_cast<std::uint64_t>(part.used));
  append_pod(part.directory, part.block_path_bytes);
  append_pod(part.directory, checksum_of(part.block.data(), part.used));
  const Status s = write_all(part.fd, part.block.data(), part.used);
  if (!s.ok()) return s.with_context(files_[p]);
  part.records += part.block_records;
  part.payload += part.used;
  part.path_bytes += part.block_path_bytes;
  part.used = 0;
  part.block_records = 0;
  part.block_path_bytes = 0;
  part.prev_row = 0;
  part.prev_mtime = 0;
  part.prev_path.clear();
  return Status();
}

Status SpillPartitionWriter::add(std::uint64_t path_hash, std::uint32_t row,
                                 bool is_dir, std::int64_t atime,
                                 std::int64_t mtime, std::int64_t ctime,
                                 std::string_view path) {
  if (finished_ || files_.empty()) {
    return Status::failed_precondition("spill writer not open");
  }
  const std::size_t p = RadixPartitions::partition_of(path_hash, bits_);
  Partition& part = parts_[p];
  // Room for the record's worst case, so it is written through a pointer.
  const std::size_t worst = part.used + kMaxRecordFixedBytes + path.size();
  if (part.block.size() < worst) {
    part.block.resize(std::max(worst, 2 * part.block.size()));
  }
  std::uint8_t* out = part.block.data() + part.used;
  std::memcpy(out, &path_hash, sizeof(path_hash));
  out += sizeof(path_hash);
  out = put_varint_at(out, zigzag_encode(static_cast<std::int64_t>(row) -
                                         part.prev_row));
  const std::size_t shared = shared_prefix(part.prev_path, path);
  const std::size_t suffix = path.size() - shared;
  out = put_varint_at(out, (static_cast<std::uint64_t>(shared) << 1) |
                               (is_dir ? 1 : 0));
  out = put_varint_at(out, suffix);
  if (suffix > 0) std::memcpy(out, path.data() + shared, suffix);
  out += suffix;
  out = put_varint_at(out, zigzag_encode(wrapping_sub(mtime, part.prev_mtime)));
  out = put_varint_at(out, zigzag_encode(wrapping_sub(atime, mtime)));
  out = put_varint_at(out, zigzag_encode(wrapping_sub(ctime, mtime)));
  part.used = static_cast<std::size_t>(out - part.block.data());
  part.prev_row = row;
  part.prev_mtime = mtime;
  part.prev_path.resize(shared);
  part.prev_path.append(path.substr(shared));
  ++part.block_records;
  part.block_path_bytes += path.size();
  if (is_dir) {
    ++dir_rows_;
  } else {
    ++file_rows_;
  }
  if (part.block_records == kBlockRecords || part.used >= kBlockBytes) {
    return seal_block(p);
  }
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
    Partition& part = parts_[p];
    if (part.block_records > 0) {
      const Status s = seal_block(p);
      if (!s.ok()) return s;
    }
    std::vector<std::uint8_t>& tail = part.directory;
    const std::uint64_t directory_checksum =
        checksum_of(tail.data(), tail.size());
    const std::uint64_t blocks = tail.size() / kEntryBytes;
    append_pod(tail, kSpillMagic);
    append_pod(tail, blocks);
    append_pod(tail, part.records);
    append_pod(tail, part.payload);
    append_pod(tail, directory_checksum);
    const Status s = write_all(part.fd, tail.data(), tail.size());
    if (!s.ok()) return s.with_context(files_[p]);
    ::close(part.fd);
    part.fd = -1;
    largest_records_ = std::max(largest_records_, part.records);
    largest_path_bytes_ = std::max(largest_path_bytes_, part.path_bytes);
    part = Partition{};
  }
  finished_ = true;
  return Status();
}

void SpillPartitionWriter::remove_files() {
  for (std::size_t p = 0; p < files_.size(); ++p) {
    if (p < parts_.size() && parts_[p].fd >= 0) {
      ::close(parts_[p].fd);
      parts_[p].fd = -1;
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
  side.largest_records = largest_records_;
  side.largest_path_bytes = largest_path_bytes_;
  return side;
}

void SpillRecords::reserve(std::size_t records, std::size_t path_bytes) {
  hashes.reserve(records);
  rows.reserve(records);
  dir_flags.reserve(records);
  atimes.reserve(records);
  mtimes.reserve(records);
  ctimes.reserve(records);
  path_offsets.reserve(records + 1);
  this->path_bytes.reserve(path_bytes);
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

/// Records per probe task.
constexpr std::size_t kJoinGrain = 4096;

/// How many records ahead the probe pulls in its slot line. The probe is a
/// chain of independent random lookups, so overlapping ~16 in-flight
/// misses hides most of the latency; the value is uncritical.
constexpr std::size_t kProbePrefetchDistance = 16;

/// One block's directory entry.
struct BlockEntry {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t path_bytes = 0;
  std::uint64_t checksum = 0;
};

/// A partition file's trailer and directory, every field checked.
struct PartitionLayout {
  std::uint64_t blocks = 0;
  std::uint64_t records = 0;
  std::uint64_t payload = 0;
  std::uint64_t path_bytes = 0;  // the directory's total
  const std::uint8_t* directory = nullptr;

  BlockEntry entry(std::size_t k) const {
    const std::uint8_t* at = directory + k * kEntryBytes;
    return {load_pod<std::uint64_t>(at), load_pod<std::uint64_t>(at + 8),
            load_pod<std::uint64_t>(at + 16),
            load_pod<std::uint64_t>(at + 24)};
  }
};

/// Checks the fixed trailer field by field, then the directory against its
/// checksum and against the trailer's totals. Nothing may be sized from
/// the file before this passes: the trailer is covered by no checksum.
Status read_layout(std::span<const std::uint8_t> bytes,
                   const std::string& file, PartitionLayout* out) {
  if (bytes.size() < kTrailerBytes) {
    return Status::truncated("spill partition " + file +
                             ": shorter than its trailer");
  }
  const std::uint8_t* trailer = bytes.data() + bytes.size() - kTrailerBytes;
  if (load_pod<std::uint64_t>(trailer) != kSpillMagic) {
    return corrupt(file, "bad trailer magic");
  }
  const std::uint64_t blocks = load_pod<std::uint64_t>(trailer + 8);
  const std::uint64_t records = load_pod<std::uint64_t>(trailer + 16);
  const std::uint64_t payload = load_pod<std::uint64_t>(trailer + 24);
  const std::uint64_t directory_checksum =
      load_pod<std::uint64_t>(trailer + 32);
  const std::uint64_t body = bytes.size() - kTrailerBytes;
  if (blocks > body / kEntryBytes) {
    return corrupt(file, "block count exceeds what the file holds");
  }
  if (payload != body - blocks * kEntryBytes) {
    return corrupt(file, "payload size disagrees with trailer");
  }
  if (records > payload / kMinRecordBytes || records < blocks ||
      (records + kBlockRecords - 1) / kBlockRecords > blocks) {
    return corrupt(file, "record count disagrees with the payload and the "
                         "block count");
  }
  const std::uint8_t* directory = bytes.data() + payload;
  if (checksum_of(directory, blocks * kEntryBytes) != directory_checksum) {
    return corrupt(file, "directory checksum mismatch");
  }
  PartitionLayout layout;
  layout.blocks = blocks;
  layout.records = records;
  layout.payload = payload;
  layout.directory = directory;
  std::uint64_t total_records = 0, total_bytes = 0;
  for (std::size_t k = 0; k < blocks; ++k) {
    const BlockEntry e = layout.entry(k);
    // A block's paths are at most its records times its bytes long: a
    // path is no longer than the suffixes coded before it in the block.
    if (e.records == 0 || e.records > kBlockRecords ||
        e.bytes > payload - total_bytes ||
        e.bytes / kMinRecordBytes < e.records ||
        e.path_bytes / e.records > e.bytes) {
      return corrupt(file, "block " + std::to_string(k) +
                               " directory entry out of range");
    }
    total_records += e.records;
    total_bytes += e.bytes;
    layout.path_bytes += e.path_bytes;
  }
  if (total_records != records || total_bytes != payload) {
    return corrupt(file, "directory totals disagree with trailer");
  }
  *out = layout;
  return Status();
}

/// Sizes every column for `records` records and `path_bytes` path bytes.
/// The columns are cleared first, so a resize past their capacity copies
/// nothing, and one within it (the join's next partition) allocates
/// nothing.
void size_records(std::size_t records, std::size_t path_bytes,
                  SpillRecords* out) {
  out->clear();
  out->hashes.resize(records);
  out->rows.resize(records);
  out->dir_flags.resize(records);
  out->atimes.resize(records);
  out->mtimes.resize(records);
  out->ctimes.resize(records);
  out->path_offsets.resize(records + 1);
  out->path_bytes.resize(path_bytes);
}

/// Verifies block `block` against its directory entry and decodes it into
/// `out` from record `first` and path byte `path_at` on, checking each
/// record as the .scol path walk does: the shared prefix is no longer than
/// the previous path and the suffix lies inside the block. Returns what is
/// wrong with the block, or null.
const char* decode_block(std::span<const std::uint8_t> block,
                         const BlockEntry& entry, std::size_t first,
                         std::size_t path_at, SpillRecords* out) {
  if (checksum_of(block.data(), block.size()) != entry.checksum) {
    return "checksum mismatch";
  }
  char* const paths = out->path_bytes.data();
  const std::size_t path_end = path_at + entry.path_bytes;
  std::size_t prev = path_at, prev_len = 0, at = path_at, pos = 0;
  std::int64_t row = 0, mtime = 0, delta = 0;
  std::uint64_t prefix = 0, suffix = 0;
  for (std::size_t i = first; i < first + entry.records; ++i) {
    if (block.size() - pos < sizeof(std::uint64_t)) {
      return "record runs past the block";
    }
    out->hashes[i] = load_pod<std::uint64_t>(block.data() + pos);
    pos += sizeof(std::uint64_t);
    if (!get_zigzag(block, pos, delta)) return "truncated row";
    row = wrapping_add(row, delta);
    if (row < 0 || row > std::numeric_limits<std::uint32_t>::max()) {
      return "row out of range";
    }
    if (!get_varint(block, pos, prefix)) return "truncated shared length";
    const std::uint64_t shared = prefix >> 1;
    if (shared > prev_len) return "bad shared length";
    if (!get_varint(block, pos, suffix)) return "truncated suffix length";
    if (suffix > block.size() - pos) return "suffix runs past the block";
    if (shared + suffix > path_end - at) {
      return "paths longer than the directory entry";
    }
    std::memcpy(paths + at, paths + prev, shared);
    std::memcpy(paths + at + shared, block.data() + pos, suffix);
    pos += suffix;
    out->rows[i] = static_cast<std::uint32_t>(row);
    out->dir_flags[i] = static_cast<std::uint8_t>(prefix & 1);
    out->path_offsets[i] = at;
    prev = at;
    prev_len = shared + suffix;
    at += prev_len;
    if (!get_zigzag(block, pos, delta)) return "truncated mtime";
    mtime = wrapping_add(mtime, delta);
    out->mtimes[i] = mtime;
    if (!get_zigzag(block, pos, delta)) return "truncated atime";
    out->atimes[i] = wrapping_add(mtime, delta);
    if (!get_zigzag(block, pos, delta)) return "truncated ctime";
    out->ctimes[i] = wrapping_add(mtime, delta);
  }
  if (pos != block.size()) return "bytes left over after the last record";
  if (at != path_end) return "paths shorter than the directory entry";
  return nullptr;
}

/// Maps `file`, checks its trailer and directory, sizes `out` from the
/// directory's totals on the calling thread, then verifies and decodes the
/// blocks on `pool`. A file that fails leaves `out` empty, and it is
/// unmapped before this returns, because the next step may be its owner
/// rewriting it.
Status decode_partition(const std::string& file, ThreadPool* pool,
                        SpillRecords* out) {
  MappedFile map;
  PartitionLayout layout;
  Status s = map.open(file);
  if (s.ok()) s = read_layout(map.bytes(), file, &layout);
  if (!s.ok()) {
    out->clear();
    return s;
  }
  size_records(layout.records, layout.path_bytes, out);
  out->path_offsets[layout.records] = layout.path_bytes;

  // Where each block starts: its bytes, first record and first path byte.
  struct BlockStart {
    std::size_t byte = 0, record = 0, path = 0;
  };
  std::vector<BlockStart> starts(layout.blocks);
  for (std::size_t k = 1; k < starts.size(); ++k) {
    const BlockEntry e = layout.entry(k - 1);
    const BlockStart& last = starts[k - 1];
    starts[k] = {last.byte + e.bytes, last.record + e.records,
                 last.path + e.path_bytes};
  }
  std::vector<const char*> failures(layout.blocks, nullptr);
  const std::span<const std::uint8_t> bytes = map.bytes();
  parallel_for_chunked(
      layout.blocks, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
          const BlockEntry e = layout.entry(k);
          failures[k] = decode_block(bytes.subspan(starts[k].byte, e.bytes), e,
                                     starts[k].record, starts[k].path, out);
        }
      },
      pool);
  for (std::size_t k = 0; k < failures.size(); ++k) {
    if (failures[k] != nullptr) {
      out->clear();
      return corrupt(file, "block " + std::to_string(k) + ": " + failures[k]);
    }
  }
  return Status();
}

/// Loads one partition, retrying once through the side's regenerate hook
/// when the file fails verification — the owning side can always re-derive
/// a scratch partition from its original data.
Status load_partition(const SpilledSide& side, std::size_t p, ThreadPool* pool,
                      SpillRecords* out) {
  Status s = decode_partition(side.files[p], pool, out);
  if (s.ok() || !side.regenerate) return s;
  const Status regen = side.regenerate(p);
  if (!regen.ok()) return regen;
  return decode_partition(side.files[p], pool, out);
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

/// Claims the row of every record of `part` in `state`. The checksums
/// prove only that a record reads as it was written, so a row at or past
/// the side's row count, or one claimed twice, is refused here before the
/// probe writes anything at that row.
Status claim_rows(const SpillRecords& part, const std::string& file,
                  std::vector<std::uint8_t>& state) {
  for (std::size_t i = 0; i < part.size(); ++i) {
    const std::uint32_t row = part.rows[i];
    if (row >= state.size()) {
      return corrupt(file, "record row " + std::to_string(row) +
                               " outside the side's " +
                               std::to_string(state.size()) + " rows");
    }
    if (state[row] != kAbsent) {
      return corrupt(file, "row " + std::to_string(row) + " spilled twice");
    }
    state[row] = part.dir_flags[i] != 0 ? kDirRow : kFileRow;
  }
  return Status();
}

/// The state the probe writes for a current-side record matched to a
/// previous-side one: the classification of engine/diff.cc's joins.
std::uint8_t matched_state(const SpillRecords& prev, std::size_t pi,
                           const SpillRecords& cur, std::size_t ci) {
  const bool atime_same = cur.atimes[ci] == prev.atimes[pi];
  const bool mtime_same = cur.mtimes[ci] == prev.mtimes[pi];
  const bool ctime_same = cur.ctimes[ci] == prev.ctimes[pi];
  if (cur.dir_flags[ci] != 0) {
    return atime_same && mtime_same && ctime_same ? kSameDir : kChangedDir;
  }
  if (mtime_same && ctime_same) {
    return atime_same ? kUntouchedFile : kReadonlyFile;
  }
  return kUpdatedFile;
}

}  // namespace

Status read_spill_partition(const std::string& file, SpillRecords* out) {
  return decode_partition(file, nullptr, out);
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

  // Everything the join holds is sized on the calling thread, here or in
  // decode_partition; the pool's tasks only fill it.
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
  // Each side's columns are sized once, for its largest partition, and
  // keep that capacity from one partition to the next. Growing them as a
  // larger partition arrives instead would double path_bytes' capacity
  // and leave the freed block in the heap. The maxima are only a hint:
  // decode_partition still sizes each partition from its checked
  // directory, and grows the columns if a file claims more.
  SpillRecords prev_part, cur_part;
  prev_part.reserve(prev.largest_records, prev.largest_path_bytes);
  cur_part.reserve(cur.largest_records, cur.largest_path_bytes);
  PathIndex index;

  for (std::size_t p = 0; p < prev.files.size(); ++p) {
    Status s = load_partition(prev, p, pool, &prev_part);
    if (s.ok()) s = claim_rows(prev_part, prev.files[p], prev_state);
    if (s.ok()) s = load_partition(cur, p, pool, &cur_part);
    if (s.ok()) s = claim_rows(cur_part, cur.files[p], cur_state);
    if (!s.ok()) return s;

    index.reset(prev_part.size());
    for (std::size_t j = 0; j < prev_part.size(); ++j) {
      const std::uint8_t is_dir = prev_part.dir_flags[j];
      if (is_dir != 0 && !options.dirs) continue;
      const std::string_view path = prev_part.path(j);
      index.insert(static_cast<std::uint32_t>(j), prev_part.hashes[j],
                   [&prev_part, is_dir, path](std::uint32_t other) {
                     return prev_part.dir_flags[other] == is_dir &&
                            prev_part.path(other) == path;
                   });
    }

    parallel_for_chunked(
        cur_part.size(), kJoinGrain,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            if (i + kProbePrefetchDistance < end) {
              index.prefetch(cur_part.hashes[i + kProbePrefetchDistance]);
            }
            const std::uint8_t is_dir = cur_part.dir_flags[i];
            if (is_dir != 0 && !options.dirs) continue;
            const std::string_view path = cur_part.path(i);
            const std::uint32_t j = index.find(
                cur_part.hashes[i],
                [&prev_part, is_dir, path](std::uint32_t k) {
                  return prev_part.dir_flags[k] == is_dir &&
                         prev_part.path(k) == path;
                });
            const std::uint32_t row = cur_part.rows[i];
            if (j == PathIndex::kNotFound) {
              cur_state[row] = is_dir != 0 ? kNewDir : kNewFile;
              continue;
            }
            const std::uint32_t prev_row = prev_part.rows[j];
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
