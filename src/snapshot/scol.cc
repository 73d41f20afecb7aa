#include "snapshot/scol.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "snapshot/varint.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/parallel.h"

namespace spider {

namespace {

constexpr char kMagicV1[8] = {'S', 'C', 'O', 'L', '0', '0', '0', '1'};
constexpr char kMagicV2[8] = {'S', 'C', 'O', 'L', '0', '0', '0', '2'};

enum ColumnId : std::uint8_t {
  kColPaths = 1,
  kColAtime = 2,
  kColCtime = 3,
  kColMtime = 4,
  kColUid = 5,
  kColGid = 6,
  kColMode = 7,
  kColInode = 8,
  kColOst = 9,
};

enum Encoding : std::uint8_t {
  kEncPlainStrings = 0,  // varint length + bytes
  kEncFrontCoded = 1,    // varint shared-prefix + varint suffix len + bytes
  kEncZigzagAbs = 2,     // absolute zig-zag varint per row
  kEncDeltaPrev = 3,     // zig-zag varint delta vs previous row
  kEncDeltaMtime = 4,    // zig-zag varint delta vs same-row mtime
  kEncPlainVarint = 5,   // varint per row
  kEncRle = 6,           // (varint run length, varint value) pairs
  kEncOstLists = 7,      // varint count + varint values per row
};

void put_u64_le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

bool get_u64_le(std::span<const std::uint8_t> in, std::size_t& pos,
                std::uint64_t& v) {
  if (pos + 8 > in.size()) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos += 8;
  return true;
}

std::uint64_t payload_checksum(std::span<const std::uint8_t> payload) {
  return hash_bytes(std::string_view(
      reinterpret_cast<const char*>(payload.data()), payload.size()));
}

std::size_t shared_prefix(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

/// Signed addition through unsigned arithmetic: corrupt delta payloads can
/// produce arbitrary operands, and plain `a + b` on int64 would be UB on
/// overflow (the sanitizer suite runs decode against random damage).
std::int64_t wrapping_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

// ---- column encoders ------------------------------------------------------
// Every encoder covers rows [begin, end) and starts from fresh state
// (empty front-coding prefix, zero delta base, new run), which is what
// makes a v2 row group decodable without its predecessors.

std::vector<std::uint8_t> encode_paths(const SnapshotTable& t,
                                       std::size_t begin, std::size_t end,
                                       bool front_code) {
  std::vector<std::uint8_t> out;
  std::string_view prev;
  for (std::size_t i = begin; i < end; ++i) {
    const std::string_view p = t.path(i);
    if (front_code) {
      const std::size_t shared = shared_prefix(prev, p);
      put_varint(out, shared);
      put_varint(out, p.size() - shared);
      out.insert(out.end(), p.begin() + static_cast<std::ptrdiff_t>(shared),
                 p.end());
      prev = p;
    } else {
      put_varint(out, p.size());
      out.insert(out.end(), p.begin(), p.end());
    }
  }
  return out;
}

std::vector<std::uint8_t> encode_i64_column(std::span<const std::int64_t> col,
                                            Encoding enc,
                                            std::span<const std::int64_t> base) {
  std::vector<std::uint8_t> out;
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < col.size(); ++i) {
    switch (enc) {
      case kEncZigzagAbs:
        put_zigzag(out, col[i]);
        break;
      case kEncDeltaPrev:
        put_zigzag(out, col[i] - prev);
        prev = col[i];
        break;
      case kEncDeltaMtime:
        put_zigzag(out, col[i] - base[i]);
        break;
      default:
        break;
    }
  }
  return out;
}

std::vector<std::uint8_t> encode_u32_column(std::span<const std::uint32_t> col,
                                            bool rle) {
  std::vector<std::uint8_t> out;
  if (!rle) {
    for (const std::uint32_t v : col) put_varint(out, v);
    return out;
  }
  std::size_t i = 0;
  while (i < col.size()) {
    std::size_t run = 1;
    while (i + run < col.size() && col[i + run] == col[i]) ++run;
    put_varint(out, run);
    put_varint(out, col[i]);
    i += run;
  }
  return out;
}

std::vector<std::uint8_t> encode_inodes(std::span<const std::uint64_t> col,
                                        bool delta) {
  std::vector<std::uint8_t> out;
  std::uint64_t prev = 0;
  for (const std::uint64_t v : col) {
    if (delta) {
      put_zigzag(out, static_cast<std::int64_t>(v - prev));
      prev = v;
    } else {
      put_varint(out, v);
    }
  }
  return out;
}

std::vector<std::uint8_t> encode_osts(const SnapshotTable& t,
                                      std::size_t begin, std::size_t end) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = begin; i < end; ++i) {
    const auto osts = t.osts(i);
    put_varint(out, osts.size());
    for (const std::uint32_t o : osts) put_varint(out, o);
  }
  return out;
}

void append_column(std::vector<std::uint8_t>& image, ColumnId id, Encoding enc,
                   const std::vector<std::uint8_t>& payload) {
  image.push_back(id);
  image.push_back(enc);
  put_u64_le(image, payload.size());
  put_u64_le(image, payload_checksum(payload));
  image.insert(image.end(), payload.begin(), payload.end());
}

/// Writes the column-count byte plus all nine column blocks for rows
/// [begin, end). The whole v1 body, and one v2 row group.
void encode_column_set(std::vector<std::uint8_t>& out, const SnapshotTable& t,
                       std::size_t begin, std::size_t end,
                       const ScolOptions& options) {
  const Encoding ts_enc =
      options.delta_timestamps ? kEncDeltaPrev : kEncZigzagAbs;
  const Encoding rel_enc =
      options.delta_timestamps ? kEncDeltaMtime : kEncZigzagAbs;
  const Encoding id_enc = options.rle_ids ? kEncRle : kEncPlainVarint;
  const std::size_t n = end - begin;

  out.push_back(9);  // column count
  append_column(out, kColPaths,
                options.front_code_paths ? kEncFrontCoded : kEncPlainStrings,
                encode_paths(t, begin, end, options.front_code_paths));
  append_column(out, kColMtime, ts_enc,
                encode_i64_column(t.mtimes().subspan(begin, n), ts_enc, {}));
  append_column(out, kColAtime, rel_enc,
                encode_i64_column(t.atimes().subspan(begin, n), rel_enc,
                                  t.mtimes().subspan(begin, n)));
  append_column(out, kColCtime, rel_enc,
                encode_i64_column(t.ctimes().subspan(begin, n), rel_enc,
                                  t.mtimes().subspan(begin, n)));
  append_column(out, kColUid, id_enc,
                encode_u32_column(t.uids().subspan(begin, n), options.rle_ids));
  append_column(out, kColGid, id_enc,
                encode_u32_column(t.gids().subspan(begin, n), options.rle_ids));
  append_column(out, kColMode, id_enc,
                encode_u32_column(t.modes().subspan(begin, n),
                                  options.rle_ids));
  append_column(out, kColInode,
                options.delta_inodes ? kEncDeltaPrev : kEncPlainVarint,
                encode_inodes(t.inodes().subspan(begin, n),
                              options.delta_inodes));
  append_column(out, kColOst, kEncOstLists, encode_osts(t, begin, end));
}

// ---- column decoders ------------------------------------------------------
// Decoders return a typed Status: kTruncated when the payload ends before
// its own framing says it should, kCorruption for values that cannot be
// valid (bad shared length, bad encoding id, overlong runs). Each appends
// its `rows` values to the end of a column, and only after the checks that
// fail before any value is read, so a damaged row count fails there
// instead of driving a huge allocation.

struct ColumnBlock {
  Encoding enc = kEncPlainStrings;
  std::span<const std::uint8_t> payload;
};

/// The nine blocks of one column set, by column id.
struct ColumnSet {
  ColumnBlock blocks[kColOst + 1];

  const ColumnBlock& operator[](ColumnId id) const { return blocks[id]; }
};

/// Parses one column set (count byte + blocks) starting at `pos`: framing,
/// every block's checksum and the presence of all nine columns. It decodes
/// no payload, so every reader of a group checks the same things first.
Status parse_column_set(std::span<const std::uint8_t> bytes, std::size_t pos,
                        ColumnSet* set) {
  if (pos >= bytes.size()) return Status::truncated("truncated column set");
  const std::uint8_t ncols = bytes[pos++];

  std::uint32_t present = 0;
  for (std::uint8_t c = 0; c < ncols; ++c) {
    if (pos + 2 > bytes.size()) {
      return Status::truncated("truncated column header");
    }
    const std::uint8_t id = bytes[pos++];
    const Encoding enc = static_cast<Encoding>(bytes[pos++]);
    std::uint64_t size = 0, checksum = 0;
    if (!get_u64_le(bytes, pos, size) || !get_u64_le(bytes, pos, checksum)) {
      return Status::truncated("truncated column header");
    }
    if (size > bytes.size() - pos) {
      return Status::truncated("truncated payload");
    }
    const auto payload = bytes.subspan(pos, size);
    if (payload_checksum(payload) != checksum) {
      return Status::corruption("column checksum mismatch");
    }
    if (id >= kColPaths && id <= kColOst) {  // unknown ids are skipped
      set->blocks[id] = ColumnBlock{enc, payload};
      present |= 1u << id;
    }
    pos += size;
  }
  for (const ColumnId id :
       {kColPaths, kColAtime, kColCtime, kColMtime, kColUid, kColGid,
        kColMode, kColInode, kColOst}) {
    if (!(present & (1u << id))) return Status::corruption("missing column");
  }
  return Status();
}

/// Walks a paths block and calls visit(path, end) once per row, in row
/// order, where `end` is the payload offset just past the row. Every path
/// is rebuilt in one reused buffer, so a row costs no allocation; the view
/// passed to visit dies at the next row.
template <typename Visit>
Status walk_paths(const ColumnBlock& block, std::size_t rows, Visit&& visit) {
  // Every row costs at least one payload byte. Rejecting a larger row count
  // (a damaged v1 header, say) here, first, keeps it from driving a huge
  // reserve in the column decoders that follow.
  if (rows > block.payload.size()) {
    return Status::corruption("paths: row count exceeds payload");
  }
  std::string path;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t shared = 0, len = 0;
    if (block.enc == kEncFrontCoded) {
      if (!get_varint(block.payload, pos, shared)) {
        return Status::truncated("paths: truncated shared length");
      }
      if (shared > path.size()) {
        return Status::corruption("paths: bad shared length");
      }
    }
    if (!get_varint(block.payload, pos, len)) {
      return Status::truncated("paths: truncated suffix length");
    }
    if (len > block.payload.size() - pos) {
      return Status::truncated("paths: truncated suffix bytes");
    }
    path.resize(shared);
    path.append(reinterpret_cast<const char*>(block.payload.data() + pos),
                len);
    pos += len;
    visit(std::string_view(path), pos);
  }
  return Status();
}

/// A group's paths are rebuilt in stretches of rows, spread over the pool.
/// A stretch ends after kPathStretchRows rows or once it holds
/// kPathStretchBytes of path bytes, whichever comes first; the byte cut
/// keeps one stretch of very long paths (deep directory chains) from
/// serializing the rebuild.
constexpr std::size_t kPathStretchRows = 8192;
constexpr std::size_t kPathStretchBytes = 256 * 1024;

/// Where the rebuild of one stretch starts: its first row, that row's
/// payload offset, its offset in the group's path block, and the previous
/// row's path (the front-coding base), saved in PathPlan::prevs.
struct PathStretch {
  std::size_t row = 0;
  std::size_t pos = 0;
  std::size_t out = 0;
  std::size_t prev = 0;
  std::size_t prev_len = 0;
};

/// What the validating path walk learns for the rebuild.
struct PathPlan {
  std::vector<PathStretch> stretches;
  std::string prevs;      // each stretch's previous path, back to back
  std::size_t bytes = 0;  // every path's length, summed: the block size
};

/// decode_group's validating walk over a group's paths: walk_paths, the
/// walk scan_owners validates with too, recording where each stretch
/// starts and how large the path block must be.
Status plan_paths(const ColumnBlock& block, std::size_t rows, PathPlan* plan) {
  plan->stretches.assign(1, PathStretch{});
  plan->prevs.clear();
  std::size_t row = 0, bytes = 0;  // rows and path bytes walked so far
  std::size_t open_row = 0, open_out = 0;  // where the open stretch began
  const Status s =
      walk_paths(block, rows, [&](std::string_view path, std::size_t end) {
        bytes += path.size();
        ++row;
        if (row < rows && (row - open_row >= kPathStretchRows ||
                           bytes - open_out >= kPathStretchBytes)) {
          plan->stretches.push_back(
              PathStretch{row, end, bytes, plan->prevs.size(), path.size()});
          plan->prevs.append(path);
          open_row = row;
          open_out = bytes;
        }
      });
  plan->bytes = bytes;
  return s;
}

/// Path components that start in bytes [from, to) of `p`: non-slash bytes
/// after a slash or at the start. Over a whole path this is path_depth.
std::size_t component_starts(const char* p, std::size_t from,
                             std::size_t to) {
  std::size_t n = 0;
  bool after_slash = from == 0 || p[from - 1] == '/';
  for (std::size_t j = from; j < to; ++j) {
    const bool slash = p[j] == '/';
    n += static_cast<std::size_t>(!slash && after_slash);
    after_slash = slash;
  }
  return n;
}

/// Rebuilds stretch `k` of a validated paths block, from its first row up
/// to row `end`, into `block`, with each path's hash and depth while its
/// bytes are in cache. A row that shares a prefix with the previous one
/// counts the depth of its own tail only: the shared bytes' components are
/// the previous row's, less those in the previous row's tail.
void rebuild_stretch(const ColumnBlock& col, const PathPlan& plan,
                     std::size_t k, std::size_t end, char* block,
                     const SnapshotTable::BulkAppend::PathSpans& out) {
  const PathStretch& stretch = plan.stretches[k];
  const char* prev = plan.prevs.data() + stretch.prev;
  std::size_t prev_len = stretch.prev_len;
  std::size_t prev_depth = component_starts(prev, 0, prev_len);
  char* dst = block + stretch.out;
  std::size_t pos = stretch.pos;
  for (std::size_t i = stretch.row; i < end; ++i) {
    // plan_paths validated every varint and length: these reads succeed.
    std::uint64_t shared = 0, len = 0;
    if (col.enc == kEncFrontCoded) get_varint(col.payload, pos, shared);
    get_varint(col.payload, pos, len);
    std::memcpy(dst, prev, shared);
    std::memcpy(dst + shared, col.payload.data() + pos, len);
    pos += len;
    const std::size_t n = shared + len;
    const std::size_t depth =
        shared == 0 ? component_starts(dst, 0, n)
                    : prev_depth - component_starts(prev, shared, prev_len) +
                          component_starts(dst, shared, n);
    out.paths[i] = std::string_view(dst, n);
    out.hashes[i] = hash_bytes(out.paths[i]);
    out.depths[i] = static_cast<std::uint16_t>(std::min<std::size_t>(
        depth, std::numeric_limits<std::uint16_t>::max()));
    prev = dst;
    prev_len = n;
    prev_depth = depth;
    dst += n;
  }
}

Status decode_i64(const ColumnBlock& block, std::size_t rows,
                  std::span<const std::int64_t> base,
                  std::vector<std::int64_t>* out) {
  if (rows > block.payload.size()) {
    return Status::corruption("timestamp row count exceeds payload");
  }
  if (rows == 0) return Status();
  // Bulk varint decode (SIMD when available), then the per-encoding
  // transform over the raw values. Failure ordering matches the row-at-a-
  // time reference loop: a transform-level defect (bad encoding id,
  // missing delta base) only surfaces after the first varint has been
  // read successfully — the reference decoded value 0 before hitting the
  // transform — so corrupt inputs keep their historical Status codes.
  const bool enc_ok = block.enc == kEncZigzagAbs ||
                      block.enc == kEncDeltaPrev ||
                      block.enc == kEncDeltaMtime;
  const bool base_ok = block.enc != kEncDeltaMtime || base.size() == rows;
  if (!enc_ok || !base_ok) {
    std::size_t probe = 0;
    std::uint64_t first = 0;
    if (!get_varint(block.payload, probe, first)) {
      return Status::truncated("timestamp column truncated");
    }
    return Status::corruption(enc_ok ? "missing mtime base"
                                     : "bad timestamp encoding");
  }
  out->resize(out->size() + rows);
  std::int64_t* dst = out->data() + out->size() - rows;
  // The raw varints land in the column itself and are decoded in place.
  auto* raw = reinterpret_cast<std::uint64_t*>(dst);
  std::size_t pos = 0;
  if (!get_varints(block.payload, pos, raw, rows)) {
    return Status::truncated("timestamp column truncated");
  }
  zigzag_decode_bulk(raw, dst, rows);
  if (block.enc == kEncDeltaPrev) {
    std::int64_t prev = 0;
    for (std::size_t i = 0; i < rows; ++i) {
      prev = wrapping_add(dst[i], prev);
      dst[i] = prev;
    }
  } else if (block.enc == kEncDeltaMtime) {
    for (std::size_t i = 0; i < rows; ++i) {
      dst[i] = wrapping_add(dst[i], base[i]);
    }
  }
  return Status();
}

Status decode_u32(const ColumnBlock& block, std::size_t rows,
                  std::vector<std::uint32_t>* out) {
  std::size_t pos = 0;
  if (block.enc == kEncPlainVarint) {
    // Every value costs at least one byte.
    if (rows > block.payload.size()) {
      return Status::truncated("u32 column truncated");
    }
    out->resize(out->size() + rows);
    std::uint32_t* dst = out->data() + out->size() - rows;
    for (std::size_t i = 0; i < rows; ++i) {
      std::uint64_t v = 0;
      if (!get_varint(block.payload, pos, v)) {
        return Status::truncated("u32 column truncated");
      }
      dst[i] = static_cast<std::uint32_t>(v);
    }
    return Status();
  }
  if (block.enc != kEncRle) return Status::corruption("bad u32 encoding");
  // Runs are inserted as they are read: an RLE payload bounds no row count.
  const std::size_t end = out->size() + rows;
  while (out->size() < end) {
    std::uint64_t run = 0, value = 0;
    if (!get_varint(block.payload, pos, run) ||
        !get_varint(block.payload, pos, value)) {
      return Status::truncated("rle column truncated");
    }
    if (run == 0 || run > end - out->size()) {
      return Status::corruption("rle run overflows row count");
    }
    out->insert(out->end(), run, static_cast<std::uint32_t>(value));
  }
  return Status();
}

Status decode_inodes(const ColumnBlock& block, std::size_t rows,
                     std::vector<std::uint64_t>* out) {
  if (rows == 0) return Status();
  if (block.enc != kEncDeltaPrev && block.enc != kEncPlainVarint) {
    // The reference loop rejects the encoding before reading any bytes.
    return Status::corruption("bad inode encoding");
  }
  // Every value costs at least one byte.
  if (rows > block.payload.size()) {
    return Status::truncated("inode column truncated");
  }
  out->resize(out->size() + rows);
  std::uint64_t* dst = out->data() + out->size() - rows;
  std::size_t pos = 0;
  if (!get_varints(block.payload, pos, dst, rows)) {
    return Status::truncated("inode column truncated");
  }
  if (block.enc == kEncDeltaPrev) {
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < rows; ++i) {
      prev += static_cast<std::uint64_t>(zigzag_decode(dst[i]));
      dst[i] = prev;
    }
  }
  return Status();
}

/// Appends each row's OST values to `values` and the CSR end offset of its
/// list (into `values`, as it then stands) to `ends`.
Status decode_osts(const ColumnBlock& block, std::size_t rows,
                   std::vector<std::uint32_t>* ends,
                   std::vector<std::uint32_t>* values) {
  // Every row costs at least its stripe-count byte.
  if (rows > block.payload.size()) {
    return Status::truncated("ost column truncated");
  }
  std::size_t pos = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t count = 0;
    if (!get_varint(block.payload, pos, count)) {
      return Status::truncated("ost column truncated");
    }
    if (count > 4096) return Status::corruption("implausible stripe count");
    for (std::uint64_t k = 0; k < count; ++k) {
      std::uint64_t v = 0;
      if (!get_varint(block.payload, pos, v)) {
        return Status::truncated("ost column truncated");
      }
      values->push_back(static_cast<std::uint32_t>(v));
    }
    ends->push_back(static_cast<std::uint32_t>(values->size()));
  }
  return Status();
}

/// Where decode_columns appends each column other than paths; a null sink
/// is not decoded. atime and ctime need the mtime sink too (their deltas
/// are against it).
struct ColumnSinks {
  std::vector<std::int64_t>* mtime = nullptr;
  std::vector<std::int64_t>* atime = nullptr;
  std::vector<std::int64_t>* ctime = nullptr;
  std::vector<std::uint32_t>* uid = nullptr;
  std::vector<std::uint32_t>* gid = nullptr;
  std::vector<std::uint32_t>* mode = nullptr;
  std::vector<std::uint64_t>* inode = nullptr;
  std::vector<std::uint32_t>* ost_ends = nullptr;
  std::vector<std::uint32_t>* ost_values = nullptr;
};

/// Decodes the non-path columns of a parsed set in one fixed order, after
/// plan_paths has validated the paths, so every reader of a group reaches
/// the same verdict at the same projection.
Status decode_columns(const ColumnSet& set, std::size_t rows,
                      const ColumnSinks& out) {
  // The new rows' mtimes, the base of the atime and ctime deltas.
  const auto mtimes = [&]() -> std::span<const std::int64_t> {
    return out.mtime ? std::span<const std::int64_t>(*out.mtime).last(rows)
                     : std::span<const std::int64_t>();
  };
  Status s;
  if (out.mtime &&
      !(s = decode_i64(set[kColMtime], rows, {}, out.mtime)).ok()) {
    return s;
  }
  if (out.atime &&
      !(s = decode_i64(set[kColAtime], rows, mtimes(), out.atime)).ok()) {
    return s;
  }
  if (out.ctime &&
      !(s = decode_i64(set[kColCtime], rows, mtimes(), out.ctime)).ok()) {
    return s;
  }
  if (out.uid && !(s = decode_u32(set[kColUid], rows, out.uid)).ok()) {
    return s;
  }
  if (out.gid && !(s = decode_u32(set[kColGid], rows, out.gid)).ok()) {
    return s;
  }
  if (out.mode && !(s = decode_u32(set[kColMode], rows, out.mode)).ok()) {
    return s;
  }
  if (out.inode && !(s = decode_inodes(set[kColInode], rows, out.inode)).ok()) {
    return s;
  }
  if (out.ost_ends &&
      !(s = decode_osts(set[kColOst], rows, out.ost_ends, out.ost_values))
           .ok()) {
    return s;
  }
  return Status();
}

/// Decodes a parsed column set of `rows` rows and appends them to `table`.
/// The inverse of encode_column_set; the whole v1 body, one v2 row group.
/// On a non-ok Status `table` is untouched.
///
/// One serial walk validates the paths and cuts them into stretches. Then,
/// on `pool`, one task decodes the other columns straight into the table
/// while the rest rebuild the path stretches into one exact-size block.
/// Every stretch writes only its own rows and bytes, so the table is the
/// same at any pool width.
///
/// Projection: only columns in `columns` are decoded and materialized;
/// the rest read back as zero/empty. Checksum validation and structural
/// checks run for every block regardless, so a damaged image fails (or
/// salvages) identically at any projection.
Status decode_column_set(const ColumnSet& set, std::size_t rows,
                         SnapshotTable* table, ColumnMask columns,
                         ThreadPool* pool) {
  // atime/ctime are deltas against same-row mtime: requesting either means
  // mtime has to be decoded (and is then materialized too — cheaper than a
  // shadow column, and callers asking for access times nearly always want
  // the modify time as well).
  if (columns & (kColMaskAtime | kColMaskCtime)) columns |= kColMaskMtime;

  PathPlan plan;
  Status s;
  if ((columns & kColMaskPaths) &&
      !(s = plan_paths(set[kColPaths], rows, &plan)).ok()) {
    return s;
  }

  SnapshotTable::BulkAppend append(table, rows);
  ColumnSinks sinks;
  if (columns & kColMaskMtime) sinks.mtime = &append.mtimes();
  if (columns & kColMaskAtime) sinks.atime = &append.atimes();
  if (columns & kColMaskCtime) sinks.ctime = &append.ctimes();
  if (columns & kColMaskUid) sinks.uid = &append.uids();
  if (columns & kColMaskGid) sinks.gid = &append.gids();
  if (columns & kColMaskMode) sinks.mode = &append.modes();
  if (columns & kColMaskInode) sinks.inode = &append.inodes();
  if (columns & kColMaskOsts) {
    sinks.ost_ends = &append.ost_ends();
    sinks.ost_values = &append.ost_values();
  }
  // Every row of a valid group costs at least one byte of its paths block,
  // projected or not, and every OST value one byte of its own. Within that
  // bound the columns are reserved here, on the calling thread, so the
  // column task below allocates nothing even when it runs on a worker.
  if (rows <= set[kColPaths].payload.size()) {
    append.reserve(sinks.ost_values ? set[kColOst].payload.size() : 0);
  }
  // Empty paths need no rebuild: commit() stores them as add() would.
  char* block = nullptr;
  SnapshotTable::BulkAppend::PathSpans paths;
  const std::size_t stretches =
      (columns & kColMaskPaths) && plan.bytes > 0 ? plan.stretches.size() : 0;
  if (stretches > 0) paths = append.paths(plan.bytes, &block);

  parallel_for(
      stretches + 1,
      [&](std::size_t task) {
        if (task == 0) {
          s = decode_columns(set, rows, sinks);
          return;
        }
        const std::size_t k = task - 1;
        const std::size_t end =
            k + 1 < stretches ? plan.stretches[k + 1].row : rows;
        rebuild_stretch(set[kColPaths], plan, k, end, block, paths);
      },
      pool, /*grain=*/1);
  if (!s.ok()) return s;
  append.commit();
  return Status();
}

// ---- v1 (decode only) -----------------------------------------------------
//
//   magic "SCOL0001"
//   u64 total rows
//   one column set for the whole table
//
// ScolGroupReader presents it as a single group.

// ---- v2 (row groups) ------------------------------------------------------
//
//   magic "SCOL0002"
//   u64 total rows
//   u64 nominal group size (rows; last group may be short)
//   u64 group count
//   directory: per group { u64 rows, u64 byte size }
//   groups, concatenated in row order; each one column set
//
// Group byte offsets are the running sum of directory sizes, so the
// directory fully bounds every group before any payload is touched.

}  // namespace

std::vector<std::uint8_t> encode_scol(const SnapshotTable& table,
                                      const ScolOptions& options,
                                      ThreadPool* pool) {
  const std::size_t rows = table.size();
  const std::size_t group_size = std::max<std::size_t>(1, options.group_size);
  const std::size_t ngroups = (rows + group_size - 1) / group_size;

  std::vector<std::vector<std::uint8_t>> groups(ngroups);
  parallel_for(
      ngroups,
      [&](std::size_t g) {
        const std::size_t begin = g * group_size;
        const std::size_t end = std::min(begin + group_size, rows);
        encode_column_set(groups[g], table, begin, end, options);
      },
      pool, /*grain=*/1);

  std::size_t payload_bytes = 0;
  for (const auto& g : groups) payload_bytes += g.size();

  std::vector<std::uint8_t> image;
  image.reserve(sizeof(kMagicV2) + 3 * 8 + ngroups * 16 + payload_bytes);
  image.insert(image.end(), kMagicV2, kMagicV2 + sizeof(kMagicV2));
  put_u64_le(image, rows);
  put_u64_le(image, group_size);
  put_u64_le(image, ngroups);
  for (std::size_t g = 0; g < ngroups; ++g) {
    const std::size_t begin = g * group_size;
    put_u64_le(image, std::min(group_size, rows - begin));
    put_u64_le(image, groups[g].size());
  }
  for (const auto& g : groups) image.insert(image.end(), g.begin(), g.end());
  return image;
}

Status parse_scol_v2_layout(std::span<const std::uint8_t> bytes,
                            ScolV2Layout* layout) {
  *layout = ScolV2Layout{};
  if (bytes.size() < sizeof(kMagicV2) ||
      std::memcmp(bytes.data(), kMagicV2, sizeof(kMagicV2)) != 0) {
    return Status::corruption("bad magic");
  }
  std::size_t pos = sizeof(kMagicV2);
  std::uint64_t ngroups = 0;
  if (!get_u64_le(bytes, pos, layout->rows) ||
      !get_u64_le(bytes, pos, layout->group_size) ||
      !get_u64_le(bytes, pos, ngroups)) {
    return Status::truncated("truncated header");
  }
  if (ngroups > (bytes.size() - pos) / 16) {
    return Status::truncated("group directory exceeds image");
  }

  layout->group_rows.resize(ngroups);
  layout->group_begin.resize(ngroups);
  layout->group_len.resize(ngroups);
  layout->group_truncated.assign(ngroups, false);
  for (std::size_t g = 0; g < ngroups; ++g) {
    std::uint64_t size = 0;
    if (!get_u64_le(bytes, pos, layout->group_rows[g]) ||
        !get_u64_le(bytes, pos, size)) {
      return Status::truncated("truncated group directory");
    }
    layout->group_len[g] = static_cast<std::size_t>(size);
  }
  layout->payload_start = pos;

  std::uint64_t dir_rows = 0;
  std::size_t offset = pos;
  bool truncated_tail = false;
  for (std::size_t g = 0; g < ngroups; ++g) {
    dir_rows += layout->group_rows[g];
    layout->group_begin[g] = offset;
    // Once one group runs past the end, every later group does too (their
    // promised bytes simply are not there).
    if (truncated_tail || layout->group_len[g] > bytes.size() - offset) {
      truncated_tail = true;
      layout->group_truncated[g] = true;
      // Clamp the running offset so later extents stay well-defined.
      offset = bytes.size();
    } else {
      offset += layout->group_len[g];
    }
  }
  if (dir_rows != layout->rows) {
    return Status::corruption("group directory row mismatch");
  }
  return Status();
}

std::string SalvageReport::summary() const {
  if (clean()) {
    return "clean: " + std::to_string(rows_recovered) + " rows in " +
           std::to_string(groups_total) + " groups";
  }
  std::string out = "lost " + std::to_string(groups_lost) + "/" +
                    std::to_string(groups_total) + " groups (" +
                    std::to_string(rows_lost) + " of " +
                    std::to_string(rows_total) + " rows)";
  constexpr std::size_t kMaxListed = 8;
  for (std::size_t i = 0; i < damage.size() && i < kMaxListed; ++i) {
    out += "; group " + std::to_string(damage[i].group) + ": " +
           damage[i].status.to_string();
  }
  if (damage.size() > kMaxListed) {
    out += "; +" + std::to_string(damage.size() - kMaxListed) + " more";
  }
  return out;
}

Status decode_scol(std::span<const std::uint8_t> bytes, SnapshotTable* table,
                   const ScolOptions& options, SalvageReport* report,
                   ThreadPool* pool) {
  SalvageReport local;
  if (report == nullptr) report = &local;
  *report = SalvageReport{};
  ScolGroupReader reader;
  Status s = reader.open_bytes(bytes, options);
  // Header/directory damage is unrecoverable: without trustworthy group
  // extents there is nothing to salvage against.
  if (!s.ok()) return s;

  // Groups decode in order, each spread over the pool, into a table of
  // their own, and their verdicts fold as they come: the report and a
  // strict-mode failure (the lowest damaged group) match a serial decode,
  // and a failure leaves `table` untouched.
  *report = reader.make_report();
  SnapshotTable decoded;
  for (std::size_t g = 0; g < reader.group_count(); ++g) {
    s = reader.decode_group(g, &decoded, pool);
    if (s.ok()) {
      reader.note_success(g, report);
    } else if (!(s = reader.dispose_failure(g, std::move(s), report)).ok()) {
      return s;
    }
  }
  table->append_table(std::move(decoded));
  return Status();
}

Status scol_group_column_sizes(std::span<const std::uint8_t> group,
                               ScolColumnSizes* sizes) {
  *sizes = ScolColumnSizes{};
  if (group.empty()) return Status::truncated("truncated column set");
  std::size_t pos = 0;
  const std::uint8_t ncols = group[pos++];
  for (std::uint8_t c = 0; c < ncols; ++c) {
    if (pos + 2 > group.size()) {
      return Status::truncated("truncated column header");
    }
    const std::uint8_t id = group[pos++];
    ++pos;  // encoding byte; sizes do not depend on it
    std::uint64_t size = 0, checksum = 0;
    if (!get_u64_le(group, pos, size) || !get_u64_le(group, pos, checksum)) {
      return Status::truncated("truncated column header");
    }
    if (size > group.size() - pos) {
      return Status::truncated("truncated payload");
    }
    switch (id) {
      case kColPaths: sizes->paths += size; break;
      case kColAtime: sizes->atime += size; break;
      case kColCtime: sizes->ctime += size; break;
      case kColMtime: sizes->mtime += size; break;
      case kColUid: sizes->uid += size; break;
      case kColGid: sizes->gid += size; break;
      case kColMode: sizes->mode += size; break;
      case kColInode: sizes->inode += size; break;
      case kColOst: sizes->ost += size; break;
      default: break;  // unknown columns still count toward total
    }
    sizes->total += size;
    pos += size;
  }
  return Status();
}

ScolColumnSizes scol_column_sizes(const SnapshotTable& table,
                                  const ScolOptions& options) {
  ScolColumnSizes sizes;
  const Encoding ts_enc =
      options.delta_timestamps ? kEncDeltaPrev : kEncZigzagAbs;
  const Encoding rel_enc =
      options.delta_timestamps ? kEncDeltaMtime : kEncZigzagAbs;
  const std::size_t n = table.size();
  sizes.paths = encode_paths(table, 0, n, options.front_code_paths).size();
  sizes.mtime = encode_i64_column(table.mtimes(), ts_enc, {}).size();
  sizes.atime =
      encode_i64_column(table.atimes(), rel_enc, table.mtimes()).size();
  sizes.ctime =
      encode_i64_column(table.ctimes(), rel_enc, table.mtimes()).size();
  sizes.uid = encode_u32_column(table.uids(), options.rle_ids).size();
  sizes.gid = encode_u32_column(table.gids(), options.rle_ids).size();
  sizes.mode = encode_u32_column(table.modes(), options.rle_ids).size();
  sizes.inode = encode_inodes(table.inodes(), options.delta_inodes).size();
  sizes.ost = encode_osts(table, 0, n).size();
  sizes.total = sizes.paths + sizes.atime + sizes.ctime + sizes.mtime +
                sizes.uid + sizes.gid + sizes.mode + sizes.inode + sizes.ost;
  return sizes;
}

Status write_scol_file(const SnapshotTable& table, const std::string& file,
                       const ScolOptions& options) {
  const std::vector<std::uint8_t> image = encode_scol(table, options);
  return write_file_atomic(file, std::span<const std::uint8_t>(image));
}

Status read_scol_file(const std::string& file, SnapshotTable* table,
                      const ScolOptions& options, SalvageReport* report) {
  std::vector<std::uint8_t> bytes;
  Status s = read_file(file, &bytes);
  if (!s.ok()) return s;
  return decode_scol(bytes, table, options, report).with_context(file);
}

// ---- streaming group reader ----------------------------------------------

struct ScolGroupReader::Impl {
  MappedFile map;                       // owns the bytes when open()ed
  std::span<const std::uint8_t> bytes;  // the map's span, or borrowed
  ScolOptions options;
  ScolV2Layout layout;
  bool v1 = false;
  bool is_open = false;

  /// Group g's column set, parsed: kTruncated when its directory extent
  /// runs past the image.
  Status parse_group(std::size_t g, ColumnSet* set) const {
    if (layout.group_truncated[g]) {
      return Status::truncated("group extends past end of image");
    }
    return parse_column_set(
        bytes.subspan(layout.group_begin[g], layout.group_len[g]), 0, set);
  }
};

ScolGroupReader::ScolGroupReader() : impl_(std::make_unique<Impl>()) {}
ScolGroupReader::~ScolGroupReader() = default;
ScolGroupReader::ScolGroupReader(ScolGroupReader&&) noexcept = default;
ScolGroupReader& ScolGroupReader::operator=(ScolGroupReader&&) noexcept =
    default;

Status ScolGroupReader::open(const std::string& file,
                             const ScolOptions& options) {
  *impl_ = Impl{};
  Status s = impl_->map.open(file);
  if (!s.ok()) return s;
  s = open_bytes(impl_->map.bytes(), options);
  if (!s.ok()) {
    s = s.with_context(file);
    impl_->map.close();
  }
  return s;
}

Status ScolGroupReader::open_bytes(std::span<const std::uint8_t> bytes,
                                   const ScolOptions& options) {
  impl_->bytes = bytes;
  impl_->options = options;
  impl_->layout = ScolV2Layout{};
  impl_->v1 = false;
  impl_->is_open = false;
  if (bytes.size() >= sizeof(kMagicV1) &&
      std::memcmp(bytes.data(), kMagicV1, sizeof(kMagicV1)) == 0) {
    // v1: a single whole-table column set; present it as one group.
    std::size_t pos = sizeof(kMagicV1);
    std::uint64_t rows = 0;
    if (!get_u64_le(bytes, pos, rows)) {
      return Status::truncated("truncated header");
    }
    impl_->v1 = true;
    impl_->layout.rows = rows;
    impl_->layout.group_size = rows;
    impl_->layout.group_rows = {rows};
    impl_->layout.group_begin = {pos};
    impl_->layout.group_len = {bytes.size() - pos};
    impl_->layout.group_truncated = {false};
    impl_->layout.payload_start = pos;
    impl_->is_open = true;
    return Status();
  }
  const Status s = parse_scol_v2_layout(bytes, &impl_->layout);
  if (!s.ok()) return s;
  impl_->is_open = true;
  return Status();
}

bool ScolGroupReader::is_open() const { return impl_->is_open; }
std::uint64_t ScolGroupReader::rows() const { return impl_->layout.rows; }
std::size_t ScolGroupReader::group_count() const {
  return impl_->layout.group_rows.size();
}
std::uint64_t ScolGroupReader::group_rows(std::size_t g) const {
  return impl_->layout.group_rows[g];
}
std::size_t ScolGroupReader::group_bytes(std::size_t g) const {
  return impl_->layout.group_len[g];
}
const ScolOptions& ScolGroupReader::options() const { return impl_->options; }

Status ScolGroupReader::decode_group(std::size_t g, SnapshotTable* table,
                                     ThreadPool* pool) const {
  ColumnSet set;
  const Status s = impl_->parse_group(g, &set);
  if (!s.ok()) return s;
  return decode_column_set(set, impl_->layout.group_rows[g], table,
                           impl_->options.columns, pool);
}

Status ScolGroupReader::scan_owners(std::size_t g,
                                    const OwnerRowFn& fn) const {
  ColumnSet set;
  Status s = impl_->parse_group(g, &set);
  if (!s.ok()) return s;
  // Validate first, through the same path walk (without decode_group's
  // stretch cuts) and decoders as decode_group, so a group that fails
  // reaches fn with no row at all.
  const std::size_t rows = impl_->layout.group_rows[g];
  s = walk_paths(set[kColPaths], rows, [](std::string_view, std::size_t) {});
  if (!s.ok()) return s;
  std::vector<std::uint32_t> uids, gids;
  uids.reserve(rows);  // the path walk bounded `rows` by the image
  gids.reserve(rows);
  ColumnSinks owners;
  owners.uid = &uids;
  owners.gid = &gids;
  if (!(s = decode_columns(set, rows, owners)).ok()) return s;
  std::size_t i = 0;
  return walk_paths(set[kColPaths], rows,
                    [&](std::string_view path, std::size_t) {
                      fn(path, uids[i], gids[i]);
                      ++i;
                    });
}

SalvageReport ScolGroupReader::make_report() const {
  SalvageReport report;
  report.groups_total = group_count();
  report.rows_total = rows();
  return report;
}

void ScolGroupReader::note_success(std::size_t g,
                                   SalvageReport* report) const {
  report->rows_recovered += group_rows(g);
}

Status ScolGroupReader::dispose_failure(std::size_t g, Status s,
                                        SalvageReport* report) const {
  // v1 has a single whole-table column set: nothing to salvage against,
  // so the policy degenerates to strict.
  if (impl_->v1) return s;
  if (impl_->options.on_corrupt_group == CorruptGroupPolicy::kFail) {
    return s.with_context("group " + std::to_string(g));
  }
  ++report->groups_lost;
  report->rows_lost += impl_->layout.group_rows[g];
  ScolGroupDamage damage;
  damage.group = g;
  damage.rows = impl_->layout.group_rows[g];
  damage.status = std::move(s);
  if (impl_->options.on_corrupt_group == CorruptGroupPolicy::kQuarantine) {
    const std::size_t begin =
        std::min(impl_->layout.group_begin[g], impl_->bytes.size());
    const std::size_t len =
        std::min(impl_->layout.group_len[g], impl_->bytes.size() - begin);
    damage.quarantined.assign(impl_->bytes.begin() + begin,
                              impl_->bytes.begin() + begin + len);
  }
  report->damage.push_back(std::move(damage));
  return Status();
}

// ---- streaming group writer ----------------------------------------------

namespace {

std::string scol_errno_text() { return std::strerror(errno); }

int scol_open_retry(const char* path, int flags, mode_t mode = 0) {
  for (;;) {
    const int fd = ::open(path, flags, mode);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

Status scol_write_all(int fd, const std::uint8_t* data, std::size_t count) {
  std::size_t done = 0;
  while (done < count) {
    const ::ssize_t n = ::write(fd, data + done, count - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::io_error("write: " + scol_errno_text());
    }
    done += static_cast<std::size_t>(n);
  }
  return Status();
}

}  // namespace

struct ScolStreamWriter::Impl {
  std::string file;
  std::string payload_tmp;
  int payload_fd = -1;
  ScolOptions options;
  SnapshotTable pending;                 // at most one group of rows
  std::vector<std::uint8_t> group_buf;   // encode scratch, recycled
  std::vector<std::pair<std::uint64_t, std::uint64_t>> directory;
  std::uint64_t rows = 0;
  bool is_open = false;
};

ScolStreamWriter::ScolStreamWriter() : impl_(std::make_unique<Impl>()) {}

ScolStreamWriter::~ScolStreamWriter() { abort(); }

Status ScolStreamWriter::open(const std::string& file,
                              const ScolOptions& options) {
  abort();
  impl_->file = file;
  impl_->options = options;
  impl_->payload_tmp =
      file + ".payload.tmp." + std::to_string(static_cast<long>(::getpid()));
  impl_->payload_fd = scol_open_retry(impl_->payload_tmp.c_str(),
                                      O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (impl_->payload_fd < 0) {
    return Status::io_error(scol_errno_text())
        .with_context("create " + impl_->payload_tmp);
  }
  impl_->is_open = true;
  return Status();
}

Status ScolStreamWriter::add(const RawRecord& rec) {
  return add(rec.path, rec.atime, rec.ctime, rec.mtime, rec.uid, rec.gid,
             rec.mode, rec.inode, rec.osts);
}

Status ScolStreamWriter::add(std::string_view path, std::int64_t atime,
                             std::int64_t ctime, std::int64_t mtime,
                             std::uint32_t uid, std::uint32_t gid,
                             std::uint32_t mode, std::uint64_t inode,
                             std::span<const std::uint32_t> osts) {
  if (!impl_->is_open) {
    return Status::invalid_argument("stream writer is not open");
  }
  impl_->pending.add(path, atime, ctime, mtime, uid, gid, mode, inode, osts);
  ++impl_->rows;
  const std::size_t group_size =
      std::max<std::size_t>(1, impl_->options.group_size);
  if (impl_->pending.size() >= group_size) return flush_group();
  return Status();
}

Status ScolStreamWriter::flush_group() {
  if (impl_->pending.empty()) return Status();
  impl_->group_buf.clear();
  encode_column_set(impl_->group_buf, impl_->pending, 0,
                    impl_->pending.size(), impl_->options);
  const Status s = scol_write_all(impl_->payload_fd, impl_->group_buf.data(),
                                  impl_->group_buf.size());
  if (!s.ok()) return s.with_context(impl_->payload_tmp);
  impl_->directory.emplace_back(impl_->pending.size(),
                                impl_->group_buf.size());
  impl_->pending.clear();
  return Status();
}

Status ScolStreamWriter::finish() {
  if (!impl_->is_open) {
    return Status::invalid_argument("stream writer is not open");
  }
  Status s = flush_group();
  if (s.ok() && ::fsync(impl_->payload_fd) != 0) {
    s = Status::io_error("fsync: " + scol_errno_text())
            .with_context(impl_->payload_tmp);
  }
  ::close(impl_->payload_fd);
  impl_->payload_fd = -1;
  if (!s.ok()) {
    abort();
    return s;
  }

  // Assemble header + directory + payload into a same-directory temp and
  // rename over the destination — the streamed mirror of
  // write_file_atomic's crash discipline.
  std::vector<std::uint8_t> head;
  head.insert(head.end(), kMagicV2, kMagicV2 + sizeof(kMagicV2));
  put_u64_le(head, impl_->rows);
  put_u64_le(head, std::max<std::size_t>(1, impl_->options.group_size));
  put_u64_le(head, impl_->directory.size());
  for (const auto& [group_rows, group_bytes] : impl_->directory) {
    put_u64_le(head, group_rows);
    put_u64_le(head, group_bytes);
  }

  const std::string tmp = impl_->file + ".tmp." +
                          std::to_string(static_cast<long>(::getpid()));
  const int out = scol_open_retry(tmp.c_str(),
                                  O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out < 0) {
    s = Status::io_error(scol_errno_text()).with_context("create " + tmp);
  } else {
    s = scol_write_all(out, head.data(), head.size());
    if (s.ok()) {
      const int in = scol_open_retry(impl_->payload_tmp.c_str(), O_RDONLY);
      if (in < 0) {
        s = Status::io_error(scol_errno_text())
                .with_context(impl_->payload_tmp);
      } else {
        std::vector<std::uint8_t> buf(1 << 20);
        for (;;) {
          const ::ssize_t n = ::read(in, buf.data(), buf.size());
          if (n < 0) {
            if (errno == EINTR) continue;
            s = Status::io_error("read: " + scol_errno_text())
                    .with_context(impl_->payload_tmp);
            break;
          }
          if (n == 0) break;
          s = scol_write_all(out, buf.data(), static_cast<std::size_t>(n));
          if (!s.ok()) break;
        }
        ::close(in);
      }
    }
    if (s.ok() && ::fsync(out) != 0) {
      s = Status::io_error("fsync: " + scol_errno_text()).with_context(tmp);
    }
    ::close(out);
    if (s.ok() && ::rename(tmp.c_str(), impl_->file.c_str()) != 0) {
      s = Status::io_error("rename: " + scol_errno_text())
              .with_context(impl_->file);
    }
    if (!s.ok()) ::unlink(tmp.c_str());
  }

  if (s.ok()) {
    // Durability of the rename, same tolerance as write_file_atomic.
    const std::size_t slash = impl_->file.find_last_of('/');
    const std::string dir =
        slash == std::string::npos
            ? std::string(".")
            : impl_->file.substr(0, slash == 0 ? 1 : slash);
    const int dfd = scol_open_retry(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
      if (::fsync(dfd) != 0 && errno != EINVAL && errno != EROFS) {
        s = Status::io_error("fsync dir: " + scol_errno_text())
                .with_context(dir);
      }
      ::close(dfd);
    }
  }

  ::unlink(impl_->payload_tmp.c_str());
  impl_->is_open = false;
  return s;
}

void ScolStreamWriter::abort() {
  if (impl_->payload_fd >= 0) {
    ::close(impl_->payload_fd);
    impl_->payload_fd = -1;
  }
  if (!impl_->payload_tmp.empty()) ::unlink(impl_->payload_tmp.c_str());
  *impl_ = Impl{};
}

std::uint64_t ScolStreamWriter::rows_added() const { return impl_->rows; }

}  // namespace spider
