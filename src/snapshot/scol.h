// .scol — the project's columnar, compressed binary snapshot format,
// standing in for the paper's PSV -> Apache Parquet conversion step (which
// cut the daily footprint from ~119 GB to ~28 GB and sped up every scan).
//
// v2 layout (default): a fixed header (magic SCOL0002, row count, nominal
// group size, group count) followed by a group directory and fixed-size row
// groups in Parquet style. Each group is self-contained — front-coding,
// delta, and RLE state restart at the group boundary — and holds one
// self-describing block per column: {column id, encoding id, payload size,
// checksum, payload}. Groups are the encoder's unit of parallelism: they
// encode independently, and the image is byte-identical at any thread
// count. Decode runs group by group in order, and spreads each group over
// the pool: one serial walk validates the front-coded paths and cuts them
// into stretches (every 8,192 rows and every 256 KB of path bytes), then
// the stretches rebuild their paths, hashes and depths in parallel into
// one exact-size arena block while one task decodes the other columns
// straight into the table. A week stored as a single group therefore
// decodes on every thread too, and the result is bit-identical to a
// serial pass.
//
// v1 layout (magic SCOL0001): the same column blocks, but one block per
// column for the whole table. Nothing writes v1 any more, but the version
// byte in the magic dispatches, so v1 images produced by older builds
// always remain decodable.
//
// Per-column encodings exploit snapshot structure:
//   * paths       — front coding (shared-prefix length + suffix), because a
//                   sorted-by-directory dump repeats long prefixes;
//   * mtime       — zig-zag delta varint row-to-row;
//   * ctime       — zig-zag delta against the *same row's* mtime (they are
//                   equal for most scientific output files);
//   * atime       — zig-zag delta against the same row's mtime;
//   * uid/gid/mode— run-length encoding (records cluster by owner);
//   * inode       — zig-zag delta varint;
//   * OST lists   — varint stripe count + varint indices.
// Every encoding can be individually disabled (falling back to a plain
// encoding) via ScolOptions — the knobs apply per group; the ablation
// benchmark measures each knob's contribution, mirroring the paper's
// format-conversion claim.
//
// Failure model (see DESIGN.md §9): decode returns a typed spider::Status,
// validates magic, sizes, the group directory, and per-column checksums,
// and never trusts lengths from the wire without bounds checks. Because v2
// groups are independently checksummed, corruption is *localized*: with
// ScolOptions::on_corrupt_group set to kSkip or kQuarantine, decode drops
// (or sets aside) damaged/truncated row groups, appends only the surviving
// rows, and reports exactly what was lost in a SalvageReport. The table is
// never left with partial rows of a failed decode: on a non-ok Status the
// destination is untouched, and in salvage mode only whole surviving
// groups are appended.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "snapshot/table.h"
#include "util/io.h"
#include "util/status.h"

namespace spider {

class ThreadPool;

/// What v2 decode does with a row group that fails validation (bad
/// checksum, truncated payload, malformed encoding). v1 images have a
/// single whole-table column set, so there is nothing to salvage and the
/// policy behaves like kFail.
enum class CorruptGroupPolicy : std::uint8_t {
  kFail = 0,     // any damage fails the whole decode (strict default)
  kSkip,         // drop damaged groups, keep surviving rows
  kQuarantine,   // like kSkip, but keep the damaged groups' raw bytes in
                 // the SalvageReport for offline forensics
};

struct ScolOptions {
  bool front_code_paths = true;   // off: varint length + raw bytes
  bool delta_timestamps = true;   // off: absolute zig-zag varints
  bool rle_ids = true;            // off: plain varint per row
  bool delta_inodes = true;       // off: plain varint per row

  /// Rows per row group (v2): the unit of encode parallelism, of damage
  /// (each group is checksummed and salvaged on its own) and of streaming.
  /// Decode spreads each group over the pool, so it needs no small groups
  /// to use every thread. The default keeps per-group encoder state
  /// amortized.
  std::size_t group_size = 256 * 1024;

  /// Decode-side salvage policy (see CorruptGroupPolicy).
  CorruptGroupPolicy on_corrupt_group = CorruptGroupPolicy::kFail;

  /// Projection pushdown: only the masked columns are materialized into the
  /// table (skipped columns read back as zero/empty). Every block is still
  /// checksum-validated regardless of the mask, so corruption detection,
  /// salvage behaviour, and gap accounting are identical at any projection.
  /// atime/ctime are delta-coded against same-row mtime, so requesting
  /// either implies materializing mtime too.
  ColumnMask columns = kColMaskAll;
};

/// One damaged v2 row group, as recorded by a salvaging decode.
struct ScolGroupDamage {
  std::size_t group = 0;    // group index in the directory
  std::uint64_t rows = 0;   // rows the directory promised for this group
  Status status;            // why the group was rejected
  /// Raw group bytes (clamped to the image) under kQuarantine; empty
  /// under kSkip.
  std::vector<std::uint8_t> quarantined;
};

/// The outcome of a salvaging decode: what survived, what was lost, why.
struct SalvageReport {
  std::size_t groups_total = 0;
  std::size_t groups_lost = 0;
  std::uint64_t rows_total = 0;      // rows the image claimed to hold
  std::uint64_t rows_recovered = 0;  // rows appended to the table
  std::uint64_t rows_lost = 0;
  std::vector<ScolGroupDamage> damage;

  bool clean() const { return groups_lost == 0; }
  /// "lost 2/8 groups (1200 of 4096 rows): group 3: corruption: ..." —
  /// one line, damaged groups listed (capped), for logs and CLIs.
  std::string summary() const;
};

/// Parsed v2 framing (header + group directory), exposed for the verify
/// tool and the fault-injection tests, which need group byte extents to
/// predict and check salvage outcomes. Fails (kTruncated/kCorruption)
/// when the header or directory itself is unusable; a group extent that
/// runs past the end of the image is *not* an error here — it shows up as
/// truncated=true for that group.
struct ScolV2Layout {
  std::uint64_t rows = 0;
  std::uint64_t group_size = 0;
  std::vector<std::uint64_t> group_rows;   // per group, from the directory
  std::vector<std::size_t> group_begin;    // absolute byte offset per group
  std::vector<std::size_t> group_len;      // bytes per group
  std::vector<bool> group_truncated;       // extent exceeds the image
  std::size_t payload_start = 0;           // first byte after the directory
};
Status parse_scol_v2_layout(std::span<const std::uint8_t> bytes,
                            ScolV2Layout* layout);

/// Per-column encoded sizes, for the format ablation study.
struct ScolColumnSizes {
  std::uint64_t paths = 0;
  std::uint64_t atime = 0;
  std::uint64_t ctime = 0;
  std::uint64_t mtime = 0;
  std::uint64_t uid = 0;
  std::uint64_t gid = 0;
  std::uint64_t mode = 0;
  std::uint64_t inode = 0;
  std::uint64_t ost = 0;
  std::uint64_t total = 0;
};

/// Encodes a table into an in-memory v2 .scol image, its row groups in
/// parallel on `pool` (null = the process-global pool).
std::vector<std::uint8_t> encode_scol(const SnapshotTable& table,
                                      const ScolOptions& options = {},
                                      ThreadPool* pool = nullptr);

/// Decodes an in-memory .scol image (either version, dispatched on the
/// magic), appending rows into `table`. It drives a ScolGroupReader over
/// the bytes: groups decode one after another, each spread over `pool`
/// (null = the process-global pool) as decode_group does, so contents are
/// identical to a single-threaded decode.
///
/// Damage handling follows options.on_corrupt_group; with kSkip or
/// kQuarantine the call succeeds whenever the header and directory are
/// readable, appends the surviving groups, and fills `report` (if given)
/// with the loss accounting. On a non-ok Status, `table` is unmodified.
Status decode_scol(std::span<const std::uint8_t> bytes, SnapshotTable* table,
                   const ScolOptions& options, SalvageReport* report = nullptr,
                   ThreadPool* pool = nullptr);

/// Encoded column sizes of a table under the given options (encodes into a
/// scratch buffer; used by benchmarks and the format tool). Sizes are
/// whole-table (v1-style) so knob contributions are comparable across
/// group sizes.
ScolColumnSizes scol_column_sizes(const SnapshotTable& table,
                                  const ScolOptions& options = {});

/// Per-column encoded payload sizes of one v2 group extent (as bounded by
/// parse_scol_v2_layout), read straight from the column-set framing — no
/// decode, no checksum verification. Total matches scol_column_sizes
/// semantics: payload bytes only, excluding the block headers. Fails with
/// kTruncated when the framing runs past the extent.
Status scol_group_column_sizes(std::span<const std::uint8_t> group,
                               ScolColumnSizes* sizes);

/// Encodes and writes via a temp file + atomic rename (util/io.h): a crash
/// mid-write leaves the previous file intact, never a torn image.
Status write_scol_file(const SnapshotTable& table, const std::string& file,
                       const ScolOptions& options);
/// Reads with EINTR/short-read-safe IO, then decodes; the returned Status
/// carries the file name as context. Salvage per options.on_corrupt_group.
Status read_scol_file(const std::string& file, SnapshotTable* table,
                      const ScolOptions& options,
                      SalvageReport* report = nullptr);

/// Streaming group-at-a-time reader — the out-of-core half of the codec
/// (DESIGN.md §15). open() maps the file (or borrows an in-memory image)
/// and validates the header plus group directory exactly once; after that,
/// decode_group() materializes any row group on demand into a caller-owned
/// staging table, reading column payloads zero-copy out of the mapped
/// bytes. A v1 image presents as a single group covering the whole table.
///
/// decode_group is const and carries no hidden state, so groups may be
/// decoded concurrently (the scan dispatcher's depth-1 prefetch does) and
/// re-decoded freely (the study's second pass over a streamed week does).
/// Salvage accounting therefore lives in a caller-owned SalvageReport,
/// driven through make_report / note_success / dispose_failure once per
/// group in directory order. decode_scol builds its report the same way,
/// so a streamed week gets the same damage entries, counters and strict-
/// mode failure (the lowest damaged group) as a decoded one — which is
/// what keeps the streaming study's gap and data-quality output
/// bit-identical.
class ScolGroupReader {
 public:
  ScolGroupReader();
  ~ScolGroupReader();
  ScolGroupReader(ScolGroupReader&&) noexcept;
  ScolGroupReader& operator=(ScolGroupReader&&) noexcept;
  ScolGroupReader(const ScolGroupReader&) = delete;
  ScolGroupReader& operator=(const ScolGroupReader&) = delete;

  /// Maps `file` and parses the framing. Header/directory damage fails
  /// here (there is nothing to stream against), with the file as context.
  Status open(const std::string& file, const ScolOptions& options = {});

  /// Borrows `bytes` (the caller keeps them alive) instead of mapping.
  Status open_bytes(std::span<const std::uint8_t> bytes,
                    const ScolOptions& options = {});

  bool is_open() const;
  std::uint64_t rows() const;
  std::size_t group_count() const;
  std::uint64_t group_rows(std::size_t g) const;
  /// Encoded bytes of group g as promised by the directory.
  std::size_t group_bytes(std::size_t g) const;
  const ScolOptions& options() const;

  /// Decodes group `g`, appending its rows to `table` under the open
  /// options' projection mask. Returns the group's own verdict (checksums
  /// verified for every block regardless of projection; a directory extent
  /// past the image is kTruncated) without applying the salvage policy; on
  /// a non-ok Status `table` is untouched. After one serial walk over the
  /// paths, the group's path stretches and its other columns decode in
  /// parallel on `pool` (null = the process-global pool); called from one
  /// of that pool's workers, the group decodes inline on it. The table is
  /// the same at any pool width.
  Status decode_group(std::size_t g, SnapshotTable* table,
                      ThreadPool* pool = nullptr) const;

  /// One row of scan_owners: the path (valid only during the call) and
  /// its owner ids.
  using OwnerRowFn = std::function<void(std::string_view path,
                                        std::uint32_t uid, std::uint32_t gid)>;

  /// Reads group `g`'s paths, uid and gid without building a table,
  /// calling fn once per row in row order. Paths are rebuilt in one reused
  /// buffer, and uid and gid are read one value at a time beside them, so
  /// nothing sized by the group's rows is allocated: a scan on a pool
  /// worker leaves no column buffer in that worker's malloc arena. Every
  /// block is still checksummed, and the paths, uid and gid pass
  /// decode_group's own validating walks first, so the verdict equals
  /// decode_group's under a paths|uid|gid projection; fn runs only when
  /// that verdict is ok, so the rows of a damaged group never reach it.
  /// Facility inference (synth/infer.h) reads every streamed week this
  /// way.
  Status scan_owners(std::size_t g, const OwnerRowFn& fn) const;

  /// A report pre-filled with groups_total / rows_total.
  SalvageReport make_report() const;

  /// Accounts a successfully decoded group in `report`.
  void note_success(std::size_t g, SalvageReport* report) const;

  /// Applies the salvage policy to a failed group: kFail returns the error
  /// with "group N" context; kSkip / kQuarantine record the damage
  /// (quarantining the group's raw bytes when configured) in `report` and
  /// return ok.
  Status dispose_failure(std::size_t g, Status s, SalvageReport* report) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Streaming v2 writer: accepts rows group-at-a-time and never holds more
/// than one group in memory — the generator uses it to produce series at
/// scales whose whole-table image could not exist in the container. Group
/// payloads append to a same-directory temp file as they fill; finish()
/// assembles header + directory + payload and renames atomically (crash
/// leaves the old file or none, never a torn image). The output is
/// byte-identical to write_scol_file of the same rows under the same
/// options: group boundaries fall at the same multiples of
/// options.group_size and every encoder restarts per group either way.
class ScolStreamWriter {
 public:
  ScolStreamWriter();
  ~ScolStreamWriter();  // abort()s if still open
  ScolStreamWriter(const ScolStreamWriter&) = delete;
  ScolStreamWriter& operator=(const ScolStreamWriter&) = delete;

  /// Begins writing `file`.
  Status open(const std::string& file, const ScolOptions& options = {});

  /// Buffers one record, encoding and flushing a full group when
  /// options.group_size rows are pending.
  Status add(const RawRecord& rec);
  Status add(std::string_view path, std::int64_t atime, std::int64_t ctime,
             std::int64_t mtime, std::uint32_t uid, std::uint32_t gid,
             std::uint32_t mode, std::uint64_t inode,
             std::span<const std::uint32_t> osts);

  /// Flushes the tail group, writes the final image, closes. The writer
  /// cannot be reused after finish().
  Status finish();

  /// Drops all temp state without producing a file.
  void abort();

  std::uint64_t rows_added() const;

 private:
  Status flush_group();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace spider
