// PSV (pipe-separated values) snapshot format — the LustreDU on-disk layout
// the paper's pipeline starts from (Figure 2):
//
//   PATH|ATIME|CTIME|MTIME|UID|GID|MODE|INODE|OST:OBJ,OST:OBJ,...
//
// MODE is octal; the OST field lists "index:objid" pairs (we synthesize the
// hexadecimal object ids from the inode, and parsers keep only the index,
// which is all the analyses use). Directories have an empty OST field.
//
// Failure model (see DESIGN.md §9): collector output in the wild contains
// the occasional mangled line (interrupted walks, torn appends, encoding
// accidents). PsvOptions::max_bad_lines gives ingest a salvage budget:
// malformed lines are skipped and tallied per reason in a PsvReadReport,
// and the read only fails once the damage exceeds the budget. The default
// budget of zero preserves strict all-or-nothing ingest.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "snapshot/record.h"
#include "snapshot/table.h"
#include "util/status.h"

namespace spider {

class ThreadPool;

struct PsvOptions {
  /// How many malformed lines a read may skip before it fails with
  /// kResourceExhausted. 0 = strict: the first bad line fails the read.
  std::size_t max_bad_lines = 0;
};

/// One skipped line, as sampled by a salvaging read.
struct PsvBadLine {
  std::size_t line = 0;  // 1-based, global to the input
  std::string reason;    // parse failure ("bad mtime", "expected 9 fields")
};

/// Loss accounting for a PSV read.
struct PsvReadReport {
  std::uint64_t lines_total = 0;    // lines consumed (including empty ones)
  std::uint64_t rows_ingested = 0;  // rows appended to the table
  std::uint64_t lines_skipped = 0;  // malformed lines dropped
  /// Skip tally keyed by parse-failure reason (deterministic order).
  std::map<std::string, std::uint64_t> by_reason;
  /// Sample of skipped lines (capped; enough to locate the damage).
  std::vector<PsvBadLine> bad_lines;

  bool clean() const { return lines_skipped == 0; }
  /// "ingested 9998 rows; skipped 2/10000 lines (bad mtime: 1, ...)".
  std::string summary() const;
};

/// Formats one record as a PSV line (no trailing newline).
std::string psv_format_record(const RawRecord& rec);

/// Parses one PSV line. On failure returns false and, if `error` is
/// non-null, stores a human-readable reason.
bool psv_parse_record(std::string_view line, RawRecord* rec,
                      std::string* error = nullptr);

/// Streams a whole table out as PSV text; returns bytes written.
std::uint64_t write_psv(const SnapshotTable& table, std::ostream& os);

/// Appends all records from a PSV stream into `table`, skipping up to
/// options.max_bad_lines malformed lines (tallied in `report`). Serial and
/// streaming: rows before a fatal line have already been appended when the
/// read fails. Prefer read_psv_buffer when the whole text is in memory —
/// it is parallel and all-or-nothing.
Status read_psv(std::istream& is, SnapshotTable* table,
                const PsvOptions& options, PsvReadReport* report = nullptr);

/// Appends all records from an in-memory PSV buffer into `table`. The
/// buffer is split on newline boundaries into shards that parse
/// concurrently on `pool` (null = the process-global pool) into staging
/// tables, which are spliced in shard order — row order, calibration
/// counts, and path hashes are identical to the serial reader's.
///
/// Malformed lines are skipped and tallied while they fit in
/// options.max_bad_lines; beyond the budget the read fails (strict mode
/// fails with kCorruption naming the earliest bad line, a blown budget
/// with kResourceExhausted) and appends *nothing*.
Status read_psv_buffer(std::string_view text, SnapshotTable* table,
                       const PsvOptions& options,
                       PsvReadReport* report = nullptr,
                       ThreadPool* pool = nullptr);

/// File-based wrappers. Reading slurps the file with retrying IO (util/io.h)
/// and uses the parallel buffer path; writing goes through a temp file +
/// atomic rename, so a crash mid-write never leaves a torn snapshot.
Status write_psv_file(const SnapshotTable& table, const std::string& file,
                      const PsvOptions& options);
Status read_psv_file(const std::string& file, SnapshotTable* table,
                     const PsvOptions& options,
                     PsvReadReport* report = nullptr);

}  // namespace spider
