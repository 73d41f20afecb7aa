// snapshot_tool: the format-facing CLI. Generates a snapshot series onto
// disk, converts between LustreDU PSV text and the .scol columnar format,
// and inspects snapshot files — the day-to-day plumbing of the paper's
// analysis framework (§3).
//
//   snapshot_tool generate --dir=/tmp/series [--scale=2e-5] [--weeks=12]
//   snapshot_tool convert --in=snap.psv --out=snap.scol   (or the reverse)
//   snapshot_tool inspect --in=snap.scol
//   snapshot_tool stat --in=snap.scol     (v2 row-group directory)
//   snapshot_tool purgelist --in=snap.scol [--age=90] [--exempt=cli104,...]
//                 [--out=purge.list] [--now=<epoch>]
//   snapshot_tool verify --dir=/tmp/series   (or --in=snap.scol)
//   snapshot_tool checkpoint --in=study.sckpt
//   snapshot_tool diff <prev.scol> <cur.scol>
//
// Salvage flags (convert/inspect/purgelist): --salvage=skip|quarantine
// decodes damaged .scol files by dropping corrupt row groups;
// --max-bad-lines=<n> lets PSV ingest skip up to n malformed lines.
// `verify` walks a series directory, re-validates every row group
// checksum, prints a per-file OK/damage summary, and exits nonzero when
// any file is damaged. `checkpoint` does the same for a study runner
// .sckpt checkpoint (DESIGN.md §14): one OK/CORRUPT/VERSION-SKEW line per
// section, nonzero exit when any section is damaged.
#include <filesystem>
#include <iostream>
#include <string>

#include <algorithm>
#include <fstream>

#include "engine/agg.h"
#include "engine/diff.h"
#include "engine/purge.h"
#include "snapshot/psv.h"
#include "snapshot/scol.h"
#include "snapshot/series.h"
#include "study/checkpoint.h"
#include "synth/generator.h"
#include "util/cli.h"
#include "util/io.h"
#include "util/table.h"
#include "util/timeutil.h"

namespace {

using namespace spider;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Reads a snapshot honoring the salvage flags; prints loss accounting to
/// stderr when a damaged input was partially recovered.
bool load_any(const CliArgs& args, const std::string& file,
              SnapshotTable* table, std::string* error) {
  if (ends_with(file, ".psv")) {
    PsvOptions options;
    options.max_bad_lines =
        static_cast<std::size_t>(args.get_int("max-bad-lines", 0));
    PsvReadReport report;
    const Status s = read_psv_file(file, table, options, &report);
    if (!s.ok()) {
      if (error) *error = s.to_string();
      return false;
    }
    if (!report.clean()) std::cerr << file << ": " << report.summary() << "\n";
    return true;
  }
  ScolOptions options;
  const std::string salvage = args.get("salvage", "");
  if (salvage == "skip") {
    options.on_corrupt_group = CorruptGroupPolicy::kSkip;
  } else if (salvage == "quarantine") {
    options.on_corrupt_group = CorruptGroupPolicy::kQuarantine;
  } else if (!salvage.empty()) {
    if (error) *error = "bad --salvage value (want skip|quarantine)";
    return false;
  }
  SalvageReport report;
  const Status s = read_scol_file(file, table, options, &report);
  if (!s.ok()) {
    if (error) *error = s.to_string();
    return false;
  }
  if (!report.clean()) std::cerr << file << ": " << report.summary() << "\n";
  return true;
}

Status store_any(const SnapshotTable& table, const std::string& file) {
  if (ends_with(file, ".psv")) {
    return write_psv_file(table, file, PsvOptions{});
  }
  return write_scol_file(table, file, ScolOptions{});
}

int cmd_generate(const CliArgs& args) {
  FacilityConfig config;
  config.scale = args.get_double("scale", 2e-5);
  config.weeks = static_cast<std::size_t>(args.get_int("weeks", 12));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 20150105));
  const std::string dir = args.get("dir", "");
  if (dir.empty()) {
    std::cerr << "generate requires --dir=<output directory>\n";
    return 1;
  }
  FacilityGenerator generator(config);
  // Stream each week's rows straight into the encoder: peak memory is one
  // row group plus simulator state, so large --scale values stay feasible.
  const Status s = save_series_streamed(generator, dir);
  if (!s.ok()) {
    std::cerr << "failed: " << s.to_string() << "\n";
    return 1;
  }
  std::cout << "wrote " << generator.count() << " snapshots to " << dir
            << " (snap_YYYYMMDD.scol)\n";
  return 0;
}

int cmd_convert(const CliArgs& args) {
  const std::string in = args.get("in", "");
  const std::string out = args.get("out", "");
  if (in.empty() || out.empty()) {
    std::cerr << "convert requires --in=<file> and --out=<file> "
                 "(.psv or .scol by extension)\n";
    return 1;
  }
  SnapshotTable table;
  std::string error;
  if (!load_any(args, in, &table, &error)) {
    std::cerr << "read failed: " << error << "\n";
    return 1;
  }
  const Status stored = store_any(table, out);
  if (!stored.ok()) {
    std::cerr << "write failed: " << stored.to_string() << "\n";
    return 1;
  }
  std::cout << "converted " << table.size() << " records: " << in << " -> "
            << out << "\n";
  return 0;
}

int cmd_inspect(const CliArgs& args) {
  const std::string in = args.get("in", "");
  if (in.empty()) {
    std::cerr << "inspect requires --in=<file>\n";
    return 1;
  }
  SnapshotTable table;
  std::string error;
  if (!load_any(args, in, &table, &error)) {
    std::cerr << "read failed: " << error << "\n";
    return 1;
  }
  std::cout << in << ": " << table.size() << " records ("
            << table.file_count() << " files, " << table.dir_count()
            << " dirs)\n";
  if (table.empty()) return 0;

  std::int64_t min_time = table.mtime(0), max_time = table.mtime(0);
  std::size_t max_depth = 0;
  CountMap<std::string> ext_counts, project_counts;
  for (std::size_t i = 0; i < table.size(); ++i) {
    min_time = std::min(min_time, table.mtime(i));
    max_time = std::max(max_time, table.mtime(i));
    max_depth = std::max<std::size_t>(max_depth, table.depth(i));
    if (!table.is_dir(i)) {
      ++ext_counts[std::string(path_extension(table.path(i)))];
    }
    ++project_counts[std::string(path_project(table.path(i)))];
  }
  std::cout << "mtimes span " << date_iso(min_time) << " .. "
            << date_iso(max_time) << "; deepest path " << max_depth
            << " components\n\n";

  std::cout << "top extensions ('' = none):\n";
  AsciiTable exts({"ext", "files"});
  for (const auto& [ext, count] : top_k(ext_counts, 10)) {
    exts.add_row({ext.empty() ? "(none)" : ext, format_with_commas(count)});
  }
  exts.print(std::cout);

  std::cout << "\nbusiest projects:\n";
  AsciiTable projects({"project", "entries"});
  for (const auto& [name, count] : top_k(project_counts, 10)) {
    projects.add_row({name, format_with_commas(count)});
  }
  projects.print(std::cout);
  return 0;
}

/// Prints the v2 group directory without decoding any rows: per group the
/// directory's row count and byte extent, plus the per-column block sizes
/// read from the column-set framing. This is the out-of-core planning
/// view — what the streaming study will touch group-at-a-time.
int cmd_stat(const CliArgs& args) {
  const std::string in = args.get("in", "");
  if (in.empty()) {
    std::cerr << "stat requires --in=<.scol file>\n";
    return 1;
  }
  std::vector<std::uint8_t> bytes;
  Status s = read_file(in, &bytes);
  if (!s.ok()) {
    std::cerr << "read failed: " << s.to_string() << "\n";
    return 1;
  }
  ScolV2Layout layout;
  s = parse_scol_v2_layout(bytes, &layout);
  if (!s.ok()) {
    std::cerr << in << ": not a readable v2 image: " << s.to_string() << "\n";
    return 1;
  }

  std::uint64_t payload = 0;
  for (const std::size_t len : layout.group_len) payload += len;
  std::cout << in << ": " << format_with_commas(layout.rows) << " rows in "
            << layout.group_rows.size() << " groups (group size "
            << format_with_commas(layout.group_size) << "); "
            << format_with_commas(layout.payload_start) << " header+directory"
            << " bytes, " << format_with_commas(payload) << " payload bytes\n";

  AsciiTable t({"group", "rows", "bytes", "paths", "atime", "ctime", "mtime",
                "uid", "gid", "mode", "inode", "ost"});
  ScolColumnSizes totals;
  bool framing_ok = true;
  for (std::size_t g = 0; g < layout.group_rows.size(); ++g) {
    if (layout.group_truncated[g]) {
      t.add_row({std::to_string(g), format_with_commas(layout.group_rows[g]),
                 "(truncated)", "-", "-", "-", "-", "-", "-", "-", "-", "-"});
      framing_ok = false;
      continue;
    }
    ScolColumnSizes sizes;
    const Status gs = scol_group_column_sizes(
        std::span<const std::uint8_t>(bytes).subspan(layout.group_begin[g],
                                                     layout.group_len[g]),
        &sizes);
    if (!gs.ok()) {
      t.add_row({std::to_string(g), format_with_commas(layout.group_rows[g]),
                 format_with_commas(layout.group_len[g]),
                 "(bad framing)", "-", "-", "-", "-", "-", "-", "-", "-"});
      framing_ok = false;
      continue;
    }
    t.add_row({std::to_string(g), format_with_commas(layout.group_rows[g]),
               format_with_commas(layout.group_len[g]),
               format_with_commas(sizes.paths), format_with_commas(sizes.atime),
               format_with_commas(sizes.ctime), format_with_commas(sizes.mtime),
               format_with_commas(sizes.uid), format_with_commas(sizes.gid),
               format_with_commas(sizes.mode), format_with_commas(sizes.inode),
               format_with_commas(sizes.ost)});
    totals.paths += sizes.paths;
    totals.atime += sizes.atime;
    totals.ctime += sizes.ctime;
    totals.mtime += sizes.mtime;
    totals.uid += sizes.uid;
    totals.gid += sizes.gid;
    totals.mode += sizes.mode;
    totals.inode += sizes.inode;
    totals.ost += sizes.ost;
    totals.total += sizes.total;
  }
  t.add_row({"total", format_with_commas(layout.rows),
             format_with_commas(payload), format_with_commas(totals.paths),
             format_with_commas(totals.atime), format_with_commas(totals.ctime),
             format_with_commas(totals.mtime), format_with_commas(totals.uid),
             format_with_commas(totals.gid), format_with_commas(totals.mode),
             format_with_commas(totals.inode), format_with_commas(totals.ost)});
  t.print(std::cout);
  return framing_ok ? 0 : 1;
}

int cmd_purgelist(const CliArgs& args) {
  const std::string in = args.get("in", "");
  if (in.empty()) {
    std::cerr << "purgelist requires --in=<snapshot file>\n";
    return 1;
  }
  SnapshotTable table;
  std::string error;
  if (!load_any(args, in, &table, &error)) {
    std::cerr << "read failed: " << error << "\n";
    return 1;
  }

  PurgePolicy policy;
  policy.age_days = static_cast<int>(args.get_int("age", 90));
  std::string exempt = args.get("exempt", "");
  std::size_t start = 0;
  while (start < exempt.size()) {
    std::size_t comma = exempt.find(',', start);
    if (comma == std::string::npos) comma = exempt.size();
    if (comma > start) {
      policy.exempt_projects.push_back(exempt.substr(start, comma - start));
    }
    start = comma + 1;
  }

  // Default "now": the newest timestamp in the snapshot (its capture day).
  std::int64_t now = args.get_int("now", 0);
  if (now == 0) {
    for (std::size_t i = 0; i < table.size(); ++i) {
      now = std::max(now, table.atime(i));
    }
  }

  const PurgeReport report = build_purge_list(table, now, policy);
  std::cout << "as of " << date_iso(now) << ", policy " << policy.age_days
            << " days: " << format_with_commas(report.candidates())
            << " purge candidates of "
            << format_with_commas(report.scanned_files) << " files ("
            << format_percent(report.candidate_fraction()) << "), "
            << report.exempted_files << " exempted\n";

  std::cout << "\nmost affected projects:\n";
  AsciiTable t({"project", "candidates"});
  for (const auto& [name, count] : top_k(report.by_project, 10)) {
    t.add_row({name, format_with_commas(count)});
  }
  t.print(std::cout);

  const std::string out = args.get("out", "");
  if (!out.empty()) {
    std::ofstream os(out, std::ios::binary);
    if (!os) {
      std::cerr << "cannot open " << out << "\n";
      return 1;
    }
    const std::uint64_t bytes = write_purge_list(table, report, os);
    std::cout << "\nwrote " << format_with_commas(bytes) << " bytes to "
              << out << "\n";
  }
  return 0;
}

/// Verifies one .scol file end to end: reads it with retrying IO, then
/// runs a full salvage decode (kSkip), which re-validates the framing and
/// every row-group checksum without aborting at the first casualty.
/// Returns true when the file is wholly intact.
bool verify_one(const std::string& file, std::string* line) {
  std::vector<std::uint8_t> bytes;
  const Status read = read_file(file, &bytes);
  if (!read.ok()) {
    *line = "UNREADABLE  " + file + ": " + read.to_string();
    return false;
  }
  SnapshotTable table;
  ScolOptions options;
  options.on_corrupt_group = CorruptGroupPolicy::kSkip;
  SalvageReport report;
  const Status s = decode_scol(bytes, &table, options, &report);
  if (!s.ok()) {
    // Header/directory level damage: nothing salvageable.
    *line = (s.code() == StatusCode::kTruncated ? "TRUNCATED   "
                                                : "CORRUPT     ") +
            file + ": " + s.to_string();
    return false;
  }
  if (!report.clean()) {
    bool truncated = false;
    for (const ScolGroupDamage& d : report.damage) {
      truncated = truncated || d.status.code() == StatusCode::kTruncated;
    }
    *line = (truncated ? "TRUNCATED   " : "CORRUPT     ") + file + ": " +
            report.summary();
    return false;
  }
  *line = "OK          " + file + ": " + std::to_string(table.size()) +
          " rows, " + std::to_string(report.groups_total) + " groups";
  return true;
}

/// The Fig 13 classifier between two snapshot files: counts and fractions
/// of the five access classes, computed with the radix-partitioned join
/// the study runner uses (README "join strategies").
int cmd_diff(const CliArgs& args) {
  if (args.positional().size() < 3) {
    std::cerr << "diff requires two inputs: snapshot_tool diff <prev> <cur>\n";
    return 1;
  }
  const std::string& prev_file = args.positional()[1];
  const std::string& cur_file = args.positional()[2];

  SnapshotTable prev, cur;
  std::string error;
  if (!load_any(args, prev_file, &prev, &error)) {
    std::cerr << "cannot read " << prev_file << ": " << error << "\n";
    return 1;
  }
  if (!load_any(args, cur_file, &cur, &error)) {
    std::cerr << "cannot read " << cur_file << ": " << error << "\n";
    return 1;
  }

  const DiffResult diff = diff_snapshots_partitioned(prev, cur);
  std::cout << "prev: " << prev_file << " (" << diff.prev_files
            << " files)\ncur:  " << cur_file << " (" << diff.cur_files
            << " files)\n";
  AsciiTable table({"class", "count", "fraction", "of"});
  const auto pct = [](double f) { return format_double(100.0 * f, 2) + "%"; };
  table.add_row({"new", std::to_string(diff.new_rows.size()),
                 pct(diff.new_fraction()), "cur files"});
  table.add_row({"deleted", std::to_string(diff.deleted_rows.size()),
                 pct(diff.deleted_fraction()), "prev files"});
  table.add_row({"readonly", std::to_string(diff.readonly_rows.size()),
                 pct(diff.readonly_fraction()), "prev files"});
  table.add_row({"updated", std::to_string(diff.updated_rows.size()),
                 pct(diff.updated_fraction()), "prev files"});
  table.add_row({"untouched", std::to_string(diff.untouched_rows.size()),
                 pct(diff.untouched_fraction()), "prev files"});
  table.print(std::cout);
  return 0;
}

int cmd_verify(const CliArgs& args) {
  const std::string dir = args.get("dir", "");
  const std::string in = args.get("in", "");
  std::vector<std::string> files;
  if (!in.empty()) {
    files.push_back(in);
  } else if (!dir.empty()) {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir, ec)) {
      const std::string path = entry.path().string();
      if (ends_with(path, ".scol")) files.push_back(path);
    }
    if (ec) {
      std::cerr << "cannot list " << dir << ": " << ec.message() << "\n";
      return 1;
    }
    std::sort(files.begin(), files.end());
  } else {
    std::cerr << "verify requires --dir=<series directory> or --in=<file>\n";
    return 1;
  }
  if (files.empty()) {
    std::cerr << "no .scol files in " << dir << "\n";
    return 1;
  }

  std::size_t damaged = 0;
  for (const std::string& file : files) {
    std::string line;
    if (!verify_one(file, &line)) ++damaged;
    std::cout << line << "\n";
  }
  std::cout << files.size() << " file(s): " << files.size() - damaged
            << " OK, " << damaged << " damaged\n";
  return damaged == 0 ? 0 : 1;
}

/// Inspects a study-runner checkpoint section by section, mirroring
/// `verify`'s per-file discipline: every line names a section and its
/// state, and a damaged or version-skewed file exits nonzero. The runner
/// itself never fails on a bad checkpoint — it re-baselines — so this is
/// the operator's way to learn WHY a resume fell back to the full run.
int cmd_checkpoint(const CliArgs& args) {
  std::string in = args.get("in", "");
  if (in.empty() && args.positional().size() > 1) in = args.positional()[1];
  if (in.empty()) {
    std::cerr << "checkpoint requires --in=<study.sckpt>\n";
    return 1;
  }
  std::vector<std::uint8_t> bytes;
  const Status read = read_file(in, &bytes);
  if (!read.ok()) {
    std::cerr << "read failed: " << read.to_string() << "\n";
    return 1;
  }
  const CheckpointInspection inspection = inspect_checkpoint_bytes(bytes);
  for (const CheckpointSection& section : inspection.sections) {
    const char* tag = "OK          ";
    if (section.state == CheckpointSection::State::kVersionSkew) {
      tag = "VERSION-SKEW";
    } else if (section.state == CheckpointSection::State::kCorrupt) {
      tag = "CORRUPT     ";
    }
    std::cout << tag << " " << section.name;
    if (!section.detail.empty()) std::cout << ": " << section.detail;
    std::cout << "\n";
  }
  if (inspection.ok) {
    std::size_t markers = 0;
    for (const CheckpointSection& section : inspection.sections) {
      if (section.detail == "re-baseline marker") ++markers;
    }
    std::cout << in << ": checkpoint intact (" << inspection.sections.size()
              << " sections)";
    if (markers > 0) {
      // A marker means a scan-only analyzer with no serialized state:
      // the checkpoint verifies clean but a resume re-runs in full.
      std::cout << "; holds " << markers
                << " re-baseline marker(s), so a study pointed at it "
                   "re-runs in full";
    } else {
      std::cout << "; a study pointed at it will resume";
    }
    std::cout << "\n";
    return 0;
  }
  std::cout << in << ": checkpoint "
            << (inspection.version_skew ? "from another format version"
                                        : "damaged")
            << "; a study pointed at it will re-baseline with a full run\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const spider::CliArgs args(argc, argv);
  if (args.positional().empty()) {
    std::cerr
        << "usage: snapshot_tool "
           "<generate|convert|inspect|stat|purgelist|verify|checkpoint|diff> "
           "[flags]\n";
    return 1;
  }
  const std::string& command = args.positional()[0];
  if (command == "generate") return cmd_generate(args);
  if (command == "convert") return cmd_convert(args);
  if (command == "inspect") return cmd_inspect(args);
  if (command == "stat") return cmd_stat(args);
  if (command == "purgelist") return cmd_purgelist(args);
  if (command == "verify") return cmd_verify(args);
  if (command == "checkpoint") return cmd_checkpoint(args);
  if (command == "diff") return cmd_diff(args);
  std::cerr << "unknown command: " << command << "\n";
  return 1;
}
