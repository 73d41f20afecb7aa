#include "snapshot/series.h"

#include <algorithm>
#include <filesystem>

#include "snapshot/scol.h"
#include "util/io.h"
#include "util/timeutil.h"

namespace spider {

namespace fs = std::filesystem;

namespace {

/// Parses "snap_YYYYMMDD.scol" -> epoch seconds; returns false otherwise.
bool parse_snapshot_name(const std::string& name, std::int64_t* taken_at) {
  constexpr std::string_view kPrefix = "snap_";
  constexpr std::string_view kSuffix = ".scol";
  if (name.size() != kPrefix.size() + 8 + kSuffix.size()) return false;
  if (name.rfind(kPrefix, 0) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return false;
  }
  const std::string digits = name.substr(kPrefix.size(), 8);
  if (!std::all_of(digits.begin(), digits.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    return false;
  }
  CivilDate date;
  date.year = std::stoi(digits.substr(0, 4));
  date.month = static_cast<unsigned>(std::stoi(digits.substr(4, 2)));
  date.day = static_cast<unsigned>(std::stoi(digits.substr(6, 2)));
  if (date.month < 1 || date.month > 12 || date.day < 1 || date.day > 31) {
    return false;
  }
  *taken_at = epoch_from_civil(date);
  return true;
}

}  // namespace

std::string SeriesGap::describe() const {
  std::string out = "week " + std::to_string(week);
  if (taken_at != 0) out += " (" + date_iso(taken_at) + ")";
  out += ": ";
  if (!file.empty()) out += file + ": ";
  out += status.to_string();
  return out;
}

Status DirectorySeries::open(const std::string& directory) {
  files_.clear();
  taken_at_.clear();
  slots_.clear();
  gaps_.clear();
  open_gaps_.clear();
  std::error_code ec;
  if (!fs::is_directory(directory, ec)) {
    return Status::not_found("not a directory: " + directory);
  }

  struct Entry {
    std::int64_t taken_at = 0;
    std::string file;
    Status status;  // non-ok when the entry itself is unreadable
  };
  std::vector<Entry> found;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    std::int64_t taken_at = 0;
    if (!parse_snapshot_name(entry.path().filename().string(), &taken_at)) {
      continue;
    }
    // Entries matching the snapshot pattern must be accounted for: a
    // stat failure or a non-file is a damaged week, not something to
    // silently drop from the study timeline.
    std::error_code stat_ec;
    const bool regular = entry.is_regular_file(stat_ec);
    Status status;
    if (stat_ec) {
      status = Status::io_error("cannot stat: " + stat_ec.message());
    } else if (!regular) {
      status = Status::failed_precondition("not a regular file");
    }
    found.push_back(Entry{taken_at, entry.path().string(), status});
  }
  if (ec) {
    return Status::io_error("cannot list directory: " + directory);
  }
  if (found.empty()) {
    return Status::not_found("no snap_*.scol files in: " + directory);
  }
  std::sort(found.begin(), found.end(),
            [](const Entry& a, const Entry& b) {
              return a.taken_at < b.taken_at;
            });

  // Collection-cadence gap detection: an interval much longer than the
  // median means weeks were never collected (maintenance windows in the
  // paper's own series). Those weeks get slots so diffs never silently
  // span them.
  std::int64_t median_interval = 0;
  if (found.size() >= 3) {
    std::vector<std::int64_t> intervals;
    intervals.reserve(found.size() - 1);
    for (std::size_t i = 1; i < found.size(); ++i) {
      intervals.push_back(found[i].taken_at - found[i - 1].taken_at);
    }
    std::nth_element(intervals.begin(),
                     intervals.begin() + intervals.size() / 2,
                     intervals.end());
    median_interval = intervals[intervals.size() / 2];
  }

  std::size_t slot = 0;
  for (std::size_t i = 0; i < found.size(); ++i) {
    if (i > 0 && median_interval > 0) {
      const std::int64_t interval = found[i].taken_at - found[i - 1].taken_at;
      if (interval > median_interval + median_interval / 2) {
        // Round to the nearest whole number of missed collections, capped
        // so a wild timestamp cannot inflate the timeline unboundedly.
        const std::int64_t missed = std::min<std::int64_t>(
            (interval + median_interval / 2) / median_interval - 1, 520);
        for (std::int64_t k = 0; k < missed; ++k) {
          gaps_.push_back(SeriesGap{
              slot++, found[i - 1].taken_at + median_interval * (k + 1), "",
              Status::not_found("no snapshot collected")});
        }
      }
    }
    if (found[i].status.ok()) {
      files_.push_back(std::move(found[i].file));
      taken_at_.push_back(found[i].taken_at);
      slots_.push_back(slot++);
    } else {
      gaps_.push_back(SeriesGap{slot++, found[i].taken_at,
                                std::move(found[i].file),
                                std::move(found[i].status)});
    }
  }
  std::sort(gaps_.begin(), gaps_.end(),
            [](const SeriesGap& a, const SeriesGap& b) {
              return a.week < b.week;
            });
  open_gaps_ = gaps_;
  if (files_.empty()) {
    return Status::failed_precondition("no readable snapshots in: " +
                                       directory)
        .caused_by(gaps_.front().status);
  }
  return Status();
}

void SnapshotSource::visit_move(const SnapshotMoveVisitor& visitor) {
  // Fallback for sources that only implement visit(): hand over a deep
  // copy. Overridden by every source that builds a per-week snapshot it
  // can give away.
  visit([&](std::size_t week, const Snapshot& snap) {
    Snapshot copy;
    copy.taken_at = snap.taken_at;
    copy.table = snap.table.clone();
    copy.degraded = snap.degraded;
    visitor(week, std::move(copy));
  });
}

void SnapshotSource::visit_streaming(std::size_t first_slot,
                                     const StreamChooser&,
                                     const SnapshotMoveVisitor& move_visitor,
                                     const SnapshotStreamVisitor&) {
  // Sources without group-structured storage have nothing to stream:
  // every week is delivered resident regardless of the chooser.
  visit_move([&](std::size_t week, Snapshot&& snap) {
    if (week >= first_slot) move_visitor(week, std::move(snap));
  });
}

void DirectorySeries::visit(const SnapshotVisitor& visitor) {
  visit_move([&](std::size_t week, Snapshot&& snap) { visitor(week, snap); });
}

void DirectorySeries::visit_move(const SnapshotMoveVisitor& visitor) {
  visit_streaming(0, nullptr, visitor, nullptr);
}

void DirectorySeries::visit_streaming(
    std::size_t first_slot, const StreamChooser& chooser,
    const SnapshotMoveVisitor& move_visitor,
    const SnapshotStreamVisitor& stream_visitor) {
  // Each traversal rediscovers decode damage from scratch (a file may have
  // been repaired or replaced between visits), on top of the structural
  // gaps open() found. When resuming (first_slot > 0) the skipped weeks
  // keep whatever damage accounting the checkpoint restored; re-reading
  // them here would defeat the point of resuming.
  gaps_ = open_gaps_;
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (slots_[i] < first_slot) continue;
    // A scripted read_fn_ cannot feed the mapped reader, so its presence
    // (tests exercising transient-fault retries) forces the eager path —
    // the seam keeps seeing every read either way.
    if (chooser && stream_visitor && !read_fn_) {
      ScolGroupReader reader;
      // Maps the file and parses header + directory only — a failure here
      // is NOT recorded as a gap; the eager fallback below re-discovers
      // the damage through the canonical path so the gap carries the
      // byte-identical eager status (and retry accounting).
      const Status opened = reader.open(files_[i], scol_options_);
      if (opened.ok() && chooser(slots_[i], taken_at_[i], reader.rows())) {
        WeekGroupStream stream;
        stream.week = slots_[i];
        stream.taken_at = taken_at_[i];
        stream.file = files_[i];
        stream.reader = &reader;
        const Status s = stream_visitor(stream);
        if (!s.ok()) {
          // The visitor reports the raw decode verdict; the file context
          // is prepended here, mirroring the eager decode_scol call below.
          gaps_.push_back(SeriesGap{slots_[i], taken_at_[i], files_[i],
                                    s.with_context(files_[i])});
        }
        continue;
      }
    }
    // Eager: read bytes (with retry for transient faults), then decode.
    // Matches read_scol_file's error shape: the Status carries the file
    // context.
    Snapshot snap;
    snap.taken_at = taken_at_[i];
    SalvageReport report;
    std::vector<std::uint8_t> bytes;
    const auto read_once = [&]() {
      bytes.clear();
      return read_fn_ ? read_fn_(files_[i], &bytes)
                      : read_file(files_[i], &bytes);
    };
    Status s = retry_policy_.enabled()
                   ? retry_with_backoff(retry_policy_, &retry_stats_, read_once)
                   : read_once();
    if (s.ok()) {
      s = decode_scol(bytes, &snap.table, scol_options_, &report, pool_)
              .with_context(files_[i]);
    }
    // The image is dead once decoded; free it before the visitor, which
    // may hold the week a while (a prefetching study waits to hand it on).
    std::vector<std::uint8_t>().swap(bytes);
    if (!s.ok()) {
      gaps_.push_back(SeriesGap{slots_[i], taken_at_[i], files_[i], s});
      continue;
    }
    snap.degraded = !report.clean();
    move_visitor(slots_[i], std::move(snap));
  }
  std::sort(gaps_.begin(), gaps_.end(),
            [](const SeriesGap& a, const SeriesGap& b) {
              return a.week < b.week;
            });
}

Status save_series(SnapshotSource& source, const std::string& directory) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) return Status::io_error("cannot create directory: " + directory);
  Status first_error;
  source.visit([&](std::size_t, const Snapshot& snap) {
    const std::string file =
        (fs::path(directory) / ("snap_" + date_tag(snap.taken_at) + ".scol"))
            .string();
    const Status s = write_scol_file(snap.table, file, ScolOptions{});
    if (!s.ok() && first_error.ok()) first_error = s;
  });
  return first_error;
}

}  // namespace spider
