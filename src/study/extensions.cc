#include "study/extensions.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "snapshot/record.h"
#include "util/table.h"
#include "util/timeutil.h"

namespace spider {

ExtensionsAnalyzer::ExtensionsAnalyzer(const Resolver& resolver,
                                       std::size_t top_k)
    : resolver_(resolver),
      top_k_(top_k),
      unique_by_domain_(domain_count()) {}

namespace {

/// Dense-id counter access; the dictionary grows over the study, so each
/// count vector is only as long as the ids it has actually seen.
void bump(std::vector<std::uint64_t>& counts, std::uint32_t id,
          std::uint64_t weight) {
  if (counts.size() <= id) counts.resize(id + 1, 0);
  counts[id] += weight;
}

std::uint64_t count_at(const std::vector<std::uint64_t>& counts,
                       std::uint32_t id) {
  return id < counts.size() ? counts[id] : 0;
}

/// A file row the runner's first-seen probe found unseen as a file
/// (kFirstSeenFile), settled before merge().
struct ExtensionsCandidate {
  std::uint32_t at = 0;  // index into the chunk's first-seen candidates
  std::int32_t domain = -1;
  std::int32_t ext_id = -1;  // chunk-local id; -1 = extensionless
};

struct ExtensionsChunk : ScanChunkState {
  // Each distinct extension in the chunk is interned ONCE into the
  // chunk-local dictionary; every other row with that extension is a
  // dense array increment. No per-row std::string, no per-row map probe.
  StringDict dict;
  std::vector<std::uint64_t> counts;  // [local id], every file row
  std::uint64_t files = 0;
  std::uint64_t none = 0;
  const FirstSeenChunk* seen = nullptr;  // settled by merge time
  std::vector<ExtensionsCandidate> candidates;  // row order
};

}  // namespace

std::unique_ptr<ScanChunkState> ExtensionsAnalyzer::make_chunk_state() const {
  return std::make_unique<ExtensionsChunk>();
}

void ExtensionsAnalyzer::observe_chunk(ScanChunkState* state,
                                       const WeekObservation& obs,
                                       const ScanMorsel& m) {
  auto* chunk = static_cast<ExtensionsChunk*>(state);
  const SnapshotTable& table = *m.table;
  const FirstSeenChunk& seen = obs.first_seen->candidates(m);
  chunk->seen = &seen;
  std::size_t next = 0;  // the first candidate at or after row i
  // Rows are path-sorted, so runs of files share an extension; memoizing
  // the previous row's intern skips the hash + probe (the memo copies into
  // the chunk dictionary, so nothing outlives the staging table).
  std::string_view last_ext;
  std::uint32_t last_id = 0;
  bool have_last = false;
  for (std::size_t i = m.begin; i < m.end; ++i) {
    const std::size_t r = m.local(i);
    if (table.is_dir(r)) continue;
    const std::string_view ext = path_extension(table.path(r));
    ++chunk->files;
    std::int32_t ext_id = -1;
    if (ext.empty()) {
      ++chunk->none;
    } else {
      if (!have_last || ext != last_ext) {
        last_id = chunk->dict.intern(ext);
        last_ext = ext;
        have_last = true;
        if (last_id == chunk->counts.size()) chunk->counts.push_back(0);
      }
      ++chunk->counts[last_id];
      ext_id = static_cast<std::int32_t>(last_id);
    }
    while (next < seen.rows.size() && seen.rows[next] < i) ++next;
    if (next == seen.rows.size() || seen.rows[next] != i ||
        (seen.bits[next] & kFirstSeenFile) == 0) {
      continue;
    }
    ExtensionsCandidate cand;
    cand.at = static_cast<std::uint32_t>(next);
    cand.ext_id = ext_id;
    if (!ext.empty()) cand.domain = resolver_.domain_of_gid(table.gid(r));
    chunk->candidates.push_back(cand);
  }
}

void ExtensionsAnalyzer::merge(const WeekObservation& obs,
                               ScanStateList states) {
  std::vector<std::uint64_t> weekly;  // [study-long ext id]
  std::uint64_t files = 0, none = 0;
  for (const auto& state : states) {
    auto* chunk = static_cast<ExtensionsChunk*>(state.get());
    files += chunk->files;
    none += chunk->none;
    // Resolve the chunk's local ids against the study-long dictionary.
    // Chunks fold in chunk order and the chunk layout is thread-count
    // invariant, so the global id assignment is too.
    std::vector<std::uint32_t> local_to_global(chunk->dict.size());
    for (std::uint32_t lid = 0; lid < chunk->dict.size(); ++lid) {
      local_to_global[lid] = dict_.intern(chunk->dict.name(lid));
      bump(weekly, local_to_global[lid], chunk->counts[lid]);
    }
    for (const ExtensionsCandidate& cand : chunk->candidates) {
      if ((chunk->seen->bits[cand.at] & kFirstSeenFile) == 0) continue;
      ++result_.unique_files;
      if (cand.ext_id < 0) {
        ++result_.unique_no_extension;
        continue;
      }
      const std::uint32_t id =
          local_to_global[static_cast<std::uint32_t>(cand.ext_id)];
      bump(unique_global_, id, 1);
      if (cand.domain >= 0) {
        bump(unique_by_domain_[static_cast<std::size_t>(cand.domain)], id, 1);
      }
    }
  }
  result_.snapshot_dates.push_back(obs.snap->taken_at);
  weekly_counts_.push_back(std::move(weekly));
  weekly_files_.push_back(files);
  weekly_none_.push_back(none);
}

void ExtensionsAnalyzer::apply_delta(const WeekObservation& obs,
                                     const WeekDelta& delta) {
  const SnapshotTable& cur = *delta.cur;
  const SnapshotTable& prev = *delta.prev;
  // Roll the previous week's per-extension counts forward. Deleted files
  // existed last week, so their extensions are already interned and their
  // ids are covered by last week's count vector.
  std::vector<std::uint64_t> weekly = weekly_counts_.back();
  std::uint64_t files = weekly_files_.back();
  std::uint64_t none = weekly_none_.back();
  for (const std::uint32_t row : delta.diff->deleted_rows) {
    const std::string_view ext = path_extension(prev.path(row));
    --files;
    if (ext.empty()) {
      --none;
    } else {
      --weekly[dict_.intern(ext)];
    }
  }
  for (std::size_t k = 0; k < delta.added_rows.size(); ++k) {
    const std::uint32_t row = delta.added_rows[k];
    if (cur.is_dir(row)) continue;
    const std::string_view ext = path_extension(cur.path(row));
    ++files;
    std::int64_t id = -1;
    if (ext.empty()) {
      ++none;
    } else {
      id = dict_.intern(ext);
      bump(weekly, static_cast<std::uint32_t>(id), 1);
    }
    // The file bit can be unset here: a deleted-then-recreated path was
    // first seen as a file in an earlier week.
    if ((delta.first_seen[k] & kFirstSeenFile) != 0) {
      ++result_.unique_files;
      if (id < 0) {
        ++result_.unique_no_extension;
      } else {
        bump(unique_global_, static_cast<std::uint32_t>(id), 1);
        const int domain = resolver_.domain_of_gid(cur.gid(row));
        if (domain >= 0) {
          bump(unique_by_domain_[static_cast<std::size_t>(domain)],
               static_cast<std::uint32_t>(id), 1);
        }
      }
    }
  }
  result_.snapshot_dates.push_back(obs.snap->taken_at);
  weekly_counts_.push_back(std::move(weekly));
  weekly_files_.push_back(files);
  weekly_none_.push_back(none);
}

bool ExtensionsAnalyzer::save_state(StateWriter& w) const {
  dict_.save_state(w);
  w.vec(unique_global_);
  w.vec2(unique_by_domain_);
  w.vec2(weekly_counts_);
  w.vec(weekly_files_);
  w.vec(weekly_none_);
  w.u64(result_.unique_files);
  w.u64(result_.unique_no_extension);
  w.vec(result_.snapshot_dates);
  return true;
}

bool ExtensionsAnalyzer::load_state(StateReader& r) {
  StringDict dict;
  std::vector<std::uint64_t> unique_global;
  std::vector<std::vector<std::uint64_t>> unique_by_domain, weekly_counts;
  std::vector<std::uint64_t> weekly_files, weekly_none;
  std::vector<std::int64_t> snapshot_dates;
  if (!dict.load_state(r) ||
      !r.vec(&unique_global) || !r.vec2(&unique_by_domain) ||
      !r.vec2(&weekly_counts) || !r.vec(&weekly_files) ||
      !r.vec(&weekly_none)) {
    return false;
  }
  const std::uint64_t unique_files = r.u64();
  const std::uint64_t unique_no_extension = r.u64();
  if (!r.vec(&snapshot_dates) || !r.ok()) return false;
  // One weekly row of each kind per analyzed snapshot, and one per-domain
  // counter vector per domain in the plan.
  if (unique_by_domain.size() != unique_by_domain_.size() ||
      weekly_counts.size() != weekly_files.size() ||
      weekly_none.size() != weekly_files.size() ||
      snapshot_dates.size() != weekly_files.size()) {
    return false;
  }
  dict_ = std::move(dict);
  unique_global_ = std::move(unique_global);
  unique_by_domain_ = std::move(unique_by_domain);
  weekly_counts_ = std::move(weekly_counts);
  weekly_files_ = std::move(weekly_files);
  weekly_none_ = std::move(weekly_none);
  result_.unique_files = unique_files;
  result_.unique_no_extension = unique_no_extension;
  result_.snapshot_dates = std::move(snapshot_dates);
  return true;
}

void ExtensionsAnalyzer::finish() {
  const auto top = top_k_dict(unique_global_, dict_, top_k_);
  result_.global_top.reserve(top.size());
  for (const auto& [id, count] : top) {
    result_.global_top.emplace_back(std::string(dict_.name(id)), count);
  }

  result_.top3_by_domain.assign(domain_count(), {});
  for (std::size_t d = 0; d < unique_by_domain_.size(); ++d) {
    std::uint64_t domain_files = 0;
    for (const std::uint64_t count : unique_by_domain_[d]) {
      domain_files += count;
    }
    // Extensionless files are part of the domain's denominator too; derive
    // them from the census by re-counting is avoided — shares here follow
    // the paper's Table 2 convention (percent of the domain's files).
    for (const auto& [id, count] : top_k_dict(unique_by_domain_[d], dict_, 3)) {
      const double pct = domain_files == 0
                             ? 0.0
                             : 100.0 * static_cast<double>(count) /
                                   static_cast<double>(domain_files);
      result_.top3_by_domain[d].emplace_back(std::string(dict_.name(id)), pct);
    }
  }

  const std::size_t weeks = weekly_counts_.size();
  result_.share_top.assign(weeks, std::vector<double>(top.size(), 0.0));
  result_.share_none.assign(weeks, 0.0);
  result_.share_other.assign(weeks, 0.0);
  for (std::size_t w = 0; w < weeks; ++w) {
    const double files =
        std::max<std::uint64_t>(1, weekly_files_[w]);
    double covered = 0;
    for (std::size_t k = 0; k < top.size(); ++k) {
      const double share =
          static_cast<double>(count_at(weekly_counts_[w], top[k].first)) /
          files;
      result_.share_top[w][k] = share;
      covered += share;
    }
    result_.share_none[w] = static_cast<double>(weekly_none_[w]) / files;
    result_.share_other[w] =
        std::max(0.0, 1.0 - covered - result_.share_none[w]);
  }
}

std::string ExtensionsAnalyzer::render() const {
  std::ostringstream os;
  const auto profiles = domain_profiles();
  os << "Table 2: top-3 extensions per domain (share of domain files)\n";
  AsciiTable t({"domain", "1st", "2nd", "3rd", "paper 1st"});
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    const auto& top = result_.top3_by_domain[d];
    if (top.empty()) continue;
    std::vector<std::string> row{profiles[d].id};
    for (std::size_t k = 0; k < 3; ++k) {
      if (k < top.size()) {
        row.push_back(top[k].first + " (" +
                      format_double(top[k].second, 1) + ")");
      } else {
        row.push_back("-");
      }
    }
    row.push_back(std::string(profiles[d].top_ext[0].ext) + " (" +
                  format_double(profiles[d].top_ext[0].percent, 1) + ")");
    t.add_row(std::move(row));
  }
  t.print(os);

  os << "\nFig 10: top-20 extension shares over time ("
     << format_with_commas(result_.unique_files) << " unique files, "
     << format_percent(static_cast<double>(result_.unique_no_extension) /
                       static_cast<double>(std::max<std::uint64_t>(
                           1, result_.unique_files)))
     << " extensionless)\n";
  AsciiTable trend({"snapshot", "none", "other", "top1", "top2", "top3",
                    "top4", "top5"});
  const std::size_t step = std::max<std::size_t>(
      1, result_.snapshot_dates.size() / 12);
  for (std::size_t w = 0; w < result_.snapshot_dates.size(); w += step) {
    std::vector<std::string> row{date_iso(result_.snapshot_dates[w]),
                                 format_percent(result_.share_none[w]),
                                 format_percent(result_.share_other[w])};
    for (std::size_t k = 0; k < 5 && k < result_.global_top.size(); ++k) {
      row.push_back(result_.global_top[k].first + " " +
                    format_percent(result_.share_top[w][k]));
    }
    trend.add_row(std::move(row));
  }
  trend.print(os);
  return os.str();
}

}  // namespace spider
