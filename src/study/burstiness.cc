#include "study/burstiness.h"

#include <algorithm>
#include <span>
#include <sstream>

#include "engine/flat_map.h"
#include "util/table.h"
#include "util/timeutil.h"

namespace spider {

BurstinessAnalyzer::BurstinessAnalyzer(const Resolver& resolver,
                                       std::size_t min_files)
    : resolver_(resolver),
      min_files_(min_files),
      write_samples_(domain_count()),
      read_samples_(domain_count()) {}

namespace {

/// Per-gid stats table: gids are raw dense ids, so the fingerprint mix
/// avalanches them before slot selection (see engine/flat_map.h).
using GidStatsMap = FlatMap<StreamingStats, FingerprintKeyMix>;

struct BurstinessChunk : ScanChunkState {
  // Per-project offset stats for the rows of this chunk's slice of the
  // diff lists; folded per gid in chunk (= row) order at merge time.
  GidStatsMap write_by_gid;
  GidStatsMap read_by_gid;
};

/// `rows` are GLOBAL cur-snapshot rows, all inside the morsel's range.
void accumulate_rows(const ScanMorsel& m, std::span<const std::uint32_t> rows,
                     bool use_atime, std::int64_t window_start,
                     GidStatsMap& by_gid) {
  const SnapshotTable& table = *m.table;
  for (const std::uint32_t row : rows) {
    const std::size_t r = m.local(row);
    const std::int64_t t = use_atime ? table.atime(r) : table.mtime(r);
    const double offset = static_cast<double>(t - window_start);
    if (offset < 0) continue;  // moved-in files predating the window
    by_gid.slot(table.gid(r)).add(offset);
  }
}

/// Accumulates the sub-range of `rows` falling in [m.begin, m.end) — the
/// diff row lists are ascending, so the chunk's slice is a binary search
/// away.
void accumulate_range(const ScanMorsel& m,
                      const std::vector<std::uint32_t>& rows, bool use_atime,
                      std::int64_t window_start, GidStatsMap& by_gid) {
  const auto lo = std::lower_bound(rows.begin(), rows.end(),
                                   static_cast<std::uint32_t>(m.begin));
  const auto hi =
      std::lower_bound(lo, rows.end(), static_cast<std::uint32_t>(m.end));
  accumulate_rows(m,
                  std::span<const std::uint32_t>(
                      rows.data() + (lo - rows.begin()),
                      static_cast<std::size_t>(hi - lo)),
                  use_atime, window_start, by_gid);
}

}  // namespace

std::unique_ptr<ScanChunkState> BurstinessAnalyzer::make_chunk_state() const {
  return std::make_unique<BurstinessChunk>();
}

void BurstinessAnalyzer::observe_chunk(ScanChunkState* state,
                                       const WeekObservation& obs,
                                       const ScanMorsel& m) {
  // Week gating (and its gap_pairs_skipped accounting) lives in merge(),
  // which runs exactly once per week; chunks only bail out cheaply.
  if (obs.diff == nullptr || obs.prev == nullptr) return;
  if (obs.snap->taken_at - obs.prev->taken_at > 8 * kSecondsPerDay) return;
  auto* chunk = static_cast<BurstinessChunk*>(state);
  const std::int64_t window_start = obs.prev->taken_at;
  if (obs.diff_chunks != nullptr) {
    // Fused diff: obs.diff is not assembled until merge time, but the
    // diff kernel (registered ahead of us) has already classified exactly
    // this chunk — its lists ARE our [m.begin, m.end) slice.
    const DiffChunkRows* rows = obs.diff_chunks->chunk_rows(m);
    if (rows == nullptr) return;
    accumulate_rows(m, rows->rows[DiffChunkRows::kNew],
                    /*use_atime=*/false, window_start, chunk->write_by_gid);
    accumulate_rows(m, rows->rows[DiffChunkRows::kReadonly],
                    /*use_atime=*/true, window_start, chunk->read_by_gid);
    return;
  }
  // Spill-joined diff (streamed weeks and their successors): obs.diff is
  // complete before the scan, so each chunk takes its own global-row slice
  // of the ascending lists.
  accumulate_range(m, obs.diff->new_rows, /*use_atime=*/false, window_start,
                   chunk->write_by_gid);
  accumulate_range(m, obs.diff->readonly_rows, /*use_atime=*/true,
                   window_start, chunk->read_by_gid);
}

void BurstinessAnalyzer::merge(const WeekObservation& obs,
                               ScanStateList states) {
  if (obs.gap_before) ++result_.gap_pairs_skipped;
  if (obs.diff == nullptr || obs.prev == nullptr) return;
  // Gap-spanning intervals (maintenance weeks) cover several activity
  // cycles and would smear multiple campaigns into one cv sample; the
  // paper's metric is strictly week-over-week.
  if (obs.snap->taken_at - obs.prev->taken_at > 8 * kSecondsPerDay) {
    ++result_.gap_pairs_skipped;
    return;
  }
  // Fold each project's chunk-local stats in chunk order — the fold order
  // is then a pure function of the row order, so the cv values are
  // identical at every thread count. five_number_summary and percentile
  // sort their inputs, so the sample push order never reaches the output.
  auto fold = [&](bool read_side, std::vector<std::vector<double>>& out) {
    GidStatsMap by_gid;
    for (const auto& state : states) {
      const auto* chunk = static_cast<const BurstinessChunk*>(state.get());
      const auto& part = read_side ? chunk->read_by_gid : chunk->write_by_gid;
      part.for_each([&by_gid](std::uint64_t gid, const StreamingStats& stats) {
        by_gid.slot(gid).merge(stats);
      });
    }
    by_gid.for_each([&](std::uint64_t gid, const StreamingStats& stats) {
      if (stats.count() < min_files_) return;
      const int domain = resolver_.domain_of_gid(static_cast<std::uint32_t>(gid));
      if (domain < 0) return;
      out[static_cast<std::size_t>(domain)].push_back(stats.cv());
    });
  };
  fold(/*read_side=*/false, write_samples_);
  fold(/*read_side=*/true, read_samples_);
}

void BurstinessAnalyzer::finish() {
  result_.write_cv_by_domain.assign(domain_count(), FiveNumber{});
  result_.read_cv_by_domain.assign(domain_count(), FiveNumber{});
  std::vector<double> all_write, all_read;
  for (std::size_t d = 0; d < domain_count(); ++d) {
    result_.write_cv_by_domain[d] = five_number_summary(write_samples_[d]);
    result_.read_cv_by_domain[d] = five_number_summary(read_samples_[d]);
    all_write.insert(all_write.end(), write_samples_[d].begin(),
                     write_samples_[d].end());
    all_read.insert(all_read.end(), read_samples_[d].begin(),
                    read_samples_[d].end());
  }
  result_.qualifying_write_samples = all_write.size();
  result_.qualifying_read_samples = all_read.size();
  result_.overall_write_cv_median = percentile(all_write, 50.0);
  result_.overall_read_cv_median = percentile(all_read, 50.0);
}

std::string BurstinessAnalyzer::render() const {
  std::ostringstream os;
  os << "Fig 17: burstiness cv per domain (lower = burstier; >="
     << min_files_ << "-file project-weeks only)\n";
  AsciiTable t({"domain", "write cv median", "write [q25,q75]",
                "read cv median", "read [q25,q75]", "paper w/r"});
  const auto profiles = domain_profiles();
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    const FiveNumber& w = result_.write_cv_by_domain[d];
    const FiveNumber& r = result_.read_cv_by_domain[d];
    if (w.count == 0 && r.count == 0) continue;
    auto range = [](const FiveNumber& fn) {
      return "[" + format_cv(fn.q25) + ", " + format_cv(fn.q75) + "]";
    };
    t.add_row({profiles[d].id,
               w.count ? format_cv(w.median) : std::string("-"),
               w.count ? range(w) : std::string("-"),
               r.count ? format_cv(r.median) : std::string("-"),
               r.count ? range(r) : std::string("-"),
               format_cv(profiles[d].write_cv) + "/" +
                   format_cv(profiles[d].read_cv)});
  }
  t.print(os);
  os << "overall medians: write cv "
     << format_cv(result_.overall_write_cv_median) << ", read cv "
     << format_cv(result_.overall_read_cv_median)
     << " (paper: reads ~100x burstier than writes)\n";
  if (result_.gap_pairs_skipped > 0) {
    os << "note: " << result_.gap_pairs_skipped
       << " interval(s) skipped at series gaps or gap-spanning windows\n";
  }
  return os.str();
}

}  // namespace spider
