#include "study/growth.h"

#include <sstream>
#include <utility>

#include "util/table.h"
#include "util/timeutil.h"

namespace spider {

void GrowthAnalyzer::record(const WeekObservation& obs) {
  GrowthPoint point;
  point.date = obs.snap->taken_at;
  point.files = obs.file_count;
  point.dirs = obs.dir_count;
  point.after_gap = obs.gap_before;
  if (obs.gap_before) ++result_.gap_weeks;
  result_.points.push_back(point);
}

namespace {

// Points are saved field by field, so the blob holds no struct padding and
// a damaged after_gap byte is rejected instead of loaded into a bool.
constexpr std::size_t kPointBytes = 8 + 8 + 8 + 1;

}  // namespace

bool GrowthAnalyzer::save_state(StateWriter& w) const {
  w.u64(result_.points.size());
  for (const GrowthPoint& point : result_.points) {
    w.i64(point.date);
    w.u64(point.files);
    w.u64(point.dirs);
    w.u8(point.after_gap ? 1 : 0);
  }
  w.u64(result_.gap_weeks);
  return true;
}

bool GrowthAnalyzer::load_state(StateReader& r) {
  const std::uint64_t count = r.u64();
  if (!r.ok() || count > r.remaining() / kPointBytes) return false;
  std::vector<GrowthPoint> points(static_cast<std::size_t>(count));
  for (GrowthPoint& point : points) {
    point.date = r.i64();
    point.files = r.u64();
    point.dirs = r.u64();
    const std::uint8_t after_gap = r.u8();
    if (after_gap > 1) return false;
    point.after_gap = after_gap != 0;
  }
  const std::uint64_t gap_weeks = r.u64();
  if (!r.ok()) return false;
  result_.points = std::move(points);
  result_.gap_weeks = static_cast<std::size_t>(gap_weeks);
  return true;
}

void GrowthAnalyzer::finish() {
  if (result_.points.empty()) return;
  const GrowthPoint& first = result_.points.front();
  const GrowthPoint& last = result_.points.back();
  result_.growth_factor =
      first.files == 0 ? 0.0
                       : static_cast<double>(last.files) /
                             static_cast<double>(first.files);
  const std::uint64_t entries = last.files + last.dirs;
  result_.final_dir_share =
      entries == 0 ? 0.0
                   : static_cast<double>(last.dirs) /
                         static_cast<double>(entries);
}

std::string GrowthAnalyzer::render() const {
  std::ostringstream os;
  os << "Fig 15: live file/directory growth\n";
  AsciiTable t({"snapshot", "files", "dirs", "dir share"});
  const std::size_t step =
      std::max<std::size_t>(1, result_.points.size() / 14);
  for (std::size_t i = 0; i < result_.points.size(); i += step) {
    const GrowthPoint& p = result_.points[i];
    t.add_row({date_iso(p.date), format_with_commas(p.files),
               format_with_commas(p.dirs),
               format_percent(static_cast<double>(p.dirs) /
                              static_cast<double>(std::max<std::uint64_t>(
                                  1, p.files + p.dirs)))});
  }
  if ((result_.points.size() - 1) % step != 0 && !result_.points.empty()) {
    const GrowthPoint& p = result_.points.back();
    t.add_row({date_iso(p.date), format_with_commas(p.files),
               format_with_commas(p.dirs),
               format_percent(result_.final_dir_share)});
  }
  t.print(os);
  os << "growth factor " << format_double(result_.growth_factor, 2)
     << "x (paper: ~5x, 200M -> 1B); final dir share "
     << format_percent(result_.final_dir_share) << " (paper: <10%)\n";
  if (result_.gap_weeks > 0) {
    os << "note: " << result_.gap_weeks
       << " week(s) follow a series gap; their step spans more than one "
          "collection interval\n";
  }
  return os.str();
}

}  // namespace spider
