#include "study/access_patterns.h"

#include <sstream>
#include <utility>

#include "util/table.h"
#include "util/timeutil.h"

namespace spider {

void AccessPatternsAnalyzer::record(const WeekObservation& obs) {
  if (obs.gap_before) ++result_.gap_pairs_skipped;
  if (obs.diff == nullptr) return;
  AccessPatternWeek week;
  week.date = obs.snap->taken_at;
  week.new_frac = obs.diff->new_fraction();
  week.deleted_frac = obs.diff->deleted_fraction();
  week.readonly_frac = obs.diff->readonly_fraction();
  week.updated_frac = obs.diff->updated_fraction();
  week.untouched_frac = obs.diff->untouched_fraction();
  result_.weeks.push_back(week);
}

bool AccessPatternsAnalyzer::save_state(StateWriter& w) const {
  w.vec(result_.weeks);
  w.u64(result_.gap_pairs_skipped);
  return true;
}

bool AccessPatternsAnalyzer::load_state(StateReader& r) {
  std::vector<AccessPatternWeek> weeks;
  if (!r.vec(&weeks)) return false;
  const std::uint64_t gap_pairs_skipped = r.u64();
  if (!r.ok()) return false;
  result_.weeks = std::move(weeks);
  result_.gap_pairs_skipped = static_cast<std::size_t>(gap_pairs_skipped);
  return true;
}

void AccessPatternsAnalyzer::finish() {
  if (result_.weeks.empty()) return;
  const double n = static_cast<double>(result_.weeks.size());
  for (const AccessPatternWeek& w : result_.weeks) {
    result_.avg_new += w.new_frac / n;
    result_.avg_deleted += w.deleted_frac / n;
    result_.avg_readonly += w.readonly_frac / n;
    result_.avg_updated += w.updated_frac / n;
    result_.avg_untouched += w.untouched_frac / n;
  }
}

std::string AccessPatternsAnalyzer::render() const {
  std::ostringstream os;
  os << "Fig 13: weekly access-pattern breakdown (fractions of the previous "
        "week's files; 'new' of the current week's)\n";
  AsciiTable t({"snapshot", "new", "deleted", "readonly", "updated",
                "untouched"});
  const std::size_t step =
      std::max<std::size_t>(1, result_.weeks.size() / 12);
  for (std::size_t w = 0; w < result_.weeks.size(); w += step) {
    const AccessPatternWeek& week = result_.weeks[w];
    t.add_row({date_iso(week.date), format_percent(week.new_frac),
               format_percent(week.deleted_frac),
               format_percent(week.readonly_frac),
               format_percent(week.updated_frac),
               format_percent(week.untouched_frac)});
  }
  t.print(os);
  os << "averages: new " << format_percent(result_.avg_new) << " (paper 22%)"
     << ", deleted " << format_percent(result_.avg_deleted) << " (13%)"
     << ", readonly " << format_percent(result_.avg_readonly) << " (3%)"
     << ", updated " << format_percent(result_.avg_updated) << " (10%)"
     << ", untouched " << format_percent(result_.avg_untouched) << " (76%)\n";
  if (result_.gap_pairs_skipped > 0) {
    os << "note: " << result_.gap_pairs_skipped
       << " week pair(s) skipped at series gaps (missing/corrupt weeks)\n";
  }
  return os.str();
}

}  // namespace spider
