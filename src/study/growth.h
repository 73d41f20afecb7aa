// Fig 15: growth of the live file and directory populations across the
// study — the paper's 200M -> 1B file curve with a comparatively flat
// directory count (<10% of entries in late snapshots).
#pragma once

#include <string>
#include <vector>

#include "study/runner.h"

namespace spider {

struct GrowthPoint {
  std::int64_t date = 0;
  std::uint64_t files = 0;
  std::uint64_t dirs = 0;
  /// Week follows one or more series gaps: the point is sound (counts are
  /// per-snapshot, not per-diff) but the step from the previous point
  /// spans more than one collection interval.
  bool after_gap = false;
};

struct GrowthResult {
  std::vector<GrowthPoint> points;
  double growth_factor = 0;       // last files / first files
  double final_dir_share = 0;     // dirs / entries at the last snapshot
  std::size_t gap_weeks = 0;      // points flagged after_gap
};

class GrowthAnalyzer : public StudyAnalyzer {
 public:
  /// Week-level only: O(1) per snapshot off the week's file/dir counts
  /// (which the decoder derives from mode), so no chunk state — merge()
  /// records one point per week.
  ColumnMask columns_needed() const override { return kColMaskMode; }
  void merge(const WeekObservation& obs, ScanStateList) override {
    record(obs);
  }
  /// Already O(1) per week with no retained row state, so the delta port
  /// records the same point — declaring support keeps the analyzer out of
  /// the shared scan on delta weeks.
  bool supports_delta() const override { return true; }
  void apply_delta(const WeekObservation& obs, const WeekDelta&) override {
    record(obs);
  }
  void finish() override;

  std::string_view state_id() const override { return "growth"; }
  bool save_state(StateWriter& w) const override;
  bool load_state(StateReader& r) override;

  const GrowthResult& result() const { return result_; }
  std::string render() const;

 private:
  void record(const WeekObservation& obs);

  GrowthResult result_;
};

}  // namespace spider
