// Fig 16: file age — atime minus mtime, i.e. how long after its last write
// a file is still being read. The paper uses the per-snapshot average to
// argue the 90-day purge window is too tight (median 138 days, max 214,
// above 90 in 86% of snapshots). Also supports the purge-window ablation.
#pragma once

#include <string>
#include <vector>

#include "study/runner.h"

namespace spider {

struct FileAgePoint {
  std::int64_t date = 0;
  double avg_age_days = 0;
  double median_age_days = 0;
};

struct FileAgeResult {
  std::vector<FileAgePoint> points;
  double median_of_averages = 0;  // the paper's headline 138
  double max_of_averages = 0;     // 214
  double fraction_above_purge = 0;  // of snapshots; 86% in the paper
  int purge_days = 90;
};

class FileAgeAnalyzer : public StudyAnalyzer {
 public:
  explicit FileAgeAnalyzer(int purge_days = 90) { result_.purge_days = purge_days; }

  ColumnMask columns_needed() const override {
    return kColMaskAtime | kColMaskMtime | kColMaskMode;
  }
  std::unique_ptr<ScanChunkState> make_chunk_state() const override;
  void observe_chunk(ScanChunkState* state, const WeekObservation& obs,
                     const ScanMorsel& m) override;
  void merge(const WeekObservation& obs, ScanStateList states) override;

  /// Delta port: age (atime - mtime) is frozen for untouched rows, so the
  /// week's age population is last week's sorted multiset minus the ages
  /// of deleted/readonly/updated prev rows plus the ages of new/readonly/
  /// updated cur rows. All paths compute the mean from an exact int64
  /// second sum and the median from the sorted multiset, so the delta and
  /// scan paths agree bit-for-bit.
  bool supports_delta() const override { return true; }
  void apply_delta(const WeekObservation& obs,
                   const WeekDelta& delta) override;
  void finish() override;

  std::string_view state_id() const override { return "file-age"; }
  bool save_state(StateWriter& w) const override;
  bool load_state(StateReader& r) override;

  const FileAgeResult& result() const { return result_; }
  std::string render() const;

 private:
  /// Retained live-population state for the delta path (maintained only
  /// when the study runs incrementally): exact age-second sum and the
  /// sorted age multiset of the previous snapshot's files.
  std::int64_t live_sum_ = 0;
  std::vector<std::int64_t> live_ages_;
  FileAgeResult result_;
};

}  // namespace spider
