// Test-side reference for the study runner's weekly diff: a recording
// analyzer that recomputes each week's classification with the standalone
// hash join (diff_snapshots) and compares it, field by field, with the
// DiffResult the runner handed out — the fused scan kernel's on resident
// weeks. On scan weeks it also checks that the per-chunk slices the fused
// kernel exposes through WeekObservation::diff_chunks (what burstiness
// reads inside observe_chunk) concatenate to the final lists.
//
// Resident runs only: a streamed week's table is an empty shell, so there
// is nothing to recompute the diff from.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/diff.h"
#include "study/runner.h"

namespace spider {

class DiffOracleAnalyzer : public StudyAnalyzer {
 public:
  /// `label` prefixes every failure message (e.g. the run's settings).
  explicit DiffOracleAnalyzer(std::string label) : label_(std::move(label)) {}

  bool wants_diff() const override { return true; }
  /// The runner adds the diff's own columns; the recount needs no others.
  ColumnMask columns_needed() const override { return kColMaskNone; }
  /// Delta-capable, so an incremental run hands the delta weeks' diff —
  /// with the prev-row mapping and the directory diff — to apply_delta.
  bool supports_delta() const override { return true; }

  std::unique_ptr<ScanChunkState> make_chunk_state() const override {
    return std::make_unique<ChunkSlice>();
  }

  void observe_chunk(ScanChunkState* state, const WeekObservation& obs,
                     const ScanMorsel& m) override {
    if (obs.diff_chunks == nullptr) return;
    auto* slice = static_cast<ChunkSlice*>(state);
    slice->begin = m.begin;
    slice->end = m.end;
    const DiffChunkRows* rows = obs.diff_chunks->chunk_rows(m.begin);
    if (rows == nullptr) return;
    slice->seen = true;
    for (int k = 0; k < 4; ++k) slice->rows[k] = rows->rows[k];
  }

  void merge(const WeekObservation& obs, ScanStateList states) override {
    if (obs.diff == nullptr) return;
    ASSERT_NE(obs.prev, nullptr) << label_;
    check(obs.week, *obs.diff, obs.prev->table, obs.snap->table,
          DiffOptions{});
    if (obs.diff_chunks != nullptr) check_chunks(obs.week, *obs.diff, states);
  }

  void apply_delta(const WeekObservation& obs,
                   const WeekDelta& delta) override {
    ++delta_weeks;
    check(obs.week, *delta.diff, *delta.prev, *delta.cur,
          DiffOptions{.prev_rows = true, .dirs = true});
  }

  /// Weeks whose diff was compared, and how many of them were delta weeks.
  std::size_t checked_weeks = 0;
  std::size_t delta_weeks = 0;

 private:
  struct ChunkSlice : ScanChunkState {
    bool seen = false;
    std::size_t begin = 0, end = 0;
    std::vector<std::uint32_t> rows[4];
  };

  void check(std::size_t week, const DiffResult& got,
             const SnapshotTable& prev, const SnapshotTable& cur,
             const DiffOptions& options) {
    ++checked_weeks;
    const std::string at = label_ + " week=" + std::to_string(week);
    const DiffResult want =
        diff_snapshots(prev, cur, /*pool=*/nullptr, nullptr, options);
    EXPECT_EQ(got.new_rows, want.new_rows) << at;
    EXPECT_EQ(got.readonly_rows, want.readonly_rows) << at;
    EXPECT_EQ(got.updated_rows, want.updated_rows) << at;
    EXPECT_EQ(got.untouched_rows, want.untouched_rows) << at;
    EXPECT_EQ(got.deleted_rows, want.deleted_rows) << at;
    EXPECT_EQ(got.has_prev_rows, want.has_prev_rows) << at;
    EXPECT_EQ(got.readonly_prev_rows, want.readonly_prev_rows) << at;
    EXPECT_EQ(got.updated_prev_rows, want.updated_prev_rows) << at;
    EXPECT_EQ(got.untouched_prev_rows, want.untouched_prev_rows) << at;
    EXPECT_EQ(got.has_dir_diff, want.has_dir_diff) << at;
    EXPECT_EQ(got.new_dir_rows, want.new_dir_rows) << at;
    EXPECT_EQ(got.changed_dir_rows, want.changed_dir_rows) << at;
    EXPECT_EQ(got.changed_dir_prev_rows, want.changed_dir_prev_rows) << at;
    EXPECT_EQ(got.deleted_dir_rows, want.deleted_dir_rows) << at;
    EXPECT_EQ(got.prev_files, want.prev_files) << at;
    EXPECT_EQ(got.cur_files, want.cur_files) << at;
  }

  void check_chunks(std::size_t week, const DiffResult& diff,
                    ScanStateList states) {
    const std::string at = label_ + " week=" + std::to_string(week);
    const std::vector<std::uint32_t>* lists[4] = {};
    lists[DiffChunkRows::kNew] = &diff.new_rows;
    lists[DiffChunkRows::kReadonly] = &diff.readonly_rows;
    lists[DiffChunkRows::kUpdated] = &diff.updated_rows;
    lists[DiffChunkRows::kUntouched] = &diff.untouched_rows;
    std::vector<std::uint32_t> joined[4];
    for (const auto& state : states) {
      const auto* slice = static_cast<const ChunkSlice*>(state.get());
      ASSERT_TRUE(slice->seen) << at << " chunk at row " << slice->begin;
      for (int k = 0; k < 4; ++k) {
        const std::vector<std::uint32_t>& rows = slice->rows[k];
        // Each list is ascending, so its ends bound the whole slice.
        if (!rows.empty()) {
          EXPECT_GE(rows.front(), slice->begin) << at;
          EXPECT_LT(rows.back(), slice->end) << at;
        }
        joined[k].insert(joined[k].end(), rows.begin(), rows.end());
      }
    }
    for (int k = 0; k < 4; ++k) EXPECT_EQ(joined[k], *lists[k]) << at;
  }

  std::string label_;
};

}  // namespace spider
