// Table 2 + Fig 10: file-type popularity.
//   Table 2 — per-domain top-3 extensions with their share of the domain's
//             unique files;
//   Fig 10 — the weekly share of the 20 globally most popular extensions
//            (plus "no extension" and "other"), which exposes the .bb and
//            .xyz campaign spikes.
// A file is unique when the runner's first-seen pass settles its file bit
// (a path never seen as a file), the same verdict languages reads.
#pragma once

#include <string>
#include <vector>

#include "engine/agg.h"
#include "engine/dict.h"
#include "study/resolve.h"
#include "study/runner.h"

namespace spider {

struct ExtensionsResult {
  /// Per-domain (extension, percent-of-domain-unique-files), top 3.
  std::vector<std::vector<std::pair<std::string, double>>> top3_by_domain;

  /// Global top-20 by unique-file count ("" never appears here;
  /// extensionless files are tracked separately).
  std::vector<std::pair<std::string, std::uint64_t>> global_top;
  std::uint64_t unique_files = 0;
  std::uint64_t unique_no_extension = 0;

  /// Fig 10 trend: one row per snapshot.
  std::vector<std::int64_t> snapshot_dates;
  /// share_top[s][k] = share of global_top[k] among snapshot s's files.
  std::vector<std::vector<double>> share_top;
  std::vector<double> share_none;   // "no extension" share per snapshot
  std::vector<double> share_other;  // everything else per snapshot
};

class ExtensionsAnalyzer : public StudyAnalyzer {
 public:
  explicit ExtensionsAnalyzer(const Resolver& resolver, std::size_t top_k = 20);

  ColumnMask columns_needed() const override {
    return kColMaskPaths | kColMaskGid | kColMaskMode;
  }
  bool wants_first_seen() const override { return true; }
  std::unique_ptr<ScanChunkState> make_chunk_state() const override;
  void observe_chunk(ScanChunkState* state, const WeekObservation& obs,
                     const ScanMorsel& m) override;
  void merge(const WeekObservation& obs, ScanStateList states) override;

  /// Delta port: matched rows keep their paths (hence extensions), so the
  /// week's counts are the previous week's counts minus deleted files plus
  /// new files, and unique-file/intern work touches only new rows. New
  /// dictionary ids can only come from new rows — any extension on a
  /// matched or deleted row already existed last week — so the intern
  /// order (ascending new rows) matches the scan path's chunk-fold order.
  bool supports_delta() const override { return true; }
  void apply_delta(const WeekObservation& obs,
                   const WeekDelta& delta) override;
  void finish() override;

  std::string_view state_id() const override { return "extensions"; }
  /// v3: the distinct-path set left the blob for the runner's first-seen
  /// map.
  std::uint32_t state_version() const override { return 3; }
  bool save_state(StateWriter& w) const override;
  bool load_state(StateReader& r) override;

  const ExtensionsResult& result() const { return result_; }
  std::string render() const;

 private:
  const Resolver& resolver_;
  std::size_t top_k_;
  /// Study-long extension dictionary (DESIGN.md §12): every distinct
  /// extension interned once, counts below are dense vectors indexed by
  /// id. All rendered output sorts by count with NAME tie-breaks, so the
  /// results never depend on intern order.
  StringDict dict_;
  std::vector<std::uint64_t> unique_global_;                  // [ext id]
  std::vector<std::vector<std::uint64_t>> unique_by_domain_;  // [domain][id]
  std::vector<std::vector<std::uint64_t>> weekly_counts_;     // [week][id]
  std::vector<std::uint64_t> weekly_files_;
  std::vector<std::uint64_t> weekly_none_;
  ExtensionsResult result_;
};

}  // namespace spider
