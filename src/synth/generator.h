// FacilityGenerator: the synthetic Spider II. Drives ~20 months of
// simulated facility activity — bursty write sessions, tight read
// campaigns, checkpoint rewrites, user deletions, the 90-day purge sweep,
// and the two create-rate campaign events the paper observed (.bb files in
// July 2015, .xyz files in February 2016) — and emits weekly LustreDU-style
// snapshots through the SnapshotSource interface.
//
// Everything is calibrated against the paper's published numbers (see
// domains.h and plan.h for the static structure; FacilityConfig below for
// the dynamic knobs). File volume scales with `scale`; users, projects,
// domains and the membership network are always full-scale.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/series.h"
#include "synth/plan.h"

namespace spider {

struct FacilityConfig {
  std::uint64_t seed = 20150105;

  /// Fraction of Spider II's file volume to simulate. 0.001 => the study
  /// peaks near one million live entries instead of one billion.
  double scale = 0.001;

  /// Simulated weeks (January 2015 - August 2016 spans ~86; the paper
  /// sampled 72 snapshot dates out of it).
  std::size_t weeks = 86;

  /// Emit only non-gap weeks (14 deterministic maintenance gaps), matching
  /// the paper's 72 usable snapshots. When false every week is emitted.
  bool maintenance_gaps = true;

  /// Scratch purge policy: files whose atime is older than this are
  /// removed by the weekly purge sweep. Directories are never purged.
  int purge_days = 90;

  // ---- population dynamics ------------------------------------------------
  /// Live files at week 0 (pre-scale; 200M matches Fig 15's start).
  double initial_files = 200e6;
  /// Live files at the final week (1B matches Fig 15's peak).
  double final_files = 1000e6;
  /// Fraction of created files that are long-lived datasets (re-read for
  /// months); the rest are transient checkpoints/outputs. Real jobs write
  /// outputs under fresh names and clean up the previous run's, so both
  /// the weekly new% and deleted% far exceed the net growth rate.
  double dataset_fraction = 0.35;
  /// Fraction of the *initial* population that is long-lived datasets.
  /// Spider's standing population is dominated by old, re-read data (the
  /// paper's Fig 16 file ages), so this is higher than the flow mix.
  double initial_dataset_fraction = 0.70;
  /// Weekly deletion probability of a transient file (user cleanup).
  double transient_delete_prob = 0.55;
  /// Fraction of deleted transients immediately recreated under fresh
  /// names — jobs rewriting their output trees. This is what makes the
  /// weekly new% and deleted% (Fig 13) far exceed the net growth rate.
  double recreate_fraction = 0.75;
  /// Fraction of live transient files rewritten (checkpoint-style) weekly.
  double update_fraction = 0.30;
  /// Dataset re-read cadence, in days: each batch draws its refresh period
  /// uniformly from [min, max]. Periods beyond purge_days lose files.
  double refresh_days_min = 56;
  double refresh_days_max = 88;
  /// Fraction of dataset batches whose periodic touch *rewrites* the batch
  /// (mtime moves: "updated") instead of just reading it ("readonly").
  double rewrite_touch_fraction = 0.40;
  /// Fraction of dataset batches whose owners forget them (never re-read
  /// => purged at 90 days), feeding the purge statistics.
  double forgotten_batch_fraction = 0.06;
  /// Minimum files a project creates over the study, so tiny domains
  /// remain visible at small scales.
  std::uint64_t min_project_files = 30;

  // ---- deterministic churn mode -------------------------------------------
  /// When all three are >= 0, the organic weekly dynamics (write sessions,
  /// read campaigns, checkpoint rewrites, purge sweep, population
  /// controller) are replaced by a fixed churn process: each file created
  /// before the week is rewritten in place with probability churn_update
  /// and deleted with probability churn_delete, and round(live *
  /// churn_create) files are created per project. Deterministic in `seed`,
  /// so two generators with the same config emit identical series — the
  /// knob the incremental-study churn sweep and bench_incremental turn.
  /// Setting all three to 0 produces byte-identical adjacent snapshots.
  double churn_create = -1;
  double churn_update = -1;
  double churn_delete = -1;
  bool churn_mode() const {
    return churn_create >= 0 && churn_update >= 0 && churn_delete >= 0;
  }

  std::int64_t start_epoch() const;  // Monday 2015-01-05
};

/// One scheduler job observed by the facility (the paper's future-work
/// data source: "combining multiple system logs (e.g., job logs) ... will
/// allow more interesting insights"). Write jobs are the bursty sessions;
/// read jobs are the analysis/visualization campaigns.
struct JobRecord {
  std::uint32_t project = 0;  // dense project index
  std::uint32_t uid = 0;      // submitting user
  std::int64_t start = 0;     // epoch seconds
  std::int64_t end = 0;
  std::uint64_t files_written = 0;
  std::uint64_t files_read = 0;
};

using JobVisitor = std::function<void(const JobRecord&)>;

/// Field-wise row sink, mirroring ScolStreamWriter::add so a week's rows
/// can flow from the simulator straight into the encoder without ever
/// materializing a SnapshotTable.
using RecordSink = std::function<Status(
    std::string_view path, std::int64_t atime, std::int64_t ctime,
    std::int64_t mtime, std::uint32_t uid, std::uint32_t gid,
    std::uint32_t mode, std::uint64_t inode,
    std::span<const std::uint32_t> osts)>;

/// One emitted week of the simulation, delivered as a row stream. `emit`
/// replays the week's rows into a sink in exactly the order emit() adds
/// them to a table — dirs then files per project — so a ScolStreamWriter
/// fed from it produces bytes identical to write_scol_file of the eager
/// snapshot. `emit` may be invoked at most once and only from inside the
/// visitor call (the rows borrow live simulation state).
struct WeekRecordBatch {
  std::size_t week = 0;      // dense emitted index (matches visit())
  std::int64_t taken_at = 0; // collection date (end of the simulated week)
  std::uint64_t rows = 0;    // rows emit() will deliver
  std::function<Status(const RecordSink&)> emit;
};

using WeekRecordVisitor = std::function<Status(const WeekRecordBatch&)>;

class FacilityGenerator : public SnapshotSource {
 public:
  explicit FacilityGenerator(FacilityConfig config);

  /// Number of snapshots visit() will deliver (weeks minus gaps).
  std::size_t count() const override;

  /// Re-runs the whole simulation (deterministic in config.seed) and
  /// delivers weekly snapshots in order. Snapshot `week` indices are dense
  /// over emitted snapshots; taken_at carries the real (gappy) dates.
  void visit(const SnapshotVisitor& visitor) override;

  /// Each weekly snapshot is freshly built, so ownership transfer is free.
  void visit_move(const SnapshotMoveVisitor& visitor) override;

  /// Like visit(), but additionally streams the scheduler job log
  /// (interleaved chronologically per week, before that week's snapshot).
  void visit_with_jobs(const SnapshotVisitor& visitor,
                       const JobVisitor& jobs);

  /// Runs the simulation delivering each emitted week as a row stream
  /// instead of a built table — peak memory is the simulator's live-file
  /// state alone, independent of snapshot width. A non-ok status from the
  /// visitor aborts the run and is returned.
  Status visit_records(const WeekRecordVisitor& visitor);

  const FacilityPlan& plan() const { return plan_; }
  const FacilityConfig& config() const { return config_; }

  /// The deterministic maintenance-gap week numbers for a config.
  static std::vector<std::size_t> gap_weeks(const FacilityConfig& config);

 private:
  FacilityConfig config_;
  FacilityPlan plan_;
};

/// Streams every snapshot of the generator into `directory` as
/// snap_<YYYYMMDD>.scol files written group-at-a-time through
/// ScolStreamWriter — the path that makes scale >= 0.1 series producible
/// in bounded memory. Output bytes are identical to save_series() of the
/// same generator under the same options.
Status save_series_streamed(FacilityGenerator& generator,
                            const std::string& directory,
                            const ScolOptions& options = {});

}  // namespace spider
