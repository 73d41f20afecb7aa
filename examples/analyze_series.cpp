// analyze_series: the production entry point — run the whole study on a
// directory of snap_YYYYMMDD.scol snapshots, exactly what an HPC center
// would point at its own LustreDU collection. The account structure is
// inferred from the snapshots (synth/infer.h); no generator involved.
//
//   ./examples/snapshot_tool generate --dir=/tmp/series --weeks=20
//   ./examples/analyze_series --dir=/tmp/series
//
// Flags: --dir=<snapshot directory>  --min-burst-files=<n, default 10>
//        --report=<all|table1|users|census|access|age|network|collab>
//        --salvage=<skip|quarantine>  (decode damaged weeks' surviving
//        row groups instead of turning the whole week into a gap)
//        --incremental  (delta-driven analyzers; see DESIGN.md §13)
//        --checkpoint=<path>  (write a .sckpt after each analyzed week;
//        implies --incremental; inspect with `snapshot_tool checkpoint`)
//        --retry=<n>  (retry transient snapshot read errors up to n
//        attempts with jittered exponential backoff before recording
//        the week as a gap)
//
// A damaged series (missing or corrupt weeks) does not abort the study:
// the affected weeks become gaps, diff-based figures skip the gap-adjacent
// pairs, and the report ends with a data-quality section listing every gap
// and its reason.
#include <iostream>

#include "study/full_study.h"
#include "synth/infer.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace spider;
  const CliArgs args(argc, argv);
  const std::string dir = args.get("dir", "");
  if (dir.empty()) {
    std::cerr << "usage: analyze_series --dir=<snapshot directory> "
                 "[--report=all] [--min-burst-files=10]\n";
    return 1;
  }

  DirectorySeries series;
  const Status opened = series.open(dir);
  if (!opened.ok()) {
    std::cerr << "cannot open series: " << opened.to_string() << "\n";
    return 1;
  }
  const std::string salvage = args.get("salvage", "");
  if (salvage == "skip" || salvage == "quarantine") {
    ScolOptions options;
    options.on_corrupt_group = salvage == "skip"
                                   ? CorruptGroupPolicy::kSkip
                                   : CorruptGroupPolicy::kQuarantine;
    series.set_scol_options(options);
  } else if (!salvage.empty()) {
    std::cerr << "bad --salvage value (want skip|quarantine)\n";
    return 1;
  }
  const long retry_attempts = args.get_int("retry", 1);
  if (retry_attempts > 1) {
    RetryPolicy policy;
    policy.max_attempts = static_cast<std::size_t>(retry_attempts);
    series.set_retry_policy(policy);
  }
  std::cout << "found " << series.count() << " snapshots in " << dir;
  if (!series.gaps().empty()) {
    std::cout << " (" << series.gaps().size()
              << " gap(s) already visible in the timeline)";
  }
  std::cout << "\n";

  InferenceStats stats;
  const FacilityPlan plan = infer_facility(series, &stats);
  std::cout << "inferred " << stats.users << " users, " << stats.projects
            << " projects, " << stats.memberships << " memberships ("
            << stats.unmatched_projects
            << " projects without a recognizable domain tag)\n\n";

  Resolver resolver(plan);
  FullStudy study(resolver, static_cast<std::size_t>(
                                args.get_int("min-burst-files", 10)));
  StudyOptions options;
  options.checkpoint.path = args.get("checkpoint", "");
  options.incremental =
      args.get_bool("incremental", false) || !options.checkpoint.path.empty();
  CheckpointReport ckpt_report;
  options.checkpoint_report = &ckpt_report;
  study.run(series, options);
  if (!options.checkpoint.path.empty()) {
    std::cout << "checkpoint: " << ckpt_report.checkpoints_written
              << " written to " << options.checkpoint.path;
    if (ckpt_report.write_failures > 0) {
      std::cout << ", " << ckpt_report.write_failures << " failed (first: "
                << ckpt_report.first_write_failure.to_string() << ")";
    }
    if (ckpt_report.resumed) {
      std::cout << " (resumed after week " << ckpt_report.resumed_week << ")";
    } else if (!ckpt_report.rebaseline_reason.empty()) {
      std::cout << " (full run: " << ckpt_report.rebaseline_reason << ")";
    }
    std::cout << "\n\n";
  }

  const std::string report = args.get("report", "all");
  const bool all = report == "all";
  if (all || report == "table1") std::cout << study.render_table1() << "\n";
  if (all || report == "users") std::cout << study.user_profile.render() << "\n";
  if (all || report == "census") std::cout << study.census.render() << "\n";
  if (all || report == "access") {
    std::cout << study.access_patterns.render() << "\n"
              << study.growth.render() << "\n";
  }
  if (all || report == "age") std::cout << study.file_age.render() << "\n";
  if (all || report == "network") std::cout << study.network.render() << "\n";
  if (all || report == "collab") {
    std::cout << study.collaboration.render() << "\n";
  }
  std::cout << study.render_data_quality();
  return 0;
}
