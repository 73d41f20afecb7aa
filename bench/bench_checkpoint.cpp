// Checkpoint overhead and restore-vs-rerun harness (DESIGN.md §14).
//
// Two questions, both on a fixed-churn synthetic series studied by the
// fully delta-capable roster (the only roster that can resume — FullStudy's
// scan-only analyzers record re-baseline markers):
//
//   1. What does writing a .sckpt every week cost, on top of the plain
//      incremental run? (write path: serialize + fsync + rename + dir fsync)
//   2. After a crash at the end of the series, what does resuming from the
//      checkpoint cost, compared to re-running the study from scratch —
//      the work the checkpoint exists to avoid?
//
// Emits BENCH_checkpoint.json with both ratios and the checkpoint size,
// and self-checks that the plain, checkpointed, and resumed runs all
// render byte-identical bundles (exit 1 otherwise).
//
// Flags: --scale / --weeks / --seed (bench_common), --churn=<frac>
// (default 0.05), --reps=<n> best-of-n timing (default 3), --out=<path>.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "snapshot/series.h"
#include "util/parallel.h"
#include "util/table.h"

namespace {

using namespace spider;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The resumable roster: every analyzer implements save/load_state.
struct DeltaStudy {
  explicit DeltaStudy(const Resolver& resolver)
      : user_profile(resolver),
        participation(resolver),
        census(resolver),
        extensions(resolver),
        languages(resolver) {}

  UserProfileAnalyzer user_profile;
  ParticipationAnalyzer participation;
  CensusAnalyzer census;
  ExtensionsAnalyzer extensions;
  LanguagesAnalyzer languages;
  AccessPatternsAnalyzer access_patterns;
  GrowthAnalyzer growth;
  FileAgeAnalyzer file_age;

  std::vector<StudyAnalyzer*> roster() {
    return {&user_profile, &participation,   &census, &extensions,
            &languages,    &access_patterns, &growth, &file_age};
  }

  std::string render() const {
    std::string out;
    out += user_profile.render();
    out += participation.render();
    out += census.render();
    out += extensions.render();
    out += languages.render();
    out += access_patterns.render();
    out += growth.render();
    out += file_age.render();
    return out;
  }
};

struct RunResult {
  double seconds = 0;
  std::string bundle;
  CheckpointReport report;
};

RunResult run_once(const std::string& series_dir, const Resolver& resolver,
                   ThreadPool& pool, const std::string& ckpt_path,
                   bool resume) {
  DirectorySeries series;
  const Status opened = series.open(series_dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "open %s: %s\n", series_dir.c_str(),
                 opened.to_string().c_str());
    std::exit(1);
  }
  DeltaStudy study(resolver);
  StudyOptions options;
  options.pool = &pool;
  options.incremental = true;
  options.checkpoint.path = ckpt_path;
  options.checkpoint.resume = resume;
  RunResult result;
  options.checkpoint_report = &result.report;
  const std::vector<StudyAnalyzer*> roster = study.roster();
  const auto start = std::chrono::steady_clock::now();
  run_study(series, roster, options);
  result.seconds = seconds_since(start);
  result.bundle = study.render();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  auto env = bench::BenchEnv::from_args(argc, argv, /*default_scale=*/2e-4);
  env.config.weeks = static_cast<std::size_t>(args.get_int("weeks", 24));
  env.config.maintenance_gaps = false;
  const double churn = args.get_double("churn", 0.05);
  env.config.churn_create = churn;
  env.config.churn_update = churn;
  env.config.churn_delete = churn;
  env.generator = std::make_unique<FacilityGenerator>(env.config);
  env.resolver = std::make_unique<Resolver>(env.generator->plan());
  env.print_header("Checkpoint/resume — write overhead and restore cost",
                   "crash-safe resume vs re-running the study (DESIGN.md §14)");

  const int reps = std::max(1, static_cast<int>(args.get_int("reps", 3)));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(hw);
  auto best_of = [&](auto&& fn) {
    double best = 1e300;
    for (int rep = 0; rep < reps; ++rep) best = std::min(best, fn());
    return best;
  };

  namespace fs = std::filesystem;
  const fs::path work =
      fs::temp_directory_path() / "spider_bench_checkpoint_series";
  fs::remove_all(work);
  std::size_t total_rows = 0;
  {
    const Status saved = save_series(*env.generator, work.string());
    if (!saved.ok()) {
      std::fprintf(stderr, "save_series: %s\n", saved.to_string().c_str());
      return 1;
    }
    env.generator->visit([&](std::size_t, const Snapshot& snap) {
      total_rows += snap.table.size();
    });
  }
  const std::string ckpt = (work / "study.sckpt").string();
  const double dweeks = static_cast<double>(env.config.weeks);

  // 1. Plain incremental run (the re-run baseline) vs checkpoint-every-week.
  std::string plain_bundle;
  const double plain_s = best_of([&] {
    RunResult r = run_once(work.string(), *env.resolver, pool, "", false);
    plain_bundle = std::move(r.bundle);
    return r.seconds;
  });
  std::string ckpt_bundle;
  std::size_t checkpoints_written = 0;
  const double ckpt_s = best_of([&] {
    fs::remove(ckpt);  // measure the write path, not a resume
    RunResult r = run_once(work.string(), *env.resolver, pool, ckpt, false);
    ckpt_bundle = std::move(r.bundle);
    checkpoints_written = r.report.checkpoints_written;
    return r.seconds;
  });
  const std::uintmax_t ckpt_bytes = fs::file_size(ckpt);

  // 2. Crash-at-the-end restore: the checkpoint on disk holds the last
  // analyzed week; a resumed run re-decodes only that week, restores the
  // blobs, and renders.
  std::string resumed_bundle;
  bool resumed = false;
  const double restore_s = best_of([&] {
    RunResult r = run_once(work.string(), *env.resolver, pool, ckpt, true);
    resumed_bundle = std::move(r.bundle);
    resumed = r.report.resumed;
    return r.seconds;
  });

  if (plain_bundle != ckpt_bundle || plain_bundle != resumed_bundle) {
    std::fprintf(stderr,
                 "FAIL: checkpointed/resumed bundles differ from the plain "
                 "incremental run\n");
    return 1;
  }
  if (!resumed) {
    std::fprintf(stderr, "FAIL: restore run did not resume\n");
    return 1;
  }

  const double write_overhead = ckpt_s / plain_s - 1.0;
  const double restore_ratio = restore_s / plain_s;
  AsciiTable out({"metric", "value"});
  out.add_row({"rows (all weeks)", format_with_commas(total_rows)});
  out.add_row({"plain incremental", format_double(1000.0 * plain_s / dweeks,
                                                  2) + " ms/week"});
  out.add_row({"with weekly checkpoint",
               format_double(1000.0 * ckpt_s / dweeks, 2) + " ms/week"});
  out.add_row({"write overhead",
               format_double(100.0 * write_overhead, 1) + "%"});
  out.add_row({"checkpoint size",
               format_with_commas(static_cast<std::uint64_t>(ckpt_bytes)) +
                   " bytes"});
  out.add_row({"restore + render", format_double(1000.0 * restore_s, 1) +
                                       " ms"});
  out.add_row({"full re-run", format_double(1000.0 * plain_s, 1) + " ms"});
  out.add_row({"restore / re-run", format_double(restore_ratio, 3) + "x"});
  out.print(std::cout);
  std::printf("\nbundles byte-identical across plain, checkpointed and "
              "resumed runs (%u threads, %zu weeks, %zu checkpoints)\n",
              hw, static_cast<std::size_t>(env.config.weeks),
              checkpoints_written);

  const std::string json_path = args.get("out", "BENCH_checkpoint.json");
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"scale\": " << env.config.scale << ",\n"
       << "  \"weeks\": " << env.config.weeks << ",\n"
       << "  \"churn\": " << churn << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"threads\": " << hw << ",\n"
       << "  \"rows_total\": " << total_rows << ",\n"
       << "  \"identical_bundles\": true,\n"
       << "  \"plain_week_ms\": " << 1000.0 * plain_s / dweeks << ",\n"
       << "  \"checkpoint_week_ms\": " << 1000.0 * ckpt_s / dweeks << ",\n"
       << "  \"write_overhead_frac\": " << write_overhead << ",\n"
       << "  \"checkpoint_bytes\": " << ckpt_bytes << ",\n"
       << "  \"restore_ms\": " << 1000.0 * restore_s << ",\n"
       << "  \"full_rerun_ms\": " << 1000.0 * plain_s << ",\n"
       << "  \"restore_over_rerun\": " << restore_ratio << "\n"
       << "}\n";
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  fs::remove_all(work);
  return 0;
}
