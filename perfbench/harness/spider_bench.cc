// spider_bench: the measuring half of the benchmark (perfbench/run.py is
// the other). It sees only a directory of generated .scol snapshots and
// prints one JSON object on stdout.
//
//   spider_bench generate --dir=D --seed=N --scale=X --weeks=W
//       Writes the series with save_series_streamed; reports per-file rows
//       and the maintenance-gap slots the generator planned.
//   spider_bench study --dir=D --mode=M --threads=T --seconds=S --out=O
//       Repeats "analyze a snapshot series" (open, infer_facility,
//       Resolver, FullStudy::run, render the bundle) in a forked child per
//       repetition until S seconds are spent; reports each repetition.
//   spider_bench layers --dir=D --mode=M --threads=T --out=O [--meta=JSON]
//       One untraced and one traced repetition, then the per-layer suite
//       timed around each module's public calls; writes trace-event JSON.
//
// Modes: resident_full, budget_stream, weekly_checkpoint, and reference
// (one thread, no prefetch, resident scan: the digest reference).
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/spill.h"
#include "measure.h"
#include "study/full_study.h"
#include "synth/generator.h"
#include "synth/infer.h"
#include "trace.h"
#include "util/cli.h"
#include "util/timeutil.h"

namespace {

namespace fs = std::filesystem;
using perfbench::now_s;
using perfbench::SpanRecorder;

/// Budget of the budget_stream workload: small enough that the larger
/// weeks of the benchmark series stream and spill.
constexpr std::size_t kStreamBudget = 64u << 20;

/// analyze_series' default --min-burst-files.
constexpr std::size_t kBurstMinFiles = 10;

/// Columns the runner's diff reads (study/runner.cc kDiffColumns).
constexpr spider::ColumnMask kDiffColumns =
    spider::kColMaskPaths | spider::kColMaskAtime | spider::kColMaskCtime |
    spider::kColMaskMtime | spider::kColMaskMode;

/// The runner's spill-size estimate (study/runner.cc kSpillBytesPerRow).
constexpr std::size_t kSpillBytesPerRow = 96;

struct Args {
  std::string dir;
  std::string mode;
  std::string out;
  std::string meta;
  unsigned threads = 1;
  double seconds = 10;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Builds one flat JSON object: {"k": v, ...}.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + json_string(key) + ": " + json;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// The study options a workload runs with.
spider::StudyOptions options_for(const Args& a, spider::ThreadPool* pool) {
  spider::StudyOptions options;
  options.pool = pool;
  if (a.mode == "budget_stream") {
    options.memory_budget = kStreamBudget;
  } else if (a.mode == "weekly_checkpoint") {
    options.incremental = true;
    options.checkpoint.path = (fs::path(a.out) / "bench.sckpt").string();
    options.checkpoint.every = 1;
    options.checkpoint.resume = false;
  } else if (a.mode == "reference") {
    options.prefetch = false;
  }
  return options;
}

unsigned threads_for(const Args& a) {
  return a.mode == "reference" ? 1u : a.threads;
}

/// The rendered study: every report analyze_series prints, in order.
std::string render_bundle(const spider::FullStudy& study) {
  std::string bundle;
  for (const std::string& part :
       {study.render_table1(), study.user_profile.render(),
        study.participation.render(), study.census.render(),
        study.extensions.render(), study.languages.render(),
        study.access_patterns.render(), study.striping.render(),
        study.growth.render(), study.file_age.render(),
        study.burstiness.render(), study.network.render(),
        study.collaboration.render(), study.render_data_quality()}) {
    bundle += part;
    bundle += "\n";
  }
  return bundle;
}

bool write_text(const std::string& file, const std::string& text) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

std::uint64_t file_rows(const std::string& file) {
  spider::ScolGroupReader reader;
  return reader.open(file).ok() ? reader.rows() : 0;
}

std::uint64_t file_size(const std::string& file) {
  struct stat st {};
  return ::stat(file.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

std::string gaps_json(std::span<const spider::SeriesGap> gaps) {
  std::string out = "[";
  for (const spider::SeriesGap& gap : gaps) {
    if (out.size() > 1) out += ", ";
    out += JsonObject()
               .num("week", static_cast<double>(gap.week))
               .str("file", fs::path(gap.file).filename().string())
               .str("status", gap.status.to_string())
               .done();
  }
  return out + "]";
}

/// Rows of the files the study actually analyzed (files that became gaps
/// delivered nothing).
std::uint64_t delivered_rows(const spider::DirectorySeries& series,
                             std::span<const spider::SeriesGap> gaps) {
  std::set<std::string> failed;
  for (const spider::SeriesGap& gap : gaps) failed.insert(gap.file);
  std::uint64_t rows = 0;
  for (const std::string& file : series.files()) {
    if (!failed.count(file)) rows += file_rows(file);
  }
  return rows;
}

/// Called after a traced repetition with its open series and resolver.
using AfterStudy = std::function<void(const spider::DirectorySeries&,
                                      const spider::Resolver&)>;

/// One repetition of the end-to-end path. Returns its JSON record; with a
/// recorder, the calls are wrapped in spans.
std::string run_e2e(const Args& a, int rep, SpanRecorder* rec,
                    const AfterStudy& after = nullptr) {
  spider::ThreadPool pool(threads_for(a));
  const spider::StudyOptions options = options_for(a, &pool);
  if (!options.checkpoint.path.empty()) {
    std::error_code ec;
    fs::remove(options.checkpoint.path, ec);
  }
  const auto span = [rec](const char* name) {
    return rec ? rec->begin(name) : -1;
  };
  const auto end = [rec](int id) {
    if (rec) rec->end(id);
  };

  const double t0 = now_s();
  int id = span("snapshot.open");
  spider::DirectorySeries series;
  const spider::Status opened = series.open(a.dir);
  end(id);
  if (!opened.ok()) {
    return JsonObject().str("error", opened.to_string()).done();
  }
  const double t_open = now_s();
  id = span("synth.infer");
  spider::InferenceStats stats;
  const spider::FacilityPlan plan = spider::infer_facility(series, &stats);
  end(id);
  const double t_infer = now_s();
  id = span("study.resolver");
  const spider::Resolver resolver(plan);
  end(id);
  const double t_setup = now_s();
  const std::uint64_t setup_peak_kb = perfbench::peak_rss_kb();

  const bool reset = perfbench::reset_peak_rss();
  const std::uint64_t w0 = perfbench::written_bytes();
  const double c0 = perfbench::cpu_seconds();
  spider::FullStudy study(resolver, kBurstMinFiles);
  const double t_study = now_s();
  id = span("study.full_study");
  study.run(series, options);
  end(id);
  const double t_done = now_s();
  const double cpu_s = perfbench::cpu_seconds() - c0;
  const std::uint64_t study_written = perfbench::written_bytes() - w0;
  const std::string bundle_file =
      (fs::path(a.out) / ("bundle-" + std::to_string(rep) + ".txt")).string();
  const bool wrote = write_text(bundle_file, render_bundle(study));
  const std::uint64_t written = perfbench::written_bytes() - w0;
  const std::uint64_t study_peak_kb = perfbench::peak_rss_kb();
  if (after) after(series, resolver);

  return JsonObject()
      .num("open_s", t_open - t0)
      .num("infer_s", t_infer - t_open)
      .num("setup_s", t_setup - t0)
      .num("study_s", t_done - t_study)
      .num("cpu_s", cpu_s)
      .num("threads", pool.size())
      .num("rows", static_cast<double>(delivered_rows(series, study.gaps())))
      .num("weeks", static_cast<double>(series.count()))
      .num("peak_rss_kb",
           static_cast<double>(std::max(setup_peak_kb, study_peak_kb)))
      .num("study_peak_rss_kb", static_cast<double>(study_peak_kb))
      .num("peak_reset", reset ? 1 : 0)
      .num("study_written_bytes", static_cast<double>(study_written))
      .num("written_bytes", static_cast<double>(written))
      .num("users", static_cast<double>(stats.users))
      .str("bundle", wrote ? bundle_file : "")
      .raw("gaps", gaps_json(study.gaps()))
      .done();
}

int cmd_generate(const spider::CliArgs& args) {
  spider::FacilityConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.scale = args.get_double("scale", 2e-4);
  config.weeks = static_cast<std::size_t>(args.get_int("weeks", 12));
  const std::string dir = args.get("dir", "");
  spider::FacilityGenerator generator(config);
  const spider::Status s = spider::save_series_streamed(generator, dir);
  if (!s.ok()) {
    std::fprintf(stderr, "generate failed: %s\n", s.to_string().c_str());
    return 1;
  }
  // A directory series numbers slots from its first file, and a gap is
  // visible only between two collected weeks.
  const std::vector<std::size_t> gap_weeks =
      spider::FacilityGenerator::gap_weeks(config);
  std::size_t first = 0;
  while (std::count(gap_weeks.begin(), gap_weeks.end(), first)) ++first;
  std::size_t last = config.weeks - 1;
  while (last > first && std::count(gap_weeks.begin(), gap_weeks.end(), last)) {
    --last;
  }
  std::string planned = "[";
  for (const std::size_t w : gap_weeks) {
    if (w <= first || w >= last) continue;
    if (planned.size() > 1) planned += ", ";
    planned += std::to_string(w - first);
  }
  planned += "]";
  spider::DirectorySeries series;
  if (!series.open(dir).ok()) return 1;
  std::string files = "[";
  for (const std::string& file : series.files()) {
    if (files.size() > 1) files += ", ";
    files += JsonObject()
                 .str("name", fs::path(file).filename().string())
                 .num("rows", static_cast<double>(file_rows(file)))
                 .num("bytes", static_cast<double>(file_size(file)))
                 .done();
  }
  files += "]";
  std::printf("%s\n",
              JsonObject().raw("files", files).raw("planned_gaps", planned)
                  .done().c_str());
  return 0;
}

int cmd_study(const Args& a) {
  // Repeats while another repetition of average length still fits.
  std::string reps;
  const double start = now_s();
  for (int rep = 0;; ++rep) {
    const perfbench::ChildResult child =
        perfbench::run_in_child([&] { return run_e2e(a, rep, nullptr); });
    if (!child.ok) {
      std::fprintf(stderr, "repetition %d failed (exit %d)\n", rep,
                   child.exit_code);
      return 1;
    }
    reps += (reps.empty() ? "" : ", ") + child.payload;
    const double elapsed = now_s() - start;
    if (elapsed + elapsed / (rep + 1) > a.seconds) break;
  }
  std::printf("{\"reps\": [%s], \"elapsed_s\": %s}\n", reps.c_str(),
              json_number(now_s() - start).c_str());
  return 0;
}

/// One decoded week of the per-layer suite.
struct Week {
  std::size_t slot = 0;
  spider::Snapshot snap;
};

/// Decodes every collected week with read_scol_file under `columns`.
std::vector<Week> decode_weeks(const spider::DirectorySeries& series,
                               spider::ColumnMask columns,
                               SpanRecorder& rec) {
  std::set<std::size_t> gap_slots;
  for (const spider::SeriesGap& gap : series.gaps()) gap_slots.insert(gap.week);
  spider::ScolOptions options;
  options.columns = columns;
  std::vector<Week> weeks;
  std::size_t slot = 0;
  for (const std::string& file : series.files()) {
    while (gap_slots.count(slot)) ++slot;
    Week week;
    week.slot = slot++;
    const std::string name = fs::path(file).filename().string();
    spider::CivilDate date;
    date.year = std::stoi(name.substr(5, 4));
    date.month = static_cast<unsigned>(std::stoi(name.substr(9, 2)));
    date.day = static_cast<unsigned>(std::stoi(name.substr(11, 2)));
    week.snap.taken_at = spider::epoch_from_civil(date);
    SpanRecorder::Scope scope(rec, "snapshot.decode");
    if (!spider::read_scol_file(file, &week.snap.table, options).ok()) {
      continue;
    }
    weeks.push_back(std::move(week));
  }
  return weeks;
}

/// The decoded weeks as an in-memory series with the same slot timeline.
spider::SnapshotSeries memory_series(std::vector<Week>& weeks,
                                     std::span<const spider::SeriesGap> gaps) {
  spider::SnapshotSeries series;
  std::size_t next = 0;
  for (Week& week : weeks) {
    for (; next < week.slot; ++next) {
      const auto it = std::find_if(gaps.begin(), gaps.end(), [&](const auto& g) {
        return g.week == next;
      });
      series.add_gap(it == gaps.end() ? 0 : it->taken_at,
                     spider::Status::not_found("no snapshot collected"));
    }
    series.add(std::move(week.snap));
    ++next;
  }
  return series;
}

/// The per-layer suite. Runs after the traced end-to-end repetition in the
/// same child and adds its metrics to `m`.
void layer_suite(const Args& a, const spider::Resolver& resolver,
                 const spider::DirectorySeries& series, SpanRecorder& rec,
                 std::map<std::string, double>& m) {
  spider::ThreadPool pool(a.threads);
  spider::StudyOptions scan;
  scan.pool = &pool;
  const bool incremental = a.mode == "weekly_checkpoint";

  // snapshot: whole-file decode under the study's union projection.
  spider::FullStudy roster(resolver, kBurstMinFiles);
  const spider::ColumnMask columns =
      kDiffColumns | roster.user_profile.columns_needed() |
      roster.participation.columns_needed() | roster.census.columns_needed() |
      roster.extensions.columns_needed() | roster.languages.columns_needed() |
      roster.access_patterns.columns_needed() |
      roster.striping.columns_needed() | roster.growth.columns_needed() |
      roster.file_age.columns_needed() | roster.burstiness.columns_needed();
  std::vector<Week> weeks = decode_weeks(series, columns, rec);
  std::uint64_t rows = 0, bytes = 0;
  for (const Week& w : weeks) rows += w.snap.table.size();
  for (const std::string& f : series.files()) bytes += file_size(f);
  m["snapshot.decode_s"] = rec.total_s("snapshot.decode");
  m["snapshot.decode_rows_per_s"] =
      static_cast<double>(rows) / m["snapshot.decode_s"];
  m["snapshot.file_bytes_per_row"] =
      static_cast<double>(bytes) / static_cast<double>(rows);

  // snapshot: group-at-a-time decode, as streamed weeks are read.
  {
    spider::ScolOptions options;
    options.columns = columns;
    spider::SnapshotTable staging;
    for (const std::string& file : series.files()) {
      spider::ScolGroupReader reader;
      if (!reader.open(file, options).ok()) continue;
      for (std::size_t g = 0; g < reader.group_count(); ++g) {
        staging.clear();
        SpanRecorder::Scope scope(rec, "snapshot.group_decode");
        (void)reader.decode_group(g, &staging);
      }
    }
  }
  m["snapshot.group_decode_s"] = rec.total_s("snapshot.group_decode");

  // engine: the partitioned diff on each adjacent pair with no gap between.
  spider::DiffOptions diff_options;
  diff_options.prev_rows = incremental;
  diff_options.dirs = incremental;
  spider::DiffBreakdown sum;
  for (std::size_t i = 1; i < weeks.size(); ++i) {
    if (weeks[i].slot != weeks[i - 1].slot + 1) continue;
    spider::DiffBreakdown bd;
    SpanRecorder::Scope scope(rec, "engine.diff");
    (void)spider::diff_snapshots_partitioned(weeks[i - 1].snap.table,
                                             weeks[i].snap.table, &pool, &bd,
                                             diff_options);
    sum.build_s += bd.build_s;
    sum.probe_s += bd.probe_s;
    sum.sweep_s += bd.sweep_s;
  }
  m["engine.index_build_s"] = sum.build_s;
  m["engine.diff_probe_s"] = sum.probe_s;
  m["engine.diff_sweep_s"] = sum.sweep_s;

  // engine: the spill join, at the fan-out the runner picks for the budget.
  m["engine.spill_write_s"] = 0;
  m["engine.spill_join_s"] = 0;
  m["engine.spill_bytes_per_row"] = 0;
  if (a.mode == "budget_stream" && !weeks.empty()) {
    const fs::path dir =
        fs::temp_directory_path() /
        ("perfbench-spill-" + std::to_string(::getpid()));
    std::error_code ec;
    fs::create_directories(dir, ec);
    const std::uint32_t bits = spider::spill_bits_for(
        weeks.front().snap.table.size(), kSpillBytesPerRow, kStreamBudget / 4);
    std::uint64_t spilled_bytes = 0, spilled_rows = 0;
    spider::SpilledSide prev;
    bool have_prev = false;
    for (std::size_t i = 0; i < weeks.size(); ++i) {
      spider::SpillPartitionWriter writer;
      spider::SpillPartitionWriter::Options wopts;
      wopts.dir = dir.string();
      wopts.stem = "w" + std::to_string(weeks[i].slot);
      wopts.bits = bits;
      {
        SpanRecorder::Scope scope(rec, "engine.spill_write");
        if (!writer.open(wopts).ok() ||
            !writer.add_table(weeks[i].snap.table).ok() ||
            !writer.finish().ok()) {
          continue;
        }
      }
      spider::SpilledSide cur = writer.side();
      for (const std::string& f : cur.files) spilled_bytes += file_size(f);
      spilled_rows += weeks[i].snap.table.size();
      if (have_prev && weeks[i].slot == weeks[i - 1].slot + 1) {
        spider::DiffResult result;
        SpanRecorder::Scope scope(rec, "engine.spill_join");
        (void)spider::spill_diff_join(prev, cur, diff_options, &result);
      }
      for (const std::string& f : prev.files) {
        std::error_code ec;
        fs::remove(f, ec);
      }
      prev = std::move(cur);
      have_prev = true;
    }
    fs::remove_all(dir, ec);
    m["engine.spill_write_s"] = rec.total_s("engine.spill_write");
    m["engine.spill_join_s"] = rec.total_s("engine.spill_join");
    m["engine.spill_bytes_per_row"] =
        static_cast<double>(spilled_bytes) / static_cast<double>(spilled_rows);
  }

  // study: the runner alone, then each analyzer alone, over decoded weeks.
  // Each figure is the median of three runs over fresh analyzers.
  spider::SnapshotSeries memory = memory_series(weeks, series.gaps());
  using Roster = std::vector<spider::StudyAnalyzer*>;
  const auto timed = [&](const std::string& name, const auto& make) {
    std::vector<double> runs;
    for (int i = 0; i < 3; ++i) {
      make([&](const Roster& roster) {
        SpanRecorder::Scope scope(rec, name);
        spider::run_study(memory, roster, scan);
        runs.push_back(scope.close());
      });
    }
    std::sort(runs.begin(), runs.end());
    return runs[1];
  };
  using Run = std::function<void(const Roster&)>;
  m["study.runner_s"] = timed("study.runner", [](const Run& run) { run({}); });
  m["study.user_profile_s"] = timed("study.user_profile", [&](const Run& run) {
    spider::UserProfileAnalyzer x(resolver);
    run({&x});
  });
  m["study.participation_s"] =
      timed("study.participation", [&](const Run& run) {
        spider::ParticipationAnalyzer x(resolver);
        run({&x});
      });
  m["study.census_s"] = timed("study.census", [&](const Run& run) {
    spider::CensusAnalyzer x(resolver);
    run({&x});
  });
  m["study.extensions_s"] = timed("study.extensions", [&](const Run& run) {
    spider::ExtensionsAnalyzer x(resolver);
    run({&x});
  });
  m["study.languages_s"] = timed("study.languages", [&](const Run& run) {
    spider::LanguagesAnalyzer x(resolver);
    run({&x});
  });
  m["study.access_patterns_s"] =
      timed("study.access_patterns", [&](const Run& run) {
        spider::AccessPatternsAnalyzer x;
        run({&x});
      });
  m["study.striping_s"] = timed("study.striping", [&](const Run& run) {
    spider::StripingAnalyzer x(resolver);
    run({&x});
  });
  m["study.growth_s"] = timed("study.growth", [&](const Run& run) {
    spider::GrowthAnalyzer x;
    run({&x});
  });
  m["study.file_age_s"] = timed("study.file_age", [&](const Run& run) {
    spider::FileAgeAnalyzer x;
    run({&x});
  });
  m["study.burstiness_s"] = timed("study.burstiness", [&](const Run& run) {
    spider::BurstinessAnalyzer x(resolver, kBurstMinFiles);
    run({&x});
  });
  // network and collaboration post-process participation's membership in
  // finish(); alone, collaboration crashes. Run each behind participation
  // and report it net of participation alone.
  m["study.network_s"] = std::max(
      0.0, timed("study.participation+network",
                 [&](const Run& run) {
                   spider::ParticipationAnalyzer p(resolver);
                   spider::NetworkAnalyzer x(resolver, p);
                   run({&p, &x});
                 }) -
               m["study.participation_s"]);
  m["study.collaboration_s"] = std::max(
      0.0, timed("study.participation+collaboration",
                 [&](const Run& run) {
                   spider::ParticipationAnalyzer p(resolver);
                   spider::CollaborationAnalyzer x(resolver, p);
                   run({&p, &x});
                 }) -
               m["study.participation_s"]);
  weeks.clear();
  memory = spider::SnapshotSeries();

  // study: incremental against scan over the directory, and what the
  // weekly checkpoint adds on top of the incremental run.
  m["study.incremental_over_scan"] = 0;
  m["study.checkpoint_write_s"] = 0;
  if (incremental) {
    spider::DirectorySeries dir_series;
    (void)dir_series.open(a.dir);
    spider::StudyOptions inc = scan;
    inc.incremental = true;
    // Two of each, alternating, so drift hits both sides alike.
    double scan_s = 0, inc_s = 0;
    for (int i = 0; i < 2; ++i) {
      for (const bool delta : {false, true}) {
        spider::FullStudy study(resolver, kBurstMinFiles);
        SpanRecorder::Scope scope(
            rec, delta ? "study.incremental_study" : "study.scan_study");
        study.run(dir_series, delta ? inc : scan);
        (delta ? inc_s : scan_s) += scope.close() / 2;
      }
    }
    m["study.incremental_over_scan"] = inc_s / scan_s;
    m["study.checkpoint_write_s"] =
        std::max(0.0, rec.total_s("study.full_study") - inc_s);
  }
}

int cmd_layers(const Args& a) {
  // Untraced and traced repetitions alternate (untraced, traced + suite,
  // untraced, traced): the tracing-overhead comparison. A discarded
  // warm-up repetition goes first; the first child of a process often
  // runs slow.
  const auto untraced = [&](int rep) {
    return perfbench::run_in_child([&] { return run_e2e(a, rep, nullptr); });
  };
  const perfbench::ChildResult warmup = untraced(4);
  const perfbench::ChildResult plain1 = untraced(0);
  const std::string trace_file =
      (fs::path(a.out) / ("trace-" + a.mode + ".json")).string();
  const perfbench::ChildResult traced = perfbench::run_in_child([&] {
    SpanRecorder rec(1);
    std::map<std::string, double> m;
    const std::string e2e =
        run_e2e(a, 1, &rec, [&](const spider::DirectorySeries& series,
                                const spider::Resolver& resolver) {
          layer_suite(a, resolver, series, rec, m);
        });

    m["synth.infer_s"] = rec.total_s("synth.infer");
    m["snapshot.open_s"] = rec.total_s("snapshot.open");
    for (const auto& [layer, self] : rec.self_s_by_layer()) {
      m[layer + ".self_s"] = self;
    }
    JsonObject metrics;
    for (const auto& [name, value] : m) metrics.num(name, value);
    const std::string meta = JsonObject()
                                 .raw("run", a.meta.empty() ? "{}" : a.meta)
                                 .str("mode", a.mode)
                                 .num("threads", a.threads)
                                 .str("build_type", PERFBENCH_BUILD_TYPE)
                                 .raw("per_layer", metrics.done())
                                 .done();
    write_text(trace_file, rec.trace_event_json(meta));
    return JsonObject().raw("e2e", e2e).raw("metrics", metrics.done()).done();
  });
  const perfbench::ChildResult plain2 = untraced(2);
  const perfbench::ChildResult traced2 = perfbench::run_in_child([&] {
    SpanRecorder rec(2);
    return run_e2e(a, 3, &rec);
  });
  for (const perfbench::ChildResult* child :
       {&warmup, &plain1, &traced, &plain2, &traced2}) {
    if (!child->ok) {
      std::fprintf(stderr, "traced run failed (exit %d)\n", child->exit_code);
      return 1;
    }
  }
  std::printf(
      "{\"untraced\": [%s, %s], \"traced\": %s, \"traced_again\": %s, "
      "\"trace_file\": %s}\n",
      plain1.payload.c_str(), plain2.payload.c_str(), traced.payload.c_str(),
      traced2.payload.c_str(), json_string(trace_file).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const spider::CliArgs args(argc, argv);
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: spider_bench <generate|study|layers> --dir=D ...\n");
    return 2;
  }
  const std::string command = args.positional().front();
  if (command == "generate") return cmd_generate(args);
  Args a;
  a.dir = args.get("dir", "");
  a.mode = args.get("mode", "resident_full");
  a.out = args.get("out", ".");
  a.meta = args.get("meta", "");
  a.threads = static_cast<unsigned>(std::max<std::int64_t>(1, args.get_int("threads", 1)));
  a.seconds = args.get_double("seconds", 10);
  static const std::set<std::string> kModes = {
      "resident_full", "budget_stream", "weekly_checkpoint", "reference"};
  if (a.dir.empty() || !kModes.count(a.mode)) {
    std::fprintf(stderr, "bad --dir or --mode\n");
    return 2;
  }
  if (command == "study") return cmd_study(a);
  if (command == "layers") return cmd_layers(a);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}
