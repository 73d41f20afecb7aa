// Out-of-core scaling harness (DESIGN.md §15): at each requested scale,
// generate a snapshot series straight to .scol via the streaming writer
// (never materializing a snapshot table), then run the full study twice —
// resident (streaming=false, the bit-identical reference) and out-of-core
// under a memory budget of one quarter of the resident run's peak RSS —
// and record rows/s plus max-RSS for both.
//
// Every measured phase runs in a fork()ed child so VmHWM (from
// /proc/self/status) reflects that phase alone: the parent never decodes
// a snapshot and never starts a thread pool. The harness self-checks that
// the streamed and resident bundles are byte-identical and exits nonzero
// when they are not.
//
// At scales whose resident reference cannot fit the machine — the whole
// reason the streaming path exists — the reference is skipped: its peak
// is projected from the last measured scale's per-row peak (resident
// footprint is proportional to the largest week), the budget derives
// from the projection, and the JSON row says resident_measured: false.
// Bundle identity at those scales rests on the smaller measured scales
// plus the parity test suite.
//
// Emits BENCH_scale.json: one row per scale with resident/streaming
// seconds, rows/s, peak-RSS kB, the derived budget, and the peak ratio.
//
// Flags: --scales=0.01,0.1 (default), --weeks=<n> (default 8),
// --seed=<n>, --threads=<n> (default hw), --out=<path>.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "snapshot/scol.h"
#include "snapshot/series.h"
#include "study/full_study.h"
#include "synth/generator.h"
#include "util/cli.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/table.h"

namespace {

using namespace spider;
namespace fs = std::filesystem;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Peak resident set of this process, in kB, from /proc/self/status.
std::uint64_t vm_hwm_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

std::string render_bundle(const FullStudy& study) {
  std::string out;
  out += study.render_table1();
  out += study.render_data_quality();
  out += study.user_profile.render();
  out += study.participation.render();
  out += study.census.render();
  out += study.extensions.render();
  out += study.languages.render();
  out += study.access_patterns.render();
  out += study.striping.render();
  out += study.growth.render();
  out += study.file_age.render();
  out += study.burstiness.render();
  out += study.network.render();
  out += study.collaboration.render();
  return out;
}

struct RunStats {
  bool ok = false;
  double seconds = 0;
  std::uint64_t peak_kb = 0;
  std::uint64_t bundle_hash = 0;
  std::uint64_t bundle_len = 0;
};

/// Forks, runs `fn` in the child (which appends its numbers to
/// `stats_path`), and parses the result. A nonzero child exit or a
/// missing stats file reports !ok.
template <typename Fn>
RunStats run_in_child(const std::string& stats_path, Fn&& fn) {
  std::error_code ec;
  fs::remove(stats_path, ec);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return {};
  }
  if (pid == 0) {
    const int rc = fn(stats_path);
    std::_Exit(rc);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return {};
  }
  std::ifstream in(stats_path);
  if (!in) return {};
  RunStats stats;
  in >> stats.seconds >> stats.peak_kb >> stats.bundle_hash >>
      stats.bundle_len;
  stats.ok = static_cast<bool>(in);
  return stats;
}

/// The child-side study measurement: open the on-disk series, run the
/// full study (resident when budget == 0, out-of-core otherwise), and
/// record elapsed seconds / peak RSS / bundle fingerprint.
int measure_study(const std::string& stats_path, const std::string& series_dir,
                  const FacilityConfig& config, std::size_t burst_min,
                  unsigned threads, std::size_t budget) {
  DirectorySeries series;
  const Status opened = series.open(series_dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n", opened.to_string().c_str());
    return 1;
  }
  FacilityGenerator generator(config);  // only for the resolver's plan
  Resolver resolver(generator.plan());
  ThreadPool pool(threads);
  FullStudy study(resolver, burst_min);
  StudyOptions options;
  options.pool = &pool;
  options.memory_budget = budget;
  const auto start = std::chrono::steady_clock::now();
  study.run(series, options);
  const double elapsed = seconds_since(start);
  const std::string bundle = render_bundle(study);
  std::ofstream out(stats_path);
  out << elapsed << " " << vm_hwm_kb() << " "
      << hash_bytes(std::string_view(bundle)) << " " << bundle.size() << "\n";
  return out ? 0 : 1;
}

struct ScalePoint {
  double scale = 0;
  std::uint64_t rows_total = 0;
  std::uint64_t max_week_rows = 0;
  RunStats resident;
  bool resident_measured = false;  // else resident.peak_kb is projected
  RunStats streaming;
  std::size_t budget = 0;
  bool identical = false;
};

/// MemAvailable in kB, the guard against launching a resident reference
/// the container cannot hold. 0 when /proc is unreadable (no guard).
std::uint64_t mem_available_kb() {
  std::ifstream in("/proc/meminfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("MemAvailable:", 0) == 0) {
      return std::strtoull(line.c_str() + 13, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  FacilityConfig config;
  config.weeks = static_cast<std::size_t>(args.get_int("weeks", 8));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 20150105));
  config.maintenance_gaps = !args.get_bool("no-gaps", false);

  std::vector<double> scales;
  {
    std::stringstream ss(args.get("scales", "0.01,0.1"));
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (!tok.empty()) scales.push_back(std::strtod(tok.c_str(), nullptr));
    }
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = static_cast<unsigned>(
      args.get_int("threads", static_cast<std::int64_t>(hw)));

  const fs::path work = fs::temp_directory_path() /
                        ("spider-bench-scale-" + std::to_string(getpid()));
  fs::create_directories(work);
  const std::string stats_path = (work / "stats.txt").string();

  std::printf("== Out-of-core scaling — resident vs streaming full study ==\n");
  std::printf("weeks=%zu seed=%llu threads=%u; budget = resident peak / 4\n\n",
              config.weeks, static_cast<unsigned long long>(config.seed),
              threads);

  std::vector<ScalePoint> points;
  int rc = 0;
  for (const double scale : scales) {
    config.scale = scale;
    const double scaled_burst = 100.0 * scale;
    const std::size_t burst_min =
        static_cast<std::size_t>(scaled_burst < 10.0 ? 10.0 : scaled_burst);
    const std::string series_dir =
        (work / ("series_" + std::to_string(points.size()))).string();

    // Phase 1 (child): generate the series group-at-a-time. The streamed
    // writer is what makes the large scales producible here at all.
    const RunStats gen = run_in_child(stats_path, [&](const std::string& sp) {
      FacilityGenerator generator(config);
      const auto start = std::chrono::steady_clock::now();
      const Status s = save_series_streamed(generator, series_dir);
      if (!s.ok()) {
        std::fprintf(stderr, "generate failed: %s\n", s.to_string().c_str());
        return 1;
      }
      std::ofstream out(sp);
      out << seconds_since(start) << " " << vm_hwm_kb() << " 0 0\n";
      return out ? 0 : 1;
    });
    if (!gen.ok) {
      std::fprintf(stderr, "FAIL: generation at scale %g\n", scale);
      rc = 1;
      break;
    }

    // Row counts come from the group directories alone — no decode.
    std::uint64_t rows_total = 0, max_week_rows = 0;
    {
      DirectorySeries listing;
      const Status opened = listing.open(series_dir);
      if (!opened.ok()) {
        std::fprintf(stderr, "FAIL: %s\n", opened.to_string().c_str());
        rc = 1;
        break;
      }
      for (const std::string& file : listing.files()) {
        ScolGroupReader reader;
        if (reader.open(file).ok()) {
          rows_total += reader.rows();
          max_week_rows = std::max(max_week_rows, reader.rows());
        }
      }
    }

    ScalePoint point;
    point.scale = scale;
    point.rows_total = rows_total;
    point.max_week_rows = max_week_rows;

    // The resident reference only runs when the container can plausibly
    // hold it: its peak is proportional to the largest week, so project
    // from the last measured scale's per-row peak and skip (budgeting
    // from the projection instead) when the projection exceeds what is
    // available. At scales this harness exists for, the resident path
    // NOT fitting is the expected outcome, not a failure.
    const std::uint64_t avail_kb = mem_available_kb();
    std::uint64_t projected_kb = 0;
    for (auto it = points.rbegin(); it != points.rend(); ++it) {
      if (it->resident_measured && it->max_week_rows > 0) {
        projected_kb = static_cast<std::uint64_t>(
            static_cast<double>(it->resident.peak_kb) /
            static_cast<double>(it->max_week_rows) *
            static_cast<double>(max_week_rows));
        break;
      }
    }
    const bool skip_resident = projected_kb > 0 && avail_kb > 0 &&
                               projected_kb > avail_kb * 8 / 10;
    if (skip_resident) {
      point.resident.ok = true;
      point.resident.peak_kb = projected_kb;
      point.resident_measured = false;
      std::printf(
          "scale %-7g: resident reference skipped — projected peak %s kB "
          "exceeds 80%% of available %s kB; budgeting from the projection\n",
          scale, format_with_commas(projected_kb).c_str(),
          format_with_commas(avail_kb).c_str());
    } else {
      point.resident = run_in_child(stats_path, [&](const std::string& sp) {
        return measure_study(sp, series_dir, config, burst_min, threads,
                             /*budget=*/0);
      });
      point.resident_measured = true;
      if (!point.resident.ok) {
        std::fprintf(stderr, "FAIL: resident study at scale %g\n", scale);
        rc = 1;
        break;
      }
    }
    point.budget =
        static_cast<std::size_t>(point.resident.peak_kb * 1024 / 4);
    point.streaming = run_in_child(stats_path, [&](const std::string& sp) {
      return measure_study(sp, series_dir, config, burst_min, threads,
                           point.budget);
    });
    if (!point.streaming.ok) {
      std::fprintf(stderr, "FAIL: streaming study at scale %g\n", scale);
      rc = 1;
      break;
    }
    point.identical =
        !point.resident_measured ||
        (point.resident.bundle_hash == point.streaming.bundle_hash &&
         point.resident.bundle_len == point.streaming.bundle_len);
    if (!point.identical) {
      std::fprintf(stderr,
                   "FAIL: streamed bundle differs from resident at scale %g\n",
                   scale);
      rc = 1;
    }
    if (point.resident_measured) {
      std::printf(
          "scale %-7g %s rows: resident %.2fs (%s rows/s, peak %s kB) | "
          "streaming under %s kB budget %.2fs (%s rows/s, peak %s kB)\n",
          scale, format_with_commas(rows_total).c_str(),
          point.resident.seconds,
          format_with_commas(static_cast<std::uint64_t>(
                                 rows_total /
                                 std::max(1e-9, point.resident.seconds)))
              .c_str(),
          format_with_commas(point.resident.peak_kb).c_str(),
          format_with_commas(point.budget / 1024).c_str(),
          point.streaming.seconds,
          format_with_commas(static_cast<std::uint64_t>(
                                 rows_total /
                                 std::max(1e-9, point.streaming.seconds)))
              .c_str(),
          format_with_commas(point.streaming.peak_kb).c_str());
    } else {
      std::printf(
          "scale %-7g %s rows: streaming under %s kB budget %.2fs "
          "(%s rows/s, peak %s kB)\n",
          scale, format_with_commas(rows_total).c_str(),
          format_with_commas(point.budget / 1024).c_str(),
          point.streaming.seconds,
          format_with_commas(static_cast<std::uint64_t>(
                                 rows_total /
                                 std::max(1e-9, point.streaming.seconds)))
              .c_str(),
          format_with_commas(point.streaming.peak_kb).c_str());
    }
    points.push_back(point);
    std::error_code ec;
    fs::remove_all(series_dir, ec);
    if (rc != 0) break;
  }

  if (rc == 0 && !points.empty()) {
    AsciiTable t({"scale", "rows", "resident rows/s", "streaming rows/s",
                  "resident peak kB", "streaming peak kB", "peak ratio"});
    for (const ScalePoint& p : points) {
      t.add_row(
          {format_double(p.scale, 6), format_with_commas(p.rows_total),
           p.resident_measured
               ? format_with_commas(static_cast<std::uint64_t>(
                     p.rows_total / std::max(1e-9, p.resident.seconds)))
               : "-",
           format_with_commas(static_cast<std::uint64_t>(
               p.rows_total / std::max(1e-9, p.streaming.seconds))),
           format_with_commas(p.resident.peak_kb) +
               (p.resident_measured ? "" : " (proj)"),
           format_with_commas(p.streaming.peak_kb),
           format_double(static_cast<double>(p.streaming.peak_kb) /
                             std::max<double>(1, p.resident.peak_kb),
                         2)});
    }
    std::printf("\n");
    t.print(std::cout);
    std::printf("\nbundles byte-identical at every measured scale\n");

    const std::string json_path = args.get("out", "BENCH_scale.json");
    std::ofstream json(json_path);
    json << "{\n"
         << "  \"weeks\": " << config.weeks << ",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"budget_fraction_of_resident_peak\": 0.25,\n"
         << "  \"identical_bundles\": true,\n"
         << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const ScalePoint& p = points[i];
      json << "    {\"scale\": " << p.scale
           << ", \"rows_total\": " << p.rows_total
           << ", \"max_week_rows\": " << p.max_week_rows
           << ", \"resident_measured\": "
           << (p.resident_measured ? "true" : "false");
      if (p.resident_measured) {
        json << ", \"resident_seconds\": " << p.resident.seconds
             << ", \"resident_rows_per_s\": "
             << p.rows_total / std::max(1e-9, p.resident.seconds);
      }
      json << ", \"resident_peak_rss_kb\": " << p.resident.peak_kb
           << ", \"memory_budget_bytes\": " << p.budget
           << ", \"streaming_seconds\": " << p.streaming.seconds
           << ", \"streaming_rows_per_s\": "
           << p.rows_total / std::max(1e-9, p.streaming.seconds)
           << ", \"streaming_peak_rss_kb\": " << p.streaming.peak_kb << "}"
           << (i + 1 < points.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    if (!json) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      rc = 1;
    } else {
      std::printf("wrote %s\n", json_path.c_str());
    }
  }

  std::error_code ec;
  fs::remove_all(work, ec);
  return rc;
}
