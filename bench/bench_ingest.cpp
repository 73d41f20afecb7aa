// Ingest throughput harness: the PSV -> table and .scol <-> table hot
// paths, single-threaded versus pooled, on one generated snapshot.
//
// The paper's pipeline hinged on the PSV -> Parquet conversion "speeding up
// every scan"; this harness tracks the reproduction's equivalent — parallel
// PSV parsing and the row-group .scol v2 codec — from PR 1 onward. Emits
// BENCH_ingest.json (alongside the human-readable table) so the perf
// trajectory is machine-diffable across PRs.
//
// Flags: --scale / --weeks / --seed (bench_common), --threads=<n> for the
// wide pool (default: hardware concurrency), --out=<path> for the JSON.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_common.h"
#include "snapshot/psv.h"
#include "snapshot/scol.h"
#include "util/parallel.h"
#include "util/table.h"

namespace {

using spider::SnapshotTable;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Best-of-three wall time for `fn`, which must be idempotent.
template <typename Fn>
double best_seconds(Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

bool tables_identical(const SnapshotTable& a, const SnapshotTable& b) {
  if (a.size() != b.size() || a.file_count() != b.file_count()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.path_hash(i) != b.path_hash(i) || a.inode(i) != b.inode(i) ||
        a.mtime(i) != b.mtime(i) || a.stripe_count(i) != b.stripe_count(i)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spider;
  const CliArgs args(argc, argv);
  auto env = bench::BenchEnv::from_args(argc, argv, /*default_scale=*/1e-3);
  env.config.weeks = 12;  // one snapshot is enough; grab a mid-study week
  env.generator = std::make_unique<FacilityGenerator>(env.config);
  env.print_header("Ingest throughput — PSV parse, .scol encode/decode",
                   "PSV->Parquet conversion sped up every scan");

  SnapshotTable table;
  env.generator->visit([&](std::size_t week, const Snapshot& snap) {
    if (week + 1 == env.generator->count()) {
      table.reserve(snap.table.size());
      for (std::size_t i = 0; i < snap.table.size(); ++i) {
        table.add(snap.table.path(i), snap.table.atime(i),
                  snap.table.ctime(i), snap.table.mtime(i), snap.table.uid(i),
                  snap.table.gid(i), snap.table.mode(i), snap.table.inode(i),
                  snap.table.osts(i));
      }
    }
  });

  ThreadPool one(1);
  const unsigned wide_threads = static_cast<unsigned>(
      args.get_int("threads", std::max(1u, std::thread::hardware_concurrency())));
  ThreadPool wide(wide_threads);

  std::ostringstream psv_stream;
  const std::uint64_t psv_bytes = write_psv(table, psv_stream);
  const std::string psv_text = psv_stream.str();
  const double rows = static_cast<double>(table.size());
  const double psv_mb = static_cast<double>(psv_bytes) / (1024.0 * 1024.0);
  std::printf("snapshot: %zu rows; PSV %s bytes; wide pool: %u threads\n\n",
              table.size(), format_with_commas(psv_bytes).c_str(),
              wide_threads);

  // --- PSV parse -----------------------------------------------------------
  SnapshotTable psv_serial_out;
  const double psv_serial_s = best_seconds([&] {
    SnapshotTable t;
    const Status s = read_psv_buffer(psv_text, &t, PsvOptions{}, nullptr, &one);
    if (!s.ok()) {
      std::fprintf(stderr, "psv parse failed: %s\n", s.to_string().c_str());
      std::exit(1);
    }
    psv_serial_out = std::move(t);
  });
  SnapshotTable psv_wide_out;
  const double psv_wide_s = best_seconds([&] {
    SnapshotTable t;
    const Status s =
        read_psv_buffer(psv_text, &t, PsvOptions{}, nullptr, &wide);
    if (!s.ok()) {
      std::fprintf(stderr, "psv parse failed: %s\n", s.to_string().c_str());
      std::exit(1);
    }
    psv_wide_out = std::move(t);
  });
  if (!tables_identical(psv_serial_out, psv_wide_out) ||
      !tables_identical(psv_serial_out, table)) {
    std::fprintf(stderr, "parallel PSV parse diverged from serial result\n");
    return 1;
  }

  // --- .scol encode / decode ----------------------------------------------
  const ScolOptions options;
  std::vector<std::uint8_t> image;
  const double enc_serial_s =
      best_seconds([&] { image = encode_scol(table, options, &one); });
  std::vector<std::uint8_t> image_wide;
  const double enc_wide_s =
      best_seconds([&] { image_wide = encode_scol(table, options, &wide); });
  if (image != image_wide) {
    std::fprintf(stderr, "parallel encode diverged from serial image\n");
    return 1;
  }

  SnapshotTable dec_serial_out;
  const double dec_serial_s = best_seconds([&] {
    SnapshotTable t;
    const Status s = decode_scol(image, &t, ScolOptions{}, nullptr, &one);
    if (!s.ok()) {
      std::fprintf(stderr, "decode failed: %s\n", s.to_string().c_str());
      std::exit(1);
    }
    dec_serial_out = std::move(t);
  });
  SnapshotTable dec_wide_out;
  const double dec_wide_s = best_seconds([&] {
    SnapshotTable t;
    const Status s = decode_scol(image, &t, ScolOptions{}, nullptr, &wide);
    if (!s.ok()) {
      std::fprintf(stderr, "decode failed: %s\n", s.to_string().c_str());
      std::exit(1);
    }
    dec_wide_out = std::move(t);
  });
  if (!tables_identical(dec_serial_out, dec_wide_out) ||
      !tables_identical(dec_serial_out, table)) {
    std::fprintf(stderr, "parallel decode diverged from serial result\n");
    return 1;
  }

  AsciiTable out({"stage", "1 thread", std::to_string(wide_threads) + " threads",
                  "speedup", "unit"});
  const auto row = [&](const char* stage, double serial_s, double wide_s,
                       double quantity, const char* unit) {
    out.add_row({stage, format_count(quantity / serial_s),
                 format_count(quantity / wide_s),
                 format_double(serial_s / wide_s, 2) + "x", unit});
  };
  row("psv parse", psv_serial_s, psv_wide_s, psv_mb, "MB/s");
  row("scol encode", enc_serial_s, enc_wide_s, rows, "rows/s");
  row("scol decode", dec_serial_s, dec_wide_s, rows, "rows/s");
  out.print(std::cout);
  std::printf("\nscol image: %s bytes (%.2fx vs PSV)\n",
              format_with_commas(image.size()).c_str(),
              static_cast<double>(psv_bytes) /
                  static_cast<double>(image.size()));

  const std::string json_path = args.get("out", "BENCH_ingest.json");
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"rows\": " << table.size() << ",\n"
       << "  \"psv_bytes\": " << psv_bytes << ",\n"
       << "  \"scol_bytes\": " << image.size() << ",\n"
       << "  \"threads_wide\": " << wide_threads << ",\n"
       << "  \"psv_parse_mb_per_s_1t\": " << psv_mb / psv_serial_s << ",\n"
       << "  \"psv_parse_mb_per_s_nt\": " << psv_mb / psv_wide_s << ",\n"
       << "  \"psv_parse_speedup\": " << psv_serial_s / psv_wide_s << ",\n"
       << "  \"scol_encode_rows_per_s_1t\": " << rows / enc_serial_s << ",\n"
       << "  \"scol_encode_rows_per_s_nt\": " << rows / enc_wide_s << ",\n"
       << "  \"scol_encode_speedup\": " << enc_serial_s / enc_wide_s << ",\n"
       << "  \"scol_decode_rows_per_s_1t\": " << rows / dec_serial_s << ",\n"
       << "  \"scol_decode_rows_per_s_nt\": " << rows / dec_wide_s << ",\n"
       << "  \"scol_decode_speedup\": " << dec_serial_s / dec_wide_s << "\n"
       << "}\n";
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
