// Ablation: the .scol columnar format's per-encoding contribution —
// mirrors the paper's PSV -> Parquet conversion claim (119 GB -> 28 GB,
// ~4x) by toggling each encoding knob and measuring footprint and
// decode throughput on a real generated snapshot.
#include <chrono>
#include <sstream>

#include "bench_common.h"
#include "snapshot/psv.h"
#include "snapshot/scol.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace spider;
  auto env = bench::BenchEnv::from_args(argc, argv, /*default_scale=*/2e-4);
  env.config.weeks = 12;  // one snapshot is enough; grab a mid-study week
  env.generator = std::make_unique<FacilityGenerator>(env.config);
  env.print_header("Ablation — .scol columnar encodings",
                   "paper: PSV->Parquet shrank 119 GB/day to 28 GB (~4.3x) "
                   "and sped up every scan");

  // Take the last emitted snapshot.
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

  std::ostringstream psv;
  const std::uint64_t psv_bytes = write_psv(table, psv);
  std::printf("snapshot: %zu rows; PSV size %s bytes\n\n", table.size(),
              format_with_commas(psv_bytes).c_str());

  struct Case {
    const char* name;
    ScolOptions options;
  };
  const Case cases[] = {
      {"all encodings on (default)", {}},
      {"no path front-coding", {.front_code_paths = false}},
      {"no timestamp deltas", {.delta_timestamps = false}},
      {"no id RLE", {.rle_ids = false}},
      {"no inode deltas", {.delta_inodes = false}},
      {"everything off (plain)",
       {.front_code_paths = false, .delta_timestamps = false,
        .rle_ids = false, .delta_inodes = false}},
  };

  AsciiTable t({"configuration", "bytes", "vs PSV", "paths", "timestamps",
                "ids", "inode", "ost", "decode ms"});
  for (const Case& c : cases) {
    const auto image = encode_scol(table, c.options);
    const ScolColumnSizes sizes = scol_column_sizes(table, c.options);

    const auto start = std::chrono::steady_clock::now();
    SnapshotTable decoded;
    const Status s = decode_scol(image, &decoded, ScolOptions{});
    if (!s.ok()) {
      std::fprintf(stderr, "decode failed: %s\n", s.to_string().c_str());
      return 1;
    }
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();

    t.add_row({c.name, format_with_commas(image.size()),
               format_double(static_cast<double>(psv_bytes) /
                                 static_cast<double>(image.size()),
                             2) + "x",
               format_count(static_cast<double>(sizes.paths)),
               format_count(static_cast<double>(sizes.atime + sizes.ctime +
                                                sizes.mtime)),
               format_count(static_cast<double>(sizes.uid + sizes.gid +
                                                sizes.mode)),
               format_count(static_cast<double>(sizes.inode)),
               format_count(static_cast<double>(sizes.ost)),
               format_double(ms, 1)});
  }
  t.print(std::cout);
  std::cout << "\nThe default configuration should sit in the paper's ~4x "
               "reduction neighbourhood vs PSV.\n";
  return 0;
}
