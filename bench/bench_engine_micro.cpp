// Engine microbenchmarks (google-benchmark): the analysis-framework side
// of the paper — format codecs, the diff join, distinct counting, and the
// graph kernels. Mirrors the paper's claim that the columnar conversion
// makes the pipeline "timely".
#include <benchmark/benchmark.h>

#include <sstream>

#include "engine/diff.h"
#include "engine/flat_map.h"
#include "engine/hash_index.h"
#include "graph/components.h"
#include "graph/metrics.h"
#include "snapshot/psv.h"
#include "snapshot/scol.h"
#include "synth/plan.h"
#include "util/parallel.h"
#include "util/prng.h"

namespace spider {
namespace {

/// Deterministic synthetic snapshot shared by the benchmarks.
const SnapshotTable& fixture_table() {
  static const SnapshotTable table = [] {
    Rng rng(99);
    SnapshotTable t;
    std::int64_t mtime = 1'420'416'000;
    for (std::size_t i = 0; i < 200'000; ++i) {
      RawRecord rec;
      const std::size_t proj = i / 500;
      rec.path = "/lustre/atlas2/proj" + std::to_string(proj) + "/u" +
                 std::to_string(proj % 9) + "/run" + std::to_string(i % 40) +
                 "/step." + std::to_string(i);
      mtime += static_cast<std::int64_t>(rng.uniform_u64(300));
      rec.mtime = rec.ctime = mtime;
      rec.atime = mtime + static_cast<std::int64_t>(rng.uniform_u64(86'400));
      rec.uid = static_cast<std::uint32_t>(10'000 + proj % 700);
      rec.gid = static_cast<std::uint32_t>(3'000 + proj);
      rec.mode = (i % 25 == 0) ? (kModeDirectory | 0775)
                               : (kModeRegular | 0664);
      rec.inode = 1'000'000'000ULL + i;
      if (!rec.is_dir()) {
        for (int s = 0; s < 4; ++s) {
          rec.osts.push_back(
              static_cast<std::uint32_t>(rng.uniform_u64(2016)));
        }
      }
      t.add(rec);
    }
    return t;
  }();
  return table;
}

/// A mutated copy of the fixture, for the diff benchmarks.
const SnapshotTable& mutated_table() {
  static const SnapshotTable table = [] {
    const SnapshotTable& base = fixture_table();
    Rng rng(100);
    SnapshotTable t;
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (rng.chance(0.10)) continue;  // deleted
      RawRecord rec = base.row(i);
      const double r = rng.uniform();
      if (r < 0.05) {
        rec.atime += 3600;  // readonly
      } else if (r < 0.15) {
        rec.atime = rec.ctime = rec.mtime = rec.mtime + 7200;  // updated
      }
      t.add(rec);
    }
    for (std::size_t i = 0; i < 20'000; ++i) {  // new files
      RawRecord rec;
      rec.path = "/lustre/atlas2/projX/u0/fresh/f" + std::to_string(i);
      rec.atime = rec.ctime = rec.mtime = 1'425'000'000 + static_cast<std::int64_t>(i);
      rec.uid = 10'001;
      rec.gid = 3'001;
      rec.osts = {1, 2, 3, 4};
      t.add(rec);
    }
    return t;
  }();
  return table;
}

void BM_PsvFormatRecord(benchmark::State& state) {
  const RawRecord rec = fixture_table().row(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(psv_format_record(rec));
  }
}
BENCHMARK(BM_PsvFormatRecord);

void BM_PsvParseRecord(benchmark::State& state) {
  const std::string line = psv_format_record(fixture_table().row(1));
  RawRecord rec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(psv_parse_record(line, &rec));
  }
}
BENCHMARK(BM_PsvParseRecord);

void BM_PsvWriteTable(benchmark::State& state) {
  const SnapshotTable& t = fixture_table();
  for (auto _ : state) {
    std::ostringstream os;
    benchmark::DoNotOptimize(write_psv(t, os));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_PsvWriteTable);

void BM_ScolEncode(benchmark::State& state) {
  const SnapshotTable& t = fixture_table();
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_scol(t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_ScolEncode);

void BM_ScolDecode(benchmark::State& state) {
  const auto image = encode_scol(fixture_table());
  for (auto _ : state) {
    SnapshotTable t;
    benchmark::DoNotOptimize(decode_scol(image, &t, ScolOptions{}).ok());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(fixture_table().size()));
}
BENCHMARK(BM_ScolDecode);

void BM_PathIndexBuild(benchmark::State& state) {
  const SnapshotTable& t = fixture_table();
  for (auto _ : state) {
    PathIndex index(t, /*files_only=*/true);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_PathIndexBuild);

void BM_DiffHashJoin(benchmark::State& state) {
  const SnapshotTable& prev = fixture_table();
  const SnapshotTable& cur = mutated_table();
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff_snapshots(prev, cur));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(prev.size() + cur.size()));
}
BENCHMARK(BM_DiffHashJoin);

void BM_PartitionedIndexBuild(benchmark::State& state) {
  const SnapshotTable& t = fixture_table();
  for (auto _ : state) {
    PartitionedPathIndex index(t);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_PartitionedIndexBuild);

void BM_DiffPartitioned(benchmark::State& state) {
  const SnapshotTable& prev = fixture_table();
  const SnapshotTable& cur = mutated_table();
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff_snapshots_partitioned(prev, cur));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(prev.size() + cur.size()));
}
BENCHMARK(BM_DiffPartitioned);

void BM_DistinctInsert(benchmark::State& state) {
  const SnapshotTable& t = fixture_table();
  for (auto _ : state) {
    FlatSet<IdentityKeyMix> set(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) set.insert(t.path_hash(i));
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_DistinctInsert);

void BM_HashPath(benchmark::State& state) {
  const std::string path(static_cast<std::size_t>(state.range(0)), 'p');
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash_bytes(path));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HashPath)->Arg(16)->Arg(64)->Arg(256);

// --- network kernels on the full-scale facility plan ---------------------

const FacilityPlan& fixture_plan() {
  static const FacilityPlan plan = plan_facility(20150105);
  return plan;
}

void BM_PlanFacility(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_facility(42));
  }
}
BENCHMARK(BM_PlanFacility);

void BM_ConnectedComponents(benchmark::State& state) {
  const FacilityPlan& plan = fixture_plan();
  const BipartiteGraph graph(
      static_cast<std::uint32_t>(plan.users.size()),
      static_cast<std::uint32_t>(plan.projects.size()), plan.memberships);
  for (auto _ : state) {
    benchmark::DoNotOptimize(connected_components(graph.graph()));
  }
}
BENCHMARK(BM_ConnectedComponents);

void BM_GiantDiameterExact(benchmark::State& state) {
  const FacilityPlan& plan = fixture_plan();
  const BipartiteGraph graph(
      static_cast<std::uint32_t>(plan.users.size()),
      static_cast<std::uint32_t>(plan.projects.size()), plan.memberships);
  const ComponentInfo info = connected_components(graph.graph());
  const auto giant = info.members(info.largest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(component_diameter(graph.graph(), giant));
  }
}
BENCHMARK(BM_GiantDiameterExact);

void BM_DoubleSweepBound(benchmark::State& state) {
  const FacilityPlan& plan = fixture_plan();
  const BipartiteGraph graph(
      static_cast<std::uint32_t>(plan.users.size()),
      static_cast<std::uint32_t>(plan.projects.size()), plan.memberships);
  for (auto _ : state) {
    benchmark::DoNotOptimize(double_sweep_lower_bound(graph.graph(), 0));
  }
}
BENCHMARK(BM_DoubleSweepBound);

void BM_CollaborationPairs(benchmark::State& state) {
  const FacilityPlan& plan = fixture_plan();
  std::vector<std::vector<std::uint32_t>> members;
  std::vector<std::uint32_t> domains;
  for (const ProjectInfo& project : plan.projects) {
    members.push_back(project.members);
    domains.push_back(static_cast<std::uint32_t>(project.domain));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(collaboration_stats(
        static_cast<std::uint32_t>(plan.users.size()), members, domains,
        domain_count()));
  }
}
BENCHMARK(BM_CollaborationPairs);

// --- parallel substrate ----------------------------------------------------

void BM_ParallelReduceSum(benchmark::State& state) {
  const std::size_t n = 1'000'000;
  for (auto _ : state) {
    const std::uint64_t sum = parallel_reduce<std::uint64_t>(
        n, 0, [](std::uint64_t& acc, std::size_t i) { acc += i; },
        [](std::uint64_t& into, std::uint64_t& from) { into += from; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParallelReduceSum);

void BM_ScanWithPoolSize(benchmark::State& state) {
  const SnapshotTable& t = fixture_table();
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    std::atomic<std::uint64_t> dirs{0};
    parallel_for(
        t.size(),
        [&](std::size_t i) {
          if (t.is_dir(i)) dirs.fetch_add(1, std::memory_order_relaxed);
        },
        &pool);
    benchmark::DoNotOptimize(dirs.load());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_ScanWithPoolSize)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace spider

BENCHMARK_MAIN();
