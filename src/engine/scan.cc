#include "engine/scan.h"

#include <vector>

namespace spider {

namespace {

/// Carves one staged batch into grain-sized chunks, appends fresh chunk
/// states for each kernel (serially, in chunk order), and scans the
/// chunks in parallel. Shared by the resident and streaming entry points
/// so the two produce identical chunk layouts for identical row spans.
void scan_batch(const SnapshotTable& table, std::size_t base,
                std::span<ScanKernel* const> kernels, std::size_t grain,
                ThreadPool* pool,
                std::vector<std::vector<std::unique_ptr<ScanChunkState>>>*
                    states) {
  const std::size_t n = table.size();
  const std::size_t chunks = (n + grain - 1) / grain;
  if (chunks == 0) return;
  const std::size_t chunk0 = (*states)[0].size();
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    (*states)[k].reserve(chunk0 + chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      (*states)[k].push_back(kernels[k]->make_chunk_state());
    }
  }
  parallel_for_chunked(
      n, grain,
      [&](std::size_t begin, std::size_t end) {
        ScanMorsel m;
        m.table = &table;
        m.begin = base + begin;
        m.end = base + end;
        m.base = base;
        m.chunk = chunk0 + begin / grain;
        for (std::size_t k = 0; k < kernels.size(); ++k) {
          kernels[k]->observe_chunk((*states)[k][m.chunk].get(), m);
        }
      },
      pool);
}

}  // namespace

void scan_table(const SnapshotTable& table,
                std::span<ScanKernel* const> kernels,
                const ScanOptions& options) {
  const std::size_t grain = options.grain == 0 ? kScanGrainRows : options.grain;
  std::vector<std::vector<std::unique_ptr<ScanChunkState>>> states(
      kernels.size());
  if (!kernels.empty()) {
    scan_batch(table, /*base=*/0, kernels, grain, options.pool, &states);
  }
  // Serial, chunk-ordered merges — the determinism point of the design.
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    kernels[k]->merge_chunks(states[k], options.pool);
  }
}

Status scan_stream(MorselSource& source, std::span<ScanKernel* const> kernels,
                   const ScanOptions& options) {
  const std::size_t grain = options.grain == 0 ? kScanGrainRows : options.grain;
  std::vector<std::vector<std::unique_ptr<ScanChunkState>>> states(
      kernels.size());
  while (true) {
    MorselBatch batch;
    Status s = source.next(&batch);
    if (!s.ok()) return s;
    if (batch.table == nullptr) break;
    if (!kernels.empty()) {
      scan_batch(*batch.table, batch.base, kernels, grain, options.pool,
                 &states);
    }
  }
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    kernels[k]->merge_chunks(states[k], options.pool);
  }
  return Status();
}

}  // namespace spider
