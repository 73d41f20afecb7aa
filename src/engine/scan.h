// Morsel-driven shared scan: one parallel pass over a SnapshotTable feeds
// any number of registered kernels at once — the single-scan/many-
// aggregations shape the paper got from Spark, without materializing
// twelve separate traversals.
//
// The table is split into fixed-size row chunks ("morsels"). Each chunk is
// claimed dynamically by a pool thread, which runs *every* kernel over the
// chunk while its rows are cache-hot, accumulating into a per-kernel,
// per-chunk partial state. After the scan barrier, each kernel folds its
// partial states serially IN CHUNK ORDER (= row order, never completion
// order).
//
// Determinism contract (see DESIGN.md §10):
//   * The chunk layout is a pure function of the row count and the grain —
//     it never depends on the pool width or on scheduling. The same table
//     produces the same chunks whether scanned by 1 thread or 64.
//   * merge() runs on the calling thread, folding states in ascending
//     chunk order. Order-sensitive logic (first-seen tracking, floating-
//     point accumulation) therefore sees an identical fold sequence at
//     every thread count, making results bit-identical to the 1-thread
//     reference.
//   * observe_chunk() calls run concurrently. A kernel may read shared
//     state that no one mutates during the scan (e.g. a membership set
//     frozen since the previous merge) but must write only through its
//     chunk state.
//   * Within one chunk, kernels run in REGISTRATION ORDER on the same
//     thread: kernel k observes chunk c only after kernels 0..k-1 have
//     finished observing c. This is part of the contract — the study
//     runner registers the diff kernel (engine/diff.h) first, and it
//     publishes its per-chunk classification for sibling kernels to read
//     during the same chunk visit.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "snapshot/table.h"
#include "util/parallel.h"
#include "util/status.h"

namespace spider {

/// Default morsel size. Deliberately a fixed constant rather than the
/// pool-derived automatic grain (resolve_grain): an adaptive grain would
/// change the chunk layout with the thread count and break the bit-identity
/// guarantee above.
inline constexpr std::size_t kScanGrainRows = 8192;

/// One unit of scan work: a GLOBAL row range [begin, end) backed by a
/// table that may hold only a window of the full row space (out-of-core
/// scans stage one .scol row group at a time). `base` is the global row
/// index of the table's local row 0; kernels index the table at
/// `i - base` and record global row numbers, so their outputs are
/// independent of how the scan was staged. Resident scans have base == 0
/// and the two coordinate systems coincide.
///
/// `chunk` is the morsel's index among the scan's chunk states — the
/// position of its state in every kernel's merge list. It equals
/// begin / grain only when every staged batch starts on a grain
/// boundary, which a streaming scan over row groups of any other size
/// does not; a kernel that looks up a sibling's per-chunk output must
/// use `chunk`.
struct ScanMorsel {
  const SnapshotTable* table = nullptr;
  std::size_t begin = 0;  // global row range [begin, end)
  std::size_t end = 0;
  std::size_t base = 0;  // global row index of table's local row 0
  std::size_t chunk = 0;  // index of this morsel's chunk states

  /// Local (table) row of a global row inside this morsel.
  std::size_t local(std::size_t global_row) const { return global_row - base; }
};

/// Per-chunk partial state; kernels subclass this with their accumulators.
struct ScanChunkState {
  virtual ~ScanChunkState() = default;
};

/// The chunk states of one kernel, indexed by chunk (ascending row order).
/// Entries may be null when make_chunk_state() returned null.
using ScanStateList = std::span<const std::unique_ptr<ScanChunkState>>;

class ScanKernel {
 public:
  virtual ~ScanKernel() = default;

  /// Fresh partial state for one chunk. Called once per chunk before the
  /// chunk is scanned (serially, in chunk order, on the calling thread).
  /// May return null for kernels with no per-row work.
  virtual std::unique_ptr<ScanChunkState> make_chunk_state() const = 0;

  /// Accumulate the morsel's rows into `state`. Runs concurrently with
  /// other chunks; must only mutate `state` (see determinism contract).
  /// The morsel's table is valid only for the duration of the call —
  /// streaming scans recycle staging tables between batches, so kernels
  /// must not retain the pointer in their chunk state.
  virtual void observe_chunk(ScanChunkState* state, const ScanMorsel& m) = 0;

  /// Fold the per-chunk states, delivered in chunk order. Runs serially on
  /// the calling thread after every observe_chunk has finished; this is
  /// where order-dependent logic belongs. Called even for an empty scan
  /// (with an empty list), so per-scan bookkeeping always runs. There is
  /// deliberately no table parameter: by merge time a streaming scan has
  /// already dropped the staged rows, so anything a merge needs must come
  /// from the chunk states (or context captured at construction).
  ///
  /// `pool` is the scan's pool (null = process-global): order-INsensitive
  /// sub-steps of a merge (e.g. the radix-partitioned count-map merges of
  /// engine/agg.h) may fan back out on it, as long as the order-sensitive
  /// fold itself stays serial and chunk-ordered.
  virtual void merge_chunks(ScanStateList states, ThreadPool* pool) = 0;
};

struct ScanOptions {
  /// Rows per morsel. Must not depend on the pool width if results are to
  /// be reproducible across thread counts.
  std::size_t grain = kScanGrainRows;
  /// Pool to fan out on; null selects the process-global pool.
  ThreadPool* pool = nullptr;
};

/// Runs one shared parallel scan of `table` driving all `kernels`, then
/// merges each kernel's partial states in chunk order (kernels merge in
/// registration order). Blocks until every merge has completed.
void scan_table(const SnapshotTable& table,
                std::span<ScanKernel* const> kernels,
                const ScanOptions& options = {});

/// One batch pulled from a MorselSource: a staging table holding the
/// global rows [base, base + table->size()).
struct MorselBatch {
  const SnapshotTable* table = nullptr;  // null signals end of stream
  std::size_t base = 0;
};

/// Pull seam between the scan dispatcher and whatever stages the rows —
/// a resident table served as one batch, or a streaming .scol reader
/// decoding one row group at a time into recycled staging tables (with
/// its own decode-ahead, see engine/stream.h). next() is called
/// serially; each call invalidates the previous batch's table (the
/// source may recycle it), and batches must arrive in ascending global
/// row order with no overlap.
class MorselSource {
 public:
  virtual ~MorselSource() = default;

  /// Yields the next batch, or ok with batch->table == nullptr at end of
  /// stream. A non-ok status aborts the scan (scan_stream returns it
  /// without merging).
  virtual Status next(MorselBatch* batch) = 0;
};

/// Streaming variant of scan_table: pulls batches from `source`, carves
/// each batch into grain-sized chunks scanned in parallel, and merges
/// every kernel's states in chunk order once the stream ends. Chunk
/// numbering is continuous across batches, so when every batch size is a
/// multiple of the grain (the .scol group size is by construction —
/// except the final short group, which only ever precedes the stream
/// end), the chunk layout — and therefore every merge fold — is
/// IDENTICAL to scan_table over the materialized whole. On a non-ok pull
/// the scan stops and the status is returned; no merges run.
Status scan_stream(MorselSource& source, std::span<ScanKernel* const> kernels,
                   const ScanOptions& options = {});

}  // namespace spider
