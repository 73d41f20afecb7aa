// Out-of-core morsel source: feeds a scan one .scol row group at a time.
//
// ScolMorselSource adapts a ScolGroupReader to the MorselSource seam of
// engine/scan.h. Residency is bounded by a two-slot ring of recyclable
// staging tables (SnapshotTable::clear keeps column capacity, so steady
// state does no column reallocation): the slot just handed out is live
// until the next pull, the other hosts the depth-1 decode-ahead of the
// following group. Groups listed in Options::skip (damaged groups a prior
// verification pass already disposed of) are passed over without decoding,
// and the running global row base counts only surviving rows — exactly the
// row numbering the eager salvage path produces by splicing the surviving
// groups together.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/scan.h"
#include "snapshot/scol.h"
#include "util/parallel.h"
#include "util/status.h"

namespace spider {

class ScolMorselSource : public MorselSource {
 public:
  struct Options {
    /// Pool the decode-ahead task is submitted to, and that a group
    /// decoded inside next() spreads over; null = process-global.
    ThreadPool* pool = nullptr;
    /// Decode group g+1 while the consumer scans group g. Off decodes
    /// synchronously inside next() — same batches, for debugging and
    /// single-thread profiling.
    bool prefetch = true;
    /// Per-group skip flags (non-zero = do not decode; the group
    /// contributes no rows). Empty means every group is streamed. Sized
    /// reader.group_count() otherwise.
    std::vector<std::uint8_t> skip;
  };

  /// `reader` must stay open and outlive the source.
  ScolMorselSource(const ScolGroupReader* reader, Options options);
  ~ScolMorselSource() override;

  ScolMorselSource(const ScolMorselSource&) = delete;
  ScolMorselSource& operator=(const ScolMorselSource&) = delete;

  /// Hands out the next surviving group. A decode failure surfaces here
  /// with the reader's group status (callers running under a salvage
  /// policy are expected to have pre-screened damage into Options::skip).
  Status next(MorselBatch* batch) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace spider
