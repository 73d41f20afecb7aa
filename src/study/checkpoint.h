// Durable checkpoint/restore for the study runner (DESIGN.md §14).
//
// A .sckpt file captures everything the incremental engine needs to resume
// a crashed study run mid-series: the runner position (last analyzed slot,
// its collection time and salvage flag, a content fingerprint of its
// table), the series-gap timeline discovered so far, the runner's
// first-seen path map when the run has a first-seen pass, and one opaque
// save_state blob per analyzer. The framing borrows the .scol v2
// discipline — a fixed magic with an embedded version, then checksummed
// sections — so damage detection is mechanical: any torn, bit-flipped, or
// truncated checkpoint fails its checksums and the runner re-baselines
// with a full scan instead of resuming from bad state.
//
// A checkpoint is advisory, never authoritative: the resume path
// re-decodes the checkpointed week from the source and only trusts the
// blobs when the re-decoded table's fingerprint (and week, time, salvage
// flag, projection, grain, hash function) all match what was saved.
// Anything else — including an analyzer that recorded a re-baseline
// marker instead of state — degrades to the ordinary full run, which is
// always correct. Files are written with util/io's write_file_atomic, so
// a crash mid-checkpoint leaves the previous checkpoint intact.
//
// One encoder builds every image: CheckpointEncoder writes the sections
// in place, in one pass over the bytes, and checksums them on a pool. The
// study runner feeds it each analyzer's save_state directly and writes
// the sealed image behind the next week (runner.cc), one write in flight;
// run_study waits for the last one, so CheckpointReport's counts are final
// when it returns. The codec's encode_checkpoint feeds the encoder a
// decoded StudyCheckpoint's blobs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/series.h"
#include "snapshot/table.h"
#include "util/serialize.h"
#include "util/status.h"

namespace spider {

class ThreadPool;

/// Magic + version tag. The first 5 bytes identify the family; the last 3
/// are the format version, so a mismatch there is version skew rather
/// than corruption.
inline constexpr std::string_view kCheckpointMagic = "SCKPT002";

/// One analyzer's checkpointed state. `has_state` false is a re-baseline
/// marker: the analyzer (a scan-only one) cannot reconstruct its
/// accumulated results from a blob, so any checkpoint containing a marker
/// is not resumable and forces the full run.
struct AnalyzerCheckpoint {
  std::string id;              // StudyAnalyzer::state_id()
  std::uint32_t version = 0;   // StudyAnalyzer::state_version()
  bool has_state = false;
  std::vector<std::uint8_t> blob;
};

/// The runner's first-seen map (DESIGN.md §10): its entry count, and its
/// slot image as the runner's FlatMap::save_state writes it. The codec
/// keeps the image opaque; the runner validates it on resume.
struct FirstSeenCheckpoint {
  std::uint64_t entries = 0;
  std::vector<std::uint8_t> image;
};

struct StudyCheckpoint {
  std::uint64_t week = 0;        // last analyzed slot index
  std::int64_t taken_at = 0;     // collection time of that snapshot
  bool degraded = false;         // its salvage flag (drives re-baselining)
  std::uint64_t table_fingerprint = 0;  // content hash of its projection
  std::uint64_t columns_mask = 0;       // the union projection of the run
  std::uint64_t grain = 0;              // scan grain (chunk boundaries)
  std::uint64_t hash_probe = 0;         // hash-function drift guard
  std::vector<SeriesGap> gaps;   // timeline damage known when written
  /// Present only when the run had a first-seen pass.
  std::optional<FirstSeenCheckpoint> first_seen;
  std::vector<AnalyzerCheckpoint> analyzers;  // roster order
};

/// Fingerprint of a fixed probe string under both of util/hash.h's string
/// hashes (hash_bytes and hash_path). Stored in every checkpoint and
/// compared on load: analyzer blobs and the first-seen map are full of
/// hash-keyed layouts (flat maps, dictionaries, path-hash maps), so a
/// checkpoint written under a different hash function — a changed seed or
/// algorithm of either — must re-baseline rather than resume onto
/// incompatible keys.
std::uint64_t checkpoint_hash_probe();

/// Order-sensitive content hash of the table's decoded columns, limited
/// to the projection in `columns` (both sides of a resume computed it
/// under the same mask, which the checkpoint records). Each column and
/// each row's OST list is hashed on `pool` (null = the process-global
/// pool); the hashes fold serially in column order, then row order, so
/// the value does not depend on the pool's width.
std::uint64_t table_fingerprint(const SnapshotTable& table,
                                ColumnMask columns, ThreadPool* pool = nullptr);

/// Builds one .sckpt image in place, in a single pass over its bytes. Each
/// section's header is reserved, its payload is written straight behind
/// it, and the header's size is patched when the section ends; an
/// analyzer's state is written by its own save_state, straight into the
/// image. seal() then checksums every section on a pool.
///
/// The image lives in the caller's buffer, which a recurring writer
/// reuses: the constructor clears it and keeps its capacity.
class CheckpointEncoder {
 public:
  /// Starts an image in `out`: the magic, the runner section (from every
  /// field of `head` but `first_seen` and `analyzers`) and the gaps
  /// section.
  CheckpointEncoder(const StudyCheckpoint& head,
                    std::vector<std::uint8_t>* out);

  /// Appends the first-seen section: `entries`, then the map image that
  /// `save` writes through the writer it is handed. At most once, before
  /// any analyzer section.
  void first_seen(std::uint64_t entries,
                  const std::function<void(StateWriter&)>& save);

  /// Appends one analyzer section, in roster order. `save` writes the
  /// state through the writer it is handed and returns true, or returns
  /// false for a re-baseline marker; a marker's blob is empty, whatever
  /// `save` wrote first.
  void analyzer(std::string_view id, std::uint32_t version,
                const std::function<bool(StateWriter&)>& save);

  /// Patches the analyzer count into the runner section and every
  /// section's checksum into its header, hashing the sections on `pool`
  /// (null = the process-global pool). The image is complete once this
  /// returns; nothing may be appended after it.
  void seal(ThreadPool* pool);

 private:
  std::size_t open_section(std::uint32_t kind);
  void close_section(std::size_t at);
  template <typename T>
  void patch(std::size_t at, T v);

  std::vector<std::uint8_t>* out_;
  std::vector<std::size_t> sections_;  // offset of each section's header
  std::size_t count_at_ = 0;           // the runner section's count field
  std::uint32_t analyzers_ = 0;        // analyzer sections appended
};

/// The image of `ckpt` through CheckpointEncoder, as the study runner
/// writes it (a marker's blob encodes empty).
Status encode_checkpoint(const StudyCheckpoint& ckpt,
                         std::vector<std::uint8_t>* out);
Status decode_checkpoint(std::span<const std::uint8_t> bytes,
                         StudyCheckpoint* out);

/// Reads and decodes a checkpoint file, with the file as Status context.
/// (The study runner writes its images with util/io's write_file_atomic:
/// temp + fsync + rename + dir fsync.)
Status load_checkpoint(const std::string& path, StudyCheckpoint* out);

/// Per-section damage report for `snapshot_tool checkpoint`: mirrors the
/// .scol `verify` subcommand's OK/CORRUPT lines, plus VERSION-SKEW for a
/// checkpoint from a different format revision.
struct CheckpointSection {
  enum class State : std::uint8_t { kOk, kCorrupt, kVersionSkew };
  State state = State::kOk;
  std::string name;    // "magic", "runner", "gaps", "first-seen",
                       // "analyzer 'census'"
  std::string detail;  // human-readable summary or failure description
};

struct CheckpointInspection {
  std::vector<CheckpointSection> sections;
  bool ok = true;          // every section kOk
  bool version_skew = false;
};

CheckpointInspection inspect_checkpoint_bytes(
    std::span<const std::uint8_t> bytes);

/// Union of a checkpoint's restored gap timeline with the gaps the source
/// reported after the resumed traversal, deduplicated by week slot
/// (restored wins — for pre-resume weeks the source never re-read the
/// damaged file, so the restored entry is the authoritative one). Result
/// ascending by week. This is how a resumed study renders the same
/// data-quality section as the uninterrupted run.
std::vector<SeriesGap> merge_gap_timelines(std::span<const SeriesGap> restored,
                                           std::span<const SeriesGap> live);

}  // namespace spider
