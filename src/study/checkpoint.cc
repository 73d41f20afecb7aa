#include "study/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/hash.h"
#include "util/io.h"
#include "util/parallel.h"

namespace spider {

namespace {

// Section kinds. The runner section must come first (decode depends on it
// for the analyzer count); analyzer sections follow in roster order.
constexpr std::uint32_t kSectionRunner = 1;
constexpr std::uint32_t kSectionGaps = 2;
constexpr std::uint32_t kSectionAnalyzer = 3;

// Section header: u32 kind, u64 payload size, u64 payload checksum.
constexpr std::size_t kSectionHeaderBytes = 4 + 8 + 8;
constexpr std::size_t kSectionSizeAt = 4;
constexpr std::size_t kSectionSumAt = 12;

/// The bytes of a span of trivially-copyable values, as hash_bytes takes
/// them.
template <typename T>
std::string_view as_chars(std::span<const T> values) {
  return {reinterpret_cast<const char*>(values.data()), values.size_bytes()};
}

bool decode_runner(StateReader& r, StudyCheckpoint* out,
                   std::uint32_t* analyzer_count) {
  out->week = r.u64();
  out->taken_at = r.i64();
  out->degraded = r.u8() != 0;
  out->table_fingerprint = r.u64();
  out->columns_mask = r.u64();
  out->grain = r.u64();
  out->hash_probe = r.u64();
  *analyzer_count = r.u32();
  return r.exhausted();
}

// A gap's Status may chain causes (decode failure over an IO failure);
// SeriesGap::describe() renders the whole chain, so the whole chain must
// round-trip for a resumed study's data-quality section to match the
// uninterrupted run byte for byte. with_context() folds into the message,
// so (code, message) per link reproduces the rendering exactly.
constexpr std::uint32_t kMaxStatusChain = 32;

void encode_status(StateWriter& w, const Status& status) {
  std::uint32_t links = 0;
  for (Status s = status; !s.ok() && links < kMaxStatusChain;
       s = s.cause()) {
    ++links;
    if (!s.has_cause()) break;
  }
  w.u32(links);
  Status s = status;
  for (std::uint32_t i = 0; i < links; ++i) {
    w.u8(static_cast<std::uint8_t>(s.code()));
    w.str(s.message());
    s = s.cause();
  }
}

bool decode_status(StateReader& r, Status* out) {
  const std::uint32_t links = r.u32();
  if (!r.ok() || links > kMaxStatusChain) return false;
  std::vector<std::pair<StatusCode, std::string>> chain;
  chain.reserve(links);
  for (std::uint32_t i = 0; i < links; ++i) {
    const std::uint8_t code = r.u8();
    std::string message;
    if (!r.str(&message)) return false;
    if (code == 0 || code > static_cast<std::uint8_t>(StatusCode::kInternal)) {
      return false;  // ok links never appear inside a failure chain
    }
    chain.emplace_back(static_cast<StatusCode>(code), std::move(message));
  }
  Status s;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    Status link(it->first, std::move(it->second));
    s = s.ok() ? std::move(link) : link.caused_by(s);
  }
  *out = std::move(s);
  return r.ok();
}

bool decode_gaps(StateReader& r, std::vector<SeriesGap>* out) {
  const std::uint32_t count = r.u32();
  if (!r.ok()) return false;
  out->clear();
  out->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    SeriesGap gap;
    gap.week = static_cast<std::size_t>(r.u64());
    gap.taken_at = r.i64();
    if (!r.str(&gap.file)) return false;
    if (!decode_status(r, &gap.status)) return false;
    out->push_back(std::move(gap));
  }
  return r.exhausted();
}

bool decode_analyzer(StateReader& r, AnalyzerCheckpoint* out) {
  if (!r.str(&out->id)) return false;
  out->version = r.u32();
  out->has_state = r.u8() != 0;
  if (!r.bytes(&out->blob)) return false;
  return r.exhausted();
}

struct SectionHeader {
  std::uint32_t kind = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

/// Reads one section header + payload starting at `pos`; fails on short
/// framing or a checksum mismatch. Advances `pos` past the section.
Status next_section(std::span<const std::uint8_t> bytes, std::size_t* pos,
                    SectionHeader* header,
                    std::span<const std::uint8_t>* payload) {
  if (bytes.size() - *pos < kSectionHeaderBytes) {
    return Status::truncated("section header cut short at byte " +
                             std::to_string(*pos));
  }
  StateReader r(bytes.subspan(*pos, kSectionHeaderBytes));
  header->kind = r.u32();
  header->size = r.u64();
  header->checksum = r.u64();
  *pos += kSectionHeaderBytes;
  if (header->size > bytes.size() - *pos) {
    return Status::truncated("section payload cut short: need " +
                             std::to_string(header->size) + " bytes, have " +
                             std::to_string(bytes.size() - *pos));
  }
  *payload = bytes.subspan(*pos, static_cast<std::size_t>(header->size));
  *pos += static_cast<std::size_t>(header->size);
  if (hash_bytes(as_chars(*payload)) != header->checksum) {
    return Status::corruption("section checksum mismatch (kind " +
                              std::to_string(header->kind) + ")");
  }
  return Status();
}

/// Magic check, distinguishing version skew from plain damage.
Status check_magic(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kCheckpointMagic.size()) {
    return Status::truncated("shorter than the checkpoint magic");
  }
  const std::string_view head(reinterpret_cast<const char*>(bytes.data()),
                              kCheckpointMagic.size());
  if (head == kCheckpointMagic) return Status();
  if (head.substr(0, 5) == kCheckpointMagic.substr(0, 5)) {
    return Status::failed_precondition(
        "checkpoint format version skew: file is '" + std::string(head) +
        "', this build reads '" + std::string(kCheckpointMagic) + "'");
  }
  return Status::corruption("not a checkpoint file (bad magic)");
}

}  // namespace

std::uint64_t checkpoint_hash_probe() {
  // Any fixed string works; what matters is that the value moves whenever
  // util/hash.h's algorithm or seed does.
  return hash_bytes("spider-checkpoint-hash-probe");
}

std::uint64_t table_fingerprint(const SnapshotTable& table,
                                ColumnMask columns, ThreadPool* pool) {
  std::vector<std::string_view> spans;  // fold order
  if (columns & kColMaskPaths) {
    spans.push_back(as_chars(table.path_hashes()));
    spans.push_back(as_chars(table.depths()));
  }
  if (columns & kColMaskAtime) spans.push_back(as_chars(table.atimes()));
  if (columns & kColMaskCtime) spans.push_back(as_chars(table.ctimes()));
  if (columns & kColMaskMtime) spans.push_back(as_chars(table.mtimes()));
  if (columns & kColMaskUid) spans.push_back(as_chars(table.uids()));
  if (columns & kColMaskGid) spans.push_back(as_chars(table.gids()));
  if (columns & kColMaskMode) spans.push_back(as_chars(table.modes()));
  if (columns & kColMaskInode) spans.push_back(as_chars(table.inodes()));
  std::vector<std::uint64_t> sums(spans.size());
  parallel_for(
      spans.size(), [&](std::size_t i) { sums[i] = hash_bytes(spans[i]); },
      pool, /*grain=*/1);
  if (columns & kColMaskOsts) {
    const std::size_t at = sums.size();
    sums.resize(at + table.size());
    parallel_for(
        table.size(),
        [&](std::size_t i) {
          sums[at + i] = hash_bytes(as_chars(table.osts(i)));
        },
        pool);
  }
  std::uint64_t h = hash_combine(table.size(), table.file_count());
  for (const std::uint64_t sum : sums) h = hash_combine(h, sum);
  return h;
}

template <typename T>
void CheckpointEncoder::patch(std::size_t at, T v) {
  const auto bytes = le_bytes(v);
  std::copy(bytes.begin(), bytes.end(), out_->data() + at);
}

CheckpointEncoder::CheckpointEncoder(const StudyCheckpoint& head,
                                     std::vector<std::uint8_t>* out)
    : out_(out) {
  out_->assign(kCheckpointMagic.begin(), kCheckpointMagic.end());
  StateWriter w(out_);

  std::size_t at = open_section(kSectionRunner);
  w.u64(head.week);
  w.i64(head.taken_at);
  w.u8(head.degraded ? 1 : 0);
  w.u64(head.table_fingerprint);
  w.u64(head.columns_mask);
  w.u64(head.grain);
  w.u64(head.hash_probe);
  count_at_ = out_->size();
  w.u32(0);  // analyzer count, patched by seal()
  close_section(at);

  at = open_section(kSectionGaps);
  w.u32(static_cast<std::uint32_t>(head.gaps.size()));
  for (const SeriesGap& gap : head.gaps) {
    w.u64(gap.week);
    w.i64(gap.taken_at);
    w.str(gap.file);
    encode_status(w, gap.status);
  }
  close_section(at);
}

void CheckpointEncoder::analyzer(
    std::string_view id, std::uint32_t version,
    const std::function<bool(StateWriter&)>& save) {
  const std::size_t at = open_section(kSectionAnalyzer);
  StateWriter w(out_);
  w.str(id);
  w.u32(version);
  const std::size_t flag_at = out_->size();
  w.u8(0);   // has_state, patched below
  w.u64(0);  // blob length, patched below
  const std::size_t blob_at = out_->size();
  const bool has_state = save(w);
  if (!has_state) out_->resize(blob_at);
  patch<std::uint8_t>(flag_at, has_state ? 1 : 0);
  patch<std::uint64_t>(flag_at + 1, out_->size() - blob_at);
  close_section(at);
}

void CheckpointEncoder::seal(ThreadPool* pool) {
  patch<std::uint32_t>(count_at_,
                       static_cast<std::uint32_t>(sections_.size() - 2));
  // Sections are disjoint byte ranges: each task reads its own payload and
  // writes its own header's checksum field.
  parallel_for(
      sections_.size(),
      [this](std::size_t i) {
        const std::size_t begin = sections_[i] + kSectionHeaderBytes;
        const std::size_t end =
            i + 1 < sections_.size() ? sections_[i + 1] : out_->size();
        const std::uint64_t sum = hash_bytes(as_chars(
            std::span<const std::uint8_t>(out_->data() + begin, end - begin)));
        patch<std::uint64_t>(sections_[i] + kSectionSumAt, sum);
      },
      pool, /*grain=*/1);
}

std::size_t CheckpointEncoder::open_section(std::uint32_t kind) {
  const std::size_t at = out_->size();
  StateWriter w(out_);
  w.u32(kind);
  w.u64(0);  // payload size, patched by close_section()
  w.u64(0);  // checksum, patched by seal()
  sections_.push_back(at);
  return at;
}

void CheckpointEncoder::close_section(std::size_t at) {
  patch<std::uint64_t>(at + kSectionSizeAt,
                       out_->size() - at - kSectionHeaderBytes);
}

Status encode_checkpoint(const StudyCheckpoint& ckpt,
                         std::vector<std::uint8_t>* out) {
  CheckpointEncoder encoder(ckpt, out);
  for (const AnalyzerCheckpoint& a : ckpt.analyzers) {
    encoder.analyzer(a.id, a.version, [&a](StateWriter& w) {
      w.out()->insert(w.out()->end(), a.blob.begin(), a.blob.end());
      return a.has_state;
    });
  }
  encoder.seal(nullptr);
  return Status();
}

Status decode_checkpoint(std::span<const std::uint8_t> bytes,
                         StudyCheckpoint* out) {
  Status s = check_magic(bytes);
  if (!s.ok()) return s;
  std::size_t pos = kCheckpointMagic.size();

  SectionHeader header;
  std::span<const std::uint8_t> payload;
  s = next_section(bytes, &pos, &header, &payload);
  if (!s.ok()) return s;
  if (header.kind != kSectionRunner) {
    return Status::corruption("first section is not the runner section");
  }
  *out = StudyCheckpoint{};
  std::uint32_t analyzer_count = 0;
  {
    StateReader r(payload);
    if (!decode_runner(r, out, &analyzer_count)) {
      return Status::corruption("runner section does not parse");
    }
  }

  s = next_section(bytes, &pos, &header, &payload);
  if (!s.ok()) return s;
  if (header.kind != kSectionGaps) {
    return Status::corruption("second section is not the gaps section");
  }
  {
    StateReader r(payload);
    if (!decode_gaps(r, &out->gaps)) {
      return Status::corruption("gaps section does not parse");
    }
  }

  out->analyzers.reserve(analyzer_count);
  for (std::uint32_t i = 0; i < analyzer_count; ++i) {
    s = next_section(bytes, &pos, &header, &payload);
    if (!s.ok()) return s;
    if (header.kind != kSectionAnalyzer) {
      return Status::corruption("expected analyzer section " +
                                std::to_string(i));
    }
    AnalyzerCheckpoint a;
    StateReader r(payload);
    if (!decode_analyzer(r, &a)) {
      return Status::corruption("analyzer section " + std::to_string(i) +
                                " does not parse");
    }
    out->analyzers.push_back(std::move(a));
  }
  if (pos != bytes.size()) {
    return Status::corruption(std::to_string(bytes.size() - pos) +
                              " trailing bytes after the last section");
  }
  return Status();
}

std::vector<SeriesGap> merge_gap_timelines(std::span<const SeriesGap> restored,
                                           std::span<const SeriesGap> live) {
  std::vector<SeriesGap> out(restored.begin(), restored.end());
  for (const SeriesGap& gap : live) {
    bool seen = false;
    for (const SeriesGap& have : restored) {
      if (have.week == gap.week) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(gap);
  }
  std::sort(out.begin(), out.end(),
            [](const SeriesGap& a, const SeriesGap& b) {
              return a.week < b.week;
            });
  return out;
}

Status load_checkpoint(const std::string& path, StudyCheckpoint* out) {
  std::vector<std::uint8_t> bytes;
  Status s = read_file(path, &bytes);
  if (!s.ok()) return s;
  return decode_checkpoint(bytes, out).with_context(path);
}

CheckpointInspection inspect_checkpoint_bytes(
    std::span<const std::uint8_t> bytes) {
  CheckpointInspection report;
  const auto add = [&](CheckpointSection::State state, std::string name,
                       std::string detail) {
    report.ok = report.ok && state == CheckpointSection::State::kOk;
    report.version_skew = report.version_skew ||
                          state == CheckpointSection::State::kVersionSkew;
    report.sections.push_back(
        CheckpointSection{state, std::move(name), std::move(detail)});
  };

  const Status magic = check_magic(bytes);
  if (!magic.ok()) {
    add(magic.code() == StatusCode::kFailedPrecondition
            ? CheckpointSection::State::kVersionSkew
            : CheckpointSection::State::kCorrupt,
        "magic", magic.message());
    return report;
  }
  add(CheckpointSection::State::kOk, "magic", std::string(kCheckpointMagic));

  std::size_t pos = kCheckpointMagic.size();
  std::size_t index = 0;
  while (pos < bytes.size()) {
    SectionHeader header;
    std::span<const std::uint8_t> payload;
    const Status s = next_section(bytes, &pos, &header, &payload);
    const std::string fallback_name = "section " + std::to_string(index);
    if (!s.ok()) {
      add(CheckpointSection::State::kCorrupt, fallback_name, s.message());
      return report;  // framing is gone; nothing past here is readable
    }
    StateReader r(payload);
    switch (header.kind) {
      case kSectionRunner: {
        StudyCheckpoint ckpt;
        std::uint32_t analyzer_count = 0;
        if (decode_runner(r, &ckpt, &analyzer_count)) {
          add(CheckpointSection::State::kOk, "runner",
              "week " + std::to_string(ckpt.week) + ", " +
                  std::to_string(analyzer_count) + " analyzers, grain " +
                  std::to_string(ckpt.grain) +
                  (ckpt.degraded ? ", degraded snapshot" : ""));
        } else {
          add(CheckpointSection::State::kCorrupt, "runner",
              "does not parse");
        }
        break;
      }
      case kSectionGaps: {
        std::vector<SeriesGap> gaps;
        if (decode_gaps(r, &gaps)) {
          add(CheckpointSection::State::kOk, "gaps",
              std::to_string(gaps.size()) + " recorded gap" +
                  (gaps.size() == 1 ? "" : "s"));
        } else {
          add(CheckpointSection::State::kCorrupt, "gaps", "does not parse");
        }
        break;
      }
      case kSectionAnalyzer: {
        AnalyzerCheckpoint a;
        if (decode_analyzer(r, &a)) {
          // Scan-only analyzers have no state_id; label them as such
          // instead of printing an empty quoted name.
          add(CheckpointSection::State::kOk,
              a.id.empty() ? "analyzer (scan-only)"
                           : "analyzer '" + a.id + "'",
              a.has_state ? "v" + std::to_string(a.version) + ", " +
                                std::to_string(a.blob.size()) +
                                "-byte state"
                          : "re-baseline marker");
        } else {
          add(CheckpointSection::State::kCorrupt, fallback_name,
              "analyzer section does not parse");
        }
        break;
      }
      default:
        add(CheckpointSection::State::kCorrupt, fallback_name,
            "unknown section kind " + std::to_string(header.kind));
        break;
    }
    ++index;
  }
  return report;
}

}  // namespace spider
