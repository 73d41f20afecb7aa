#include "snapshot/psv.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/hash.h"
#include "util/io.h"
#include "util/parallel.h"

namespace spider {

namespace {

/// Skipped lines kept verbatim in a report; the tally stays exact beyond
/// this, the sample just stops growing.
constexpr std::size_t kMaxBadLineSample = 32;

/// Synthesizes the per-stripe hexadecimal object id LustreDU records; the
/// value itself is opaque to every analysis, but keeping the field shape
/// exercises the same parsing cost profile as the real collector output.
std::uint32_t object_id(std::uint64_t inode, std::uint32_t ost) {
  return static_cast<std::uint32_t>(
      hash_combine(inode, ost) & 0x0fff'ffffULL);
}

bool parse_u64(std::string_view s, int base, std::uint64_t* out) {
  if (s.empty()) return false;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), *out, base);
  return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

bool parse_i64(std::string_view s, std::int64_t* out) {
  if (s.empty()) return false;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), *out, 10);
  return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

bool fail(std::string* error, std::string_view reason) {
  if (error) *error = std::string(reason);
  return false;
}

void record_bad_line(PsvReadReport* report, std::size_t line,
                     const std::string& reason) {
  if (!report) return;
  ++report->by_reason[reason];
  if (report->bad_lines.size() < kMaxBadLineSample) {
    report->bad_lines.push_back(PsvBadLine{line, reason});
  }
}

Status over_budget_status(std::size_t budget, std::size_t bad,
                          std::size_t first_line,
                          const std::string& first_reason) {
  const std::string first =
      "line " + std::to_string(first_line) + ": " + first_reason;
  if (budget == 0) return Status::corruption(first);
  return Status::resource_exhausted(
      std::to_string(bad) + " malformed lines exceed max_bad_lines=" +
      std::to_string(budget) + "; first: " + first);
}

}  // namespace

std::string PsvReadReport::summary() const {
  std::string out = "ingested " + std::to_string(rows_ingested) + " rows";
  if (clean()) return out;
  out += "; skipped " + std::to_string(lines_skipped) + "/" +
         std::to_string(lines_total) + " lines (";
  bool first = true;
  for (const auto& [reason, count] : by_reason) {
    if (!first) out += ", ";
    first = false;
    out += reason + ": " + std::to_string(count);
  }
  out += ")";
  return out;
}

std::string psv_format_record(const RawRecord& rec) {
  std::string line;
  line.reserve(rec.path.size() + 96 + rec.osts.size() * 14);
  line += rec.path;
  // Worst case: 3x 20-digit timestamps + uid/gid/mode/inode + pipes < 128.
  char buf[128];
  std::snprintf(buf, sizeof(buf), "|%lld|%lld|%lld|%u|%u|%o|%llu|",
                static_cast<long long>(rec.atime),
                static_cast<long long>(rec.ctime),
                static_cast<long long>(rec.mtime), rec.uid, rec.gid, rec.mode,
                static_cast<unsigned long long>(rec.inode));
  line += buf;
  for (std::size_t i = 0; i < rec.osts.size(); ++i) {
    if (i) line += ',';
    std::snprintf(buf, sizeof(buf), "%u:%x", rec.osts[i],
                  object_id(rec.inode, rec.osts[i]));
    line += buf;
  }
  return line;
}

bool psv_parse_record(std::string_view line, RawRecord* rec,
                      std::string* error) {
  // Split into the 9 pipe-separated fields. Paths on Spider II do not
  // contain '|'; LustreDU relies on the same invariant.
  std::string_view fields[9];
  std::size_t field = 0;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == '|') {
      if (field >= 9) return fail(error, "too many fields");
      fields[field++] = line.substr(begin, i - begin);
      begin = i + 1;
    }
  }
  if (field != 9) return fail(error, "expected 9 fields");

  rec->path = std::string(fields[0]);
  if (rec->path.empty() || rec->path[0] != '/') {
    return fail(error, "path must be absolute");
  }
  if (!parse_i64(fields[1], &rec->atime)) return fail(error, "bad atime");
  if (!parse_i64(fields[2], &rec->ctime)) return fail(error, "bad ctime");
  if (!parse_i64(fields[3], &rec->mtime)) return fail(error, "bad mtime");

  std::uint64_t v = 0;
  if (!parse_u64(fields[4], 10, &v)) return fail(error, "bad uid");
  rec->uid = static_cast<std::uint32_t>(v);
  if (!parse_u64(fields[5], 10, &v)) return fail(error, "bad gid");
  rec->gid = static_cast<std::uint32_t>(v);
  if (!parse_u64(fields[6], 8, &v)) return fail(error, "bad mode");
  rec->mode = static_cast<std::uint32_t>(v);
  if (!parse_u64(fields[7], 10, &v)) return fail(error, "bad inode");
  rec->inode = v;

  rec->osts.clear();
  const std::string_view osts = fields[8];
  if (!osts.empty()) {
    std::size_t start = 0;
    for (std::size_t i = 0; i <= osts.size(); ++i) {
      if (i == osts.size() || osts[i] == ',') {
        std::string_view entry = osts.substr(start, i - start);
        const std::size_t colon = entry.find(':');
        if (colon != std::string_view::npos) entry = entry.substr(0, colon);
        std::uint64_t ost = 0;
        if (!parse_u64(entry, 10, &ost)) return fail(error, "bad ost entry");
        rec->osts.push_back(static_cast<std::uint32_t>(ost));
        start = i + 1;
      }
    }
  }
  return true;
}

std::uint64_t write_psv(const SnapshotTable& table, std::ostream& os) {
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::string line = psv_format_record(table.row(i));
    os << line << '\n';
    bytes += line.size() + 1;
  }
  return bytes;
}

Status read_psv(std::istream& is, SnapshotTable* table,
                const PsvOptions& options, PsvReadReport* report) {
  if (report) *report = PsvReadReport{};
  std::string line;
  std::size_t line_no = 0;
  std::size_t bad = 0;
  std::size_t first_bad_line = 0;
  std::string first_bad_reason;
  RawRecord rec;
  while (std::getline(is, line)) {
    ++line_no;
    if (report) report->lines_total = line_no;
    if (line.empty()) continue;
    std::string why;
    if (!psv_parse_record(line, &rec, &why)) {
      ++bad;
      if (bad == 1) {
        first_bad_line = line_no;
        first_bad_reason = why;
      }
      if (bad > options.max_bad_lines) {
        return over_budget_status(options.max_bad_lines, bad, first_bad_line,
                                  first_bad_reason);
      }
      record_bad_line(report, line_no, why);
      if (report) ++report->lines_skipped;
      continue;
    }
    table->add(rec);
    if (report) ++report->rows_ingested;
  }
  return Status();
}

Status read_psv_buffer(std::string_view text, SnapshotTable* table,
                       const PsvOptions& options, PsvReadReport* report,
                       ThreadPool* pool) {
  if (report) *report = PsvReadReport{};
  ThreadPool& p = pool ? *pool : ThreadPool::global();
  const std::size_t budget = options.max_bad_lines;

  // Shard boundaries: roughly even byte cuts, each advanced to the next
  // newline so no line straddles two shards. A few shards per worker give
  // the dynamic scheduler room to balance skewed path lengths; small
  // buffers stay in one shard and parse inline.
  constexpr std::size_t kMinShardBytes = 1 << 16;
  const std::size_t want =
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   4 * p.size(), text.size() / kMinShardBytes));
  std::vector<std::size_t> starts;
  starts.push_back(0);
  for (std::size_t s = 1; s < want; ++s) {
    std::size_t cut = s * (text.size() / want);
    const std::size_t nl = text.find('\n', cut);
    if (nl == std::string_view::npos) break;
    cut = nl + 1;
    if (cut > starts.back() && cut < text.size()) starts.push_back(cut);
  }
  const std::size_t shards = starts.size();

  struct ShardResult {
    SnapshotTable staged;
    std::size_t lines = 0;  // lines consumed (including empty ones)
    /// Bad lines in shard-local 1-based numbering, in order. A shard stops
    /// parsing once its own bad count exceeds the global budget (the whole
    /// read must fail then, so finishing the shard is wasted work).
    std::vector<PsvBadLine> bad;
    bool gave_up = false;
  };
  std::vector<ShardResult> results(shards);

  parallel_for(
      shards,
      [&](std::size_t s) {
        ShardResult& r = results[s];
        const std::size_t end =
            s + 1 < shards ? starts[s + 1] : text.size();
        std::string_view body = text.substr(starts[s], end - starts[s]);
        RawRecord rec;
        std::string why;
        while (!body.empty()) {
          const std::size_t nl = body.find('\n');
          const std::string_view line =
              nl == std::string_view::npos ? body : body.substr(0, nl);
          body.remove_prefix(nl == std::string_view::npos ? body.size()
                                                          : nl + 1);
          ++r.lines;
          if (line.empty()) continue;
          if (!psv_parse_record(line, &rec, &why)) {
            r.bad.push_back(PsvBadLine{r.lines, why});
            if (r.bad.size() > budget) {
              r.gave_up = true;
              break;
            }
            continue;
          }
          r.staged.add(rec);
        }
      },
      &p, /*grain=*/1);

  // Join: convert shard-local bad-line numbers to global ones, then decide
  // all-or-nothing. Nothing is spliced unless the whole buffer fits the
  // budget, so a failed read leaves `table` untouched.
  std::size_t line_base = 0;
  std::size_t total_bad = 0;
  std::size_t first_bad_line = 0;
  std::string first_bad_reason;
  for (std::size_t s = 0; s < shards; ++s) {
    for (const PsvBadLine& b : results[s].bad) {
      ++total_bad;
      if (total_bad == 1) {
        first_bad_line = line_base + b.line;
        first_bad_reason = b.reason;
      }
    }
    line_base += results[s].lines;
  }
  if (report) report->lines_total = line_base;

  if (total_bad > budget || std::any_of(results.begin(), results.end(),
                                        [](const ShardResult& r) {
                                          return r.gave_up;
                                        })) {
    if (report) *report = PsvReadReport{};
    return over_budget_status(budget, total_bad, first_bad_line,
                              first_bad_reason);
  }

  line_base = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    for (const PsvBadLine& b : results[s].bad) {
      record_bad_line(report, line_base + b.line, b.reason);
      if (report) ++report->lines_skipped;
    }
    line_base += results[s].lines;
  }
  if (report) report->lines_total = line_base;
  for (ShardResult& r : results) {
    if (report) report->rows_ingested += r.staged.size();
    table->append_table(std::move(r.staged));
  }
  return Status();
}

Status write_psv_file(const SnapshotTable& table, const std::string& file) {
  std::ostringstream os;
  write_psv(table, os);
  return write_file_atomic(file, std::string_view(os.view()));
}

Status read_psv_file(const std::string& file, SnapshotTable* table,
                     const PsvOptions& options, PsvReadReport* report) {
  std::string text;
  Status s = read_file(file, &text);
  if (!s.ok()) return s;
  return read_psv_buffer(text, table, options, report).with_context(file);
}

}  // namespace spider
