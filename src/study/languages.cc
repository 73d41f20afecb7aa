#include "study/languages.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "snapshot/record.h"
#include "synth/langmap.h"
#include "util/table.h"

namespace spider {

namespace {

int best_language(const std::vector<std::uint64_t>& counts, int excluding) {
  int best = -1;
  for (std::size_t l = 0; l < counts.size(); ++l) {
    if (static_cast<int>(l) == excluding || counts[l] == 0) continue;
    if (best < 0 || counts[l] > counts[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(l);
    }
  }
  return best;
}

}  // namespace

int LanguagesResult::top_language(std::size_t domain) const {
  return best_language(by_domain[domain], -1);
}

int LanguagesResult::second_language(std::size_t domain) const {
  return best_language(by_domain[domain], top_language(domain));
}

LanguagesAnalyzer::LanguagesAnalyzer(const Resolver& resolver)
    : resolver_(resolver), global_(languages().size(), 0) {
  result_.by_domain.assign(domain_count(),
                           std::vector<std::uint64_t>(languages().size(), 0));
}

namespace {
/// A file row the runner's first-seen probe found unseen as a file
/// (kFirstSeenFile) whose extension maps to a language. The runner claims
/// an unmapped file's path itself, so unmapped rows are never kept.
struct LanguagesCandidate {
  std::uint32_t at = 0;  // index into the chunk's first-seen candidates
  std::int32_t lang = -1;
  std::int32_t domain = -1;
};

struct LanguagesChunk : ScanChunkState {
  const FirstSeenChunk* seen = nullptr;  // settled by merge time
  std::vector<LanguagesCandidate> candidates;  // row order
};
}  // namespace

std::unique_ptr<ScanChunkState> LanguagesAnalyzer::make_chunk_state() const {
  return std::make_unique<LanguagesChunk>();
}

void LanguagesAnalyzer::observe_chunk(ScanChunkState* state,
                                      const WeekObservation& obs,
                                      const ScanMorsel& m) {
  auto* chunk = static_cast<LanguagesChunk*>(state);
  const SnapshotTable& table = *m.table;
  const FirstSeenChunk& seen = obs.first_seen->candidates(m);
  chunk->seen = &seen;
  for (std::size_t j = 0; j < seen.rows.size(); ++j) {
    if ((seen.bits[j] & kFirstSeenFile) == 0) continue;
    const std::size_t r = m.local(seen.rows[j]);
    LanguagesCandidate cand;
    cand.lang = language_for_extension(path_extension(table.path(r)));
    if (cand.lang < 0) continue;
    cand.at = static_cast<std::uint32_t>(j);
    cand.domain = resolver_.domain_of_gid(table.gid(r));
    chunk->candidates.push_back(cand);
  }
}

void LanguagesAnalyzer::merge(const WeekObservation&, ScanStateList states) {
  for (const auto& state : states) {
    const auto* chunk = static_cast<const LanguagesChunk*>(state.get());
    for (const LanguagesCandidate& cand : chunk->candidates) {
      if ((chunk->seen->bits[cand.at] & kFirstSeenFile) == 0) continue;
      ++global_[static_cast<std::size_t>(cand.lang)];
      if (cand.domain >= 0) {
        ++result_.by_domain[static_cast<std::size_t>(cand.domain)]
                           [static_cast<std::size_t>(cand.lang)];
      }
    }
  }
}

void LanguagesAnalyzer::apply_delta(const WeekObservation&,
                                    const WeekDelta& delta) {
  const SnapshotTable& table = *delta.cur;
  for (std::size_t k = 0; k < delta.added_rows.size(); ++k) {
    if ((delta.first_seen[k] & kFirstSeenFile) == 0) continue;
    const std::uint32_t row = delta.added_rows[k];
    const int lang = language_for_extension(path_extension(table.path(row)));
    if (lang < 0) continue;
    ++global_[static_cast<std::size_t>(lang)];
    const int domain = resolver_.domain_of_gid(table.gid(row));
    if (domain >= 0) {
      ++result_.by_domain[static_cast<std::size_t>(domain)]
                         [static_cast<std::size_t>(lang)];
    }
  }
}

bool LanguagesAnalyzer::save_state(StateWriter& w) const {
  w.vec(global_);
  w.vec2(result_.by_domain);
  return true;
}

bool LanguagesAnalyzer::load_state(StateReader& r) {
  std::vector<std::uint64_t> global;
  std::vector<std::vector<std::uint64_t>> by_domain;
  if (!r.vec(&global) || !r.vec2(&by_domain) || !r.ok()) {
    return false;
  }
  // Fixed shape: one counter per known language, one row per domain.
  if (global.size() != global_.size() ||
      by_domain.size() != result_.by_domain.size()) {
    return false;
  }
  for (const auto& row : by_domain) {
    if (row.size() != global_.size()) return false;
  }
  global_ = std::move(global);
  result_.by_domain = std::move(by_domain);
  return true;
}

void LanguagesAnalyzer::finish() {
  const auto langs = languages();
  std::vector<std::size_t> order;
  for (std::size_t l = 0; l < langs.size(); ++l) {
    if (global_[l] > 0) order.push_back(l);
  }
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return global_[a] > global_[b];
  });
  result_.ranking.clear();
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t l = order[rank];
    result_.ranking.push_back(LanguageRank{
        langs[l].name, global_[l], static_cast<int>(rank) + 1,
        langs[l].ieee_rank});
  }
}

std::string LanguagesAnalyzer::render() const {
  std::ostringstream os;
  os << "Fig 11: programming-language popularity (by file-extension count; "
        "IEEE Spectrum rank in parentheses)\n";
  AsciiTable t({"rank", "language", "files", "IEEE rank"});
  for (const LanguageRank& r : result_.ranking) {
    t.add_row({std::to_string(r.our_rank), r.name,
               format_with_commas(r.files),
               "(" + std::to_string(r.ieee_rank) + ")"});
  }
  t.print(os);

  os << "\nFig 12: per-domain top languages (measured vs Table 1)\n";
  AsciiTable d({"domain", "top", "second", "paper"});
  const auto profiles = domain_profiles();
  const auto langs = languages();
  for (std::size_t dom = 0; dom < profiles.size(); ++dom) {
    const int top = result_.top_language(dom);
    if (top < 0) continue;
    const int second = result_.second_language(dom);
    d.add_row({profiles[dom].id, langs[static_cast<std::size_t>(top)].name,
               second < 0 ? "-" : langs[static_cast<std::size_t>(second)].name,
               std::string(profiles[dom].lang1) + ", " + profiles[dom].lang2});
  }
  d.print(os);
  return os.str();
}

}  // namespace spider
