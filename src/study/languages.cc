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
struct LanguagesCandidate {
  std::uint64_t hash = 0;
  // lang < 0 still claims the hash's first-seen slot (a path is seen
  // once, whatever its extension maps to), so unmapped rows stay in.
  std::int32_t lang = -1;
  std::int32_t domain = -1;
};

struct LanguagesChunk : ScanChunkState {
  std::vector<LanguagesCandidate> candidates;  // row order
  FlatSet<IdentityKeyMix> local;
};
}  // namespace

std::unique_ptr<ScanChunkState> LanguagesAnalyzer::make_chunk_state() const {
  return std::make_unique<LanguagesChunk>();
}

void LanguagesAnalyzer::observe_chunk(ScanChunkState* state,
                                      const WeekObservation&,
                                      const ScanMorsel& m) {
  auto* chunk = static_cast<LanguagesChunk*>(state);
  const SnapshotTable& table = *m.table;
  for (std::size_t i = m.begin; i < m.end; ++i) {
    const std::size_t r = m.local(i);
    if (table.is_dir(r)) continue;
    const std::uint64_t hash = table.path_hash(r);
    if (distinct_.contains(hash) || !chunk->local.insert(hash)) continue;
    LanguagesCandidate cand;
    cand.hash = hash;
    cand.lang = language_for_extension(path_extension(table.path(r)));
    if (cand.lang >= 0) cand.domain = resolver_.domain_of_gid(table.gid(r));
    chunk->candidates.push_back(cand);
  }
}

void LanguagesAnalyzer::merge(const WeekObservation&, ScanStateList states) {
  for (const auto& state : states) {
    const auto* chunk = static_cast<const LanguagesChunk*>(state.get());
    for (const LanguagesCandidate& cand : chunk->candidates) {
      if (!distinct_.insert(cand.hash)) continue;
      if (cand.lang < 0) continue;
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
  for (const std::uint32_t row : delta.added_rows) {
    if (table.is_dir(row)) continue;
    if (!distinct_.insert(table.path_hash(row))) continue;
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
  distinct_.save_state(w);
  w.vec(global_);
  w.vec2(result_.by_domain);
  return true;
}

bool LanguagesAnalyzer::load_state(StateReader& r) {
  FlatSet<IdentityKeyMix> distinct;
  std::vector<std::uint64_t> global;
  std::vector<std::vector<std::uint64_t>> by_domain;
  if (!distinct.load_state(r) || !r.vec(&global) || !r.vec2(&by_domain) ||
      !r.ok()) {
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
  distinct_ = std::move(distinct);
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
