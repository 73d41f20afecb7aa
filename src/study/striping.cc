#include "study/striping.h"

#include <sstream>

#include "util/table.h"

namespace spider {

StripingAnalyzer::StripingAnalyzer(const Resolver& resolver)
    : resolver_(resolver) {
  result_.by_domain.assign(domain_count(), StreamingStats{});
}

namespace {
struct StripingChunk : ScanChunkState {
  StreamingStats overall;
  std::vector<StreamingStats> by_domain;
  std::uint32_t max_stripe = 0;
};
}  // namespace

std::unique_ptr<ScanChunkState> StripingAnalyzer::make_chunk_state() const {
  auto chunk = std::make_unique<StripingChunk>();
  chunk->by_domain.assign(domain_count(), StreamingStats{});
  return chunk;
}

void StripingAnalyzer::observe_chunk(ScanChunkState* state,
                                     const WeekObservation&,
                                     const ScanMorsel& m) {
  auto* chunk = static_cast<StripingChunk*>(state);
  const SnapshotTable& table = *m.table;
  for (std::size_t i = m.begin; i < m.end; ++i) {
    const std::size_t r = m.local(i);
    if (table.is_dir(r)) continue;
    const std::uint32_t stripes = table.stripe_count(r);
    chunk->overall.add(stripes);
    chunk->max_stripe = std::max(chunk->max_stripe, stripes);
    const int domain = resolver_.domain_of_gid(table.gid(r));
    if (domain >= 0) {
      chunk->by_domain[static_cast<std::size_t>(domain)].add(stripes);
    }
  }
}

void StripingAnalyzer::merge(const WeekObservation&, ScanStateList states) {
  // Chunk-order folds keep the floating-point accumulation identical at
  // every thread count (StreamingStats::merge is order-sensitive).
  for (const auto& state : states) {
    const auto* chunk = static_cast<const StripingChunk*>(state.get());
    result_.overall.merge(chunk->overall);
    result_.max_stripe = std::max(result_.max_stripe, chunk->max_stripe);
    for (std::size_t d = 0; d < chunk->by_domain.size(); ++d) {
      result_.by_domain[d].merge(chunk->by_domain[d]);
    }
  }
}

void StripingAnalyzer::finish() {
  result_.domains_tuning = 0;
  result_.active_domains = 0;
  for (const StreamingStats& stats : result_.by_domain) {
    if (stats.count() == 0) continue;
    ++result_.active_domains;
    if (stats.min() != 4.0 || stats.max() != 4.0) ++result_.domains_tuning;
  }
}

std::string StripingAnalyzer::render() const {
  std::ostringstream os;
  os << "Fig 14: OST stripe counts per domain (default = 4)\n";
  AsciiTable t({"domain", "min", "avg", "max", "paper #OST"});
  const auto profiles = domain_profiles();
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    const StreamingStats& stats = result_.by_domain[d];
    if (stats.count() == 0) continue;
    t.add_row({profiles[d].id, format_double(stats.min(), 0),
               format_double(stats.mean(), 2), format_double(stats.max(), 0),
               std::to_string(profiles[d].ost_max)});
  }
  t.print(os);
  os << result_.domains_tuning << " of " << result_.active_domains
     << " domains tune stripe counts (paper: 20 of 35); max stripe "
     << result_.max_stripe << " (paper: 1,008)\n";
  return os.str();
}

}  // namespace spider
