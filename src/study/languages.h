// Figs 11-12: programming-language popularity, ranked purely by counting
// files whose extensions map to a language (the paper's method, quirks
// included). Fig 11 compares the facility ranking against IEEE Spectrum;
// Fig 12 breaks language shares down per science domain.
#pragma once

#include <string>
#include <vector>

#include "engine/flat_map.h"
#include "study/resolve.h"
#include "study/runner.h"

namespace spider {

struct LanguageRank {
  std::string name;
  std::uint64_t files = 0;
  int our_rank = 0;   // 1-based
  int ieee_rank = 0;  // from the IEEE Spectrum list
};

struct LanguagesResult {
  /// All languages with nonzero counts, ordered by our rank.
  std::vector<LanguageRank> ranking;
  /// counts[domain][language index into languages()] over unique files.
  std::vector<std::vector<std::uint64_t>> by_domain;
  /// Top language per domain (index into languages(); -1 when none).
  int top_language(std::size_t domain) const;
  int second_language(std::size_t domain) const;
};

class LanguagesAnalyzer : public StudyAnalyzer {
 public:
  explicit LanguagesAnalyzer(const Resolver& resolver);

  ColumnMask columns_needed() const override {
    return kColMaskPaths | kColMaskGid | kColMaskMode;
  }
  std::unique_ptr<ScanChunkState> make_chunk_state() const override;
  void observe_chunk(ScanChunkState* state, const WeekObservation& obs,
                     const ScanMorsel& m) override;
  void merge(const WeekObservation& obs, ScanStateList states) override;

  /// Delta port: a matched row kept its path, so its hash is already in
  /// the first-seen set — only the week's new rows can contribute, and
  /// they arrive in the same ascending order the scan path inserts them.
  bool supports_delta() const override { return true; }
  void apply_delta(const WeekObservation& obs,
                   const WeekDelta& delta) override;
  void finish() override;

  std::string_view state_id() const override { return "languages"; }
  /// v2: the distinct-path set allocates lazily from 16 slots, so an
  /// empty or small set saves a different slot image.
  std::uint32_t state_version() const override { return 2; }
  bool save_state(StateWriter& w) const override;
  bool load_state(StateReader& r) override;

  const LanguagesResult& result() const { return result_; }
  std::string render() const;

 private:
  const Resolver& resolver_;
  FlatSet<IdentityKeyMix> distinct_;
  std::vector<std::uint64_t> global_;
  LanguagesResult result_;
};

}  // namespace spider
