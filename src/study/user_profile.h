// Fig 5: the profile of active users — "active" meaning the uid owns at
// least one file or directory in some snapshot — classified by organization
// type (5(a)) and by primary science domain (5(b)).
#pragma once

#include <string>
#include <vector>

#include "study/resolve.h"
#include "study/runner.h"

namespace spider {

struct UserProfileResult {
  std::size_t active_users = 0;
  std::size_t unknown_uids = 0;  // uids with no account-directory entry
  std::vector<std::size_t> by_org;     // indexed by OrgType
  std::vector<std::size_t> by_domain;  // indexed by domain
  double org_fraction(OrgType org) const;
};

class UserProfileAnalyzer : public StudyAnalyzer {
 public:
  explicit UserProfileAnalyzer(const Resolver& resolver);

  ColumnMask columns_needed() const override { return kColMaskUid; }
  std::unique_ptr<ScanChunkState> make_chunk_state() const override;
  void observe_chunk(ScanChunkState* state, const WeekObservation& obs,
                     const ScanMorsel& m) override;
  void merge(const WeekObservation& obs, ScanStateList states) override;

  /// Delta port: a dense user seen for the first time must ride on a row
  /// whose uid differs from last week, and chown moves ctime — so only
  /// touched rows can flip seen_ bits. The per-week unknown-uid total is
  /// rolled forward from the retained previous-week total by removing
  /// deleted/rewritten prev rows and adding new/rewritten cur rows.
  bool supports_delta() const override { return true; }
  void apply_delta(const WeekObservation& obs,
                   const WeekDelta& delta) override;
  void finish() override;

  std::string_view state_id() const override { return "user-profile"; }
  bool save_state(StateWriter& w) const override;
  bool load_state(StateReader& r) override;

  const UserProfileResult& result() const { return result_; }
  std::string render() const;

 private:
  const Resolver& resolver_;
  std::vector<std::uint8_t> seen_;  // by dense user index
  /// Previous snapshot's unknown-uid row count (the week's contribution to
  /// result_.unknown_uids); the base the delta path rolls forward from.
  std::size_t live_unknown_ = 0;
  UserProfileResult result_;
};

}  // namespace spider
