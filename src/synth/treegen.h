// Per-project directory tree generation.
//
// Trees follow the paper's observations: user directories sit at a fixed
// shallow prefix (/lustre/atlas2/<project>/<user>), typical directory
// depths are domain-calibrated (Table 1 gives median/max per domain), most
// files land in a few "hot" directories (Fig 7(b): only ~15% of entries are
// directories), purge never removes directories, and two special projects
// carry pathological chains (depth 432 in General, 2,030 in Staff — the
// metadata stress tests the paper calls out).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/flat_map.h"
#include "synth/domains.h"
#include "util/prng.h"

namespace spider {

class ProjectTree {
 public:
  /// `root` is the project directory, e.g. "/lustre/atlas2/cli104".
  /// The tree starts with just the root; user directories and content
  /// directories are added through the grow calls below.
  ProjectTree(std::string root, const DomainProfile& profile, Rng rng);

  /// Ensures /<root>/<user> exists; returns its directory id.
  std::size_t ensure_user_dir(std::string_view user_name, std::uint32_t uid);

  /// Adds `count` content directories under a random user directory,
  /// with target depths sampled from the domain profile. Directories are
  /// never removed (purge deletes files only).
  void grow(std::size_t count);

  /// Adds one deep chain reaching `target_depth` path components (the
  /// stress-test trees). Chain directories are cold (never hot).
  void add_deep_chain(std::size_t target_depth, std::uint32_t uid);

  std::size_t dir_count() const { return paths_.size(); }
  const std::string& dir_path(std::size_t id) const { return paths_[id]; }
  std::uint16_t dir_depth(std::size_t id) const { return depths_[id]; }
  std::uint32_t dir_uid(std::size_t id) const { return uids_[id]; }
  std::int64_t dir_ctime(std::size_t id) const { return ctimes_[id]; }

  /// Marks directory creation times; dirs created by grow()/chains after
  /// this call are stamped with `now`.
  void set_clock(std::int64_t now) { now_ = now; }

  /// Samples a directory to place files into: heavily biased toward a
  /// small hot set, so most files cluster in few directories.
  std::size_t sample_file_dir(Rng& rng) const;

 private:
  std::size_t add_dir(std::size_t parent, std::string_view name,
                      std::uint32_t uid, bool can_be_hot);

  const DomainProfile& profile_;
  Rng rng_;
  std::int64_t now_ = 0;
  std::vector<std::string> paths_;
  std::vector<std::uint16_t> depths_;
  std::vector<std::uint32_t> uids_;
  std::vector<std::int64_t> ctimes_;
  std::vector<std::uint32_t> user_dirs_;  // ids of user directories
  std::vector<std::uint32_t> hot_dirs_;   // preferred file targets
  std::size_t chain_count_ = 0;
  FlatSet<IdentityKeyMix> path_hashes_;  // duplicate-path guard
};

}  // namespace spider
