#include "synth/infer.h"

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_map>

#include "engine/flat_map.h"
#include "snapshot/record.h"

namespace spider {

namespace {

int domain_from_project_name(std::string_view name) {
  if (name.size() < 3) return domain_index("gen");
  const int d = domain_index(name.substr(0, 3));
  return d >= 0 ? d : -1;
}

/// Project names arrive as views into a reused path buffer; heterogeneous
/// lookup lets only a new project pay for a std::string.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view name) const {
    return std::hash<std::string_view>{}(name);
  }
};
using NameIndex =
    std::unordered_map<std::string, std::uint32_t, NameHash, std::equal_to<>>;

using PairCounts = FlatMap<std::uint64_t, FingerprintKeyMix>;

std::uint64_t pair_key(std::uint32_t user, std::uint32_t project) {
  return (static_cast<std::uint64_t>(user) << 32) | project;
}

/// First appearances and entry counts, in dense ids of its own: projects
/// and users in order of first appearance, and entries per (user,
/// project). One instance collects a week's rows; another merges the weeks
/// in slot order, which keeps first-appearance order across the series.
/// Rows cluster by owner and project directory, so add() keeps the current
/// run's key: a row that repeats it costs one comparison, and the maps are
/// touched only when the key changes.
class Facts {
 public:
  void add(std::string_view path, std::uint32_t uid, std::uint32_t gid) {
    const std::string_view name = path_project(path);
    if (name.empty()) return;
    if (run_rows_ > 0 && uid == run_uid_ && name == run_project_) {
      ++run_rows_;
      return;
    }
    end_run();
    run_uid_ = uid;
    run_project_.assign(name);
    run_key_ = pair_key(user_id(uid), project_id(name, gid));
    run_rows_ = 1;
  }

  /// Appends the week's first appearances that are new here, in the
  /// week's order, and adds its entry counts.
  void merge(Facts& week) {
    week.end_run();
    std::vector<std::uint32_t> project_of;
    project_of.reserve(week.projects_.size());
    for (const Project& project : week.projects_) {
      project_of.push_back(project_id(project.name, project.gid));
    }
    std::vector<std::uint32_t> user_of;
    user_of.reserve(week.uids_.size());
    for (const std::uint32_t uid : week.uids_) user_of.push_back(user_id(uid));
    week.entries_.for_each([&](std::uint64_t key, std::uint64_t rows) {
      entries_.slot(pair_key(user_of[key >> 32],
                             project_of[key & 0xffffffffu])) += rows;
    });
  }

  FacilityPlan plan(InferenceStats* stats) {
    end_run();
    FacilityPlan plan;
    std::size_t unmatched = 0;
    for (const Project& found : projects_) {
      ProjectInfo project;
      project.name = found.name;
      const int domain = domain_from_project_name(found.name);
      if (domain < 0) ++unmatched;
      project.domain = domain >= 0 ? domain : domain_index("gen");
      project.gid = found.gid;
      plan.projects.push_back(std::move(project));
    }
    for (const std::uint32_t uid : uids_) {
      UserAccount user;
      user.uid = uid;
      user.name = "uid" + std::to_string(uid);
      user.org = OrgType::kOther;  // no accounting database to join
      plan.users.push_back(std::move(user));
    }

    // Membership: every (user, project) pair with an entry. Primary
    // domain: the domain where the user owns the most entries.
    const std::size_t domains = domain_count();
    std::vector<std::uint64_t> per_domain(plan.users.size() * domains, 0);
    entries_.for_each([&](std::uint64_t key, std::uint64_t rows) {
      const auto user = static_cast<std::uint32_t>(key >> 32);
      ProjectInfo& project = plan.projects[key & 0xffffffffu];
      per_domain[user * domains + static_cast<std::size_t>(project.domain)] +=
          rows;
      project.members.push_back(user);
    });
    for (std::size_t u = 0; u < plan.users.size(); ++u) {
      std::uint64_t best = 0;
      for (std::size_t d = 0; d < domains; ++d) {
        const std::uint64_t rows = per_domain[u * domains + d];
        if (rows > 0 && rows >= best) {  // ties go to the higher index
          best = rows;
          plan.users[u].primary_domain = static_cast<int>(d);
        }
      }
    }

    std::size_t memberships = 0;
    for (std::uint32_t p = 0; p < plan.projects.size(); ++p) {
      auto& members = plan.projects[p].members;
      std::sort(members.begin(), members.end());
      for (const std::uint32_t u : members) {
        plan.memberships.push_back(MembershipEdge{u, p});
      }
      memberships += members.size();
      plan.project_by_gid[plan.projects[p].gid] = p;
      plan.project_by_name[plan.projects[p].name] = p;
    }
    for (std::uint32_t u = 0; u < plan.users.size(); ++u) {
      plan.user_by_uid[plan.users[u].uid] = u;
    }

    if (stats != nullptr) {
      stats->users = plan.users.size();
      stats->projects = plan.projects.size();
      stats->memberships = memberships;
      stats->unmatched_projects = unmatched;
    }
    return plan;
  }

 private:
  struct Project {
    std::string name;
    std::uint32_t gid = 0;  // of the project's first row
  };

  void end_run() {
    if (run_rows_ > 0) entries_.slot(run_key_) += run_rows_;
    run_rows_ = 0;
  }

  std::uint32_t project_id(std::string_view name, std::uint32_t gid) {
    if (const auto it = project_ids_.find(name); it != project_ids_.end()) {
      return it->second;
    }
    const auto id = static_cast<std::uint32_t>(projects_.size());
    project_ids_.emplace(std::string(name), id);
    projects_.push_back(Project{std::string(name), gid});
    return id;
  }

  std::uint32_t user_id(std::uint32_t uid) {
    if (const std::uint32_t* id = user_ids_.find(uid)) return *id;
    const auto id = static_cast<std::uint32_t>(uids_.size());
    user_ids_.slot(uid) = id;
    uids_.push_back(uid);
    return id;
  }

  std::vector<Project> projects_;
  std::vector<std::uint32_t> uids_;
  NameIndex project_ids_;
  FlatMap<std::uint32_t, FingerprintKeyMix> user_ids_;
  PairCounts entries_;  // (user << 32 | project) -> entries

  std::string run_project_;
  std::uint32_t run_uid_ = 0;
  std::uint64_t run_key_ = 0;
  std::uint64_t run_rows_ = 0;
};

}  // namespace

FacilityPlan infer_facility(SnapshotSource& source, InferenceStats* stats) {
  Facts series;
  // Resident weeks: in-memory sources, and the weeks a directory cannot
  // stream (its read seam, images the mapped reader cannot open).
  const auto merge_table = [&series](const SnapshotTable& table) {
    Facts week;
    for (std::size_t i = 0; i < table.size(); ++i) {
      week.add(table.path(i), table.uid(i), table.gid(i));
    }
    series.merge(week);
  };

  if (source.stable_snapshots()) {
    source.visit([&](std::size_t, const Snapshot& snap) {
      merge_table(snap.table);
    });
  } else {
    // Every week that can stream does: its paths, uid and gid are read
    // straight out of the mapped groups, and no table is built. Groups
    // fold through the reader's salvage policy in order, so strict damage
    // makes the week a gap and salvage drops only the damaged groups.
    source.visit_streaming(
        0, [](std::size_t, std::int64_t, std::uint64_t) { return true; },
        [&](std::size_t, Snapshot&& snap) { merge_table(snap.table); },
        [&](const WeekGroupStream& stream) {
          const ScolGroupReader& reader = *stream.reader;
          Facts week;
          const ScolGroupReader::OwnerRowFn add =
              [&week](std::string_view path, std::uint32_t uid,
                      std::uint32_t gid) { week.add(path, uid, gid); };
          SalvageReport report = reader.make_report();
          for (std::size_t g = 0; g < reader.group_count(); ++g) {
            Status s = reader.scan_owners(g, add);
            if (s.ok()) {
              reader.note_success(g, &report);
            } else if (!(s = reader.dispose_failure(g, std::move(s), &report))
                            .ok()) {
              return s;
            }
          }
          series.merge(week);
          return Status();
        });
  }
  return series.plan(stats);
}

}  // namespace spider
