#include "synth/infer.h"

#include <algorithm>
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

}  // namespace

FacilityPlan infer_facility(SnapshotSource& source, InferenceStats* stats) {
  FacilityPlan plan;
  std::unordered_map<std::string, std::uint32_t> project_index;
  std::unordered_map<std::uint32_t, std::uint32_t> user_index;
  // Per-user entry counts per domain, to pick the primary domain.
  std::vector<std::unordered_map<int, std::uint64_t>> user_domain_counts;
  FlatSet<FingerprintKeyMix> membership_pairs;
  std::size_t unmatched = 0;

  source.visit([&](std::size_t, const Snapshot& snap) {
    const SnapshotTable& table = snap.table;
    for (std::size_t i = 0; i < table.size(); ++i) {
      const std::string_view project_name = path_project(table.path(i));
      if (project_name.empty()) continue;

      // Project: keyed by directory name; gid from the records.
      auto [pit, fresh_project] =
          project_index.try_emplace(std::string(project_name),
                                    static_cast<std::uint32_t>(
                                        plan.projects.size()));
      if (fresh_project) {
        ProjectInfo project;
        project.name = std::string(project_name);
        const int domain = domain_from_project_name(project_name);
        if (domain < 0) ++unmatched;
        project.domain = domain >= 0 ? domain : domain_index("gen");
        project.gid = table.gid(i);
        plan.projects.push_back(std::move(project));
      }
      const std::uint32_t project = pit->second;

      // User: keyed by uid.
      const std::uint32_t uid = table.uid(i);
      auto [uit, fresh_user] = user_index.try_emplace(
          uid, static_cast<std::uint32_t>(plan.users.size()));
      if (fresh_user) {
        UserAccount user;
        user.uid = uid;
        user.name = "uid" + std::to_string(uid);
        user.org = OrgType::kOther;  // no accounting database to join
        user.primary_domain = plan.projects[project].domain;
        plan.users.push_back(std::move(user));
        user_domain_counts.emplace_back();
      }
      const std::uint32_t user = uit->second;
      ++user_domain_counts[user][plan.projects[project].domain];

      const std::uint64_t pair_key =
          (static_cast<std::uint64_t>(user) << 32) | project;
      if (membership_pairs.insert(pair_key)) {
        plan.projects[project].members.push_back(user);
      }
    }
  });

  // Primary domain: where the user owns the most entries.
  for (std::uint32_t u = 0; u < plan.users.size(); ++u) {
    const auto& counts = user_domain_counts[u];
    std::uint64_t best = 0;
    for (const auto& [domain, count] : counts) {
      if (count > best) {
        best = count;
        plan.users[u].primary_domain = domain;
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

}  // namespace spider
