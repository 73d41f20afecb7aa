#include "study/collaboration.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/table.h"

namespace spider {

void CollaborationAnalyzer::finish() {
  const auto& plan = resolver_.plan();
  const int stf = domain_index("stf");

  // Member lists with Staff projects blanked out. Participation sizes the
  // lists in its own finish(); until that ran they are empty, and so is
  // the collaboration result.
  std::vector<std::vector<std::uint32_t>> members =
      participation_.result().project_members;
  members.resize(plan.projects.size());
  std::vector<std::uint32_t> project_domain(plan.projects.size(), 0);
  for (std::size_t p = 0; p < plan.projects.size(); ++p) {
    project_domain[p] = static_cast<std::uint32_t>(plan.projects[p].domain);
    if (plan.projects[p].domain == stf) members[p].clear();
  }

  result_.stats = collaboration_stats(
      static_cast<std::uint32_t>(plan.users.size()), members, project_domain,
      domain_count());

  // Describe the extreme pair's shared projects by domain.
  const std::uint32_t a = result_.stats.max_pair_user_a;
  const std::uint32_t b = result_.stats.max_pair_user_b;
  std::map<int, int> shared_domains;
  for (std::size_t p = 0; p < members.size(); ++p) {
    const auto& m = members[p];
    if (std::find(m.begin(), m.end(), a) != m.end() &&
        std::find(m.begin(), m.end(), b) != m.end()) {
      ++shared_domains[plan.projects[p].domain];
    }
  }
  std::ostringstream desc;
  bool first = true;
  for (const auto& [domain, count] : shared_domains) {
    if (!first) desc << " + ";
    desc << count << "x " << domain_profiles()[static_cast<std::size_t>(domain)].id;
    first = false;
  }
  result_.max_pair_description = desc.str();
}

std::string CollaborationAnalyzer::render() const {
  std::ostringstream os;
  const CollaborationStats& stats = result_.stats;
  os << "Fig 20: collaboration across users (Staff excluded)\n"
     << "  user pairs total: " << format_with_commas(stats.total_user_pairs)
     << " (paper: ~0.93M)\n"
     << "  collaborating pairs: "
     << format_with_commas(stats.collaborating_pairs) << " ("
     << format_percent(stats.collaborating_fraction())
     << " of all pairs; paper: ~1%)\n"
     << "  extreme pair shares " << stats.max_shared_projects
     << " projects: " << result_.max_pair_description
     << " (paper: 6 = 5x cli + 1x csc)\n";

  AsciiTable t({"domain", "share of collaborating pairs", "paper Collab %"});
  const auto profiles = domain_profiles();
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    const double share = stats.domain_share(d);
    if (share == 0) continue;
    t.add_row({profiles[d].id, format_percent(share),
               format_double(profiles[d].collab_pct, 2) + "%"});
  }
  t.print(os);
  return os.str();
}

}  // namespace spider
