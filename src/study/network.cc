#include "study/network.h"

#include <sstream>

#include "util/table.h"

namespace spider {

void NetworkAnalyzer::finish() {
  const auto& plan = resolver_.plan();
  const auto& observed = participation_.result().observed;
  const std::uint32_t num_users =
      static_cast<std::uint32_t>(plan.users.size());
  const std::uint32_t num_projects =
      static_cast<std::uint32_t>(plan.projects.size());

  const BipartiteGraph network(num_users, num_projects, observed);
  const Graph& graph = network.graph();
  result_.edges = graph.edge_count();

  // Active entities only (degree > 0); isolated planned-but-unseen
  // vertices do not participate in the paper's statistics.
  std::vector<VertexId> active;
  for (std::size_t v = 0; v < graph.vertex_count(); ++v) {
    if (graph.degree(static_cast<VertexId>(v)) > 0) {
      active.push_back(static_cast<VertexId>(v));
      if (network.is_project_vertex(static_cast<VertexId>(v))) {
        ++result_.projects;
      } else {
        ++result_.users;
      }
    }
  }

  result_.power_law = degree_power_law_fit(graph);

  const ComponentInfo components = connected_components(graph);
  // Histogram over components that contain at least one edge (size >= 2);
  // isolated vertices are inactive entities.
  for (std::size_t c = 0; c < components.count; ++c) {
    if (components.size[c] >= 2) {
      ++result_.component_histogram[components.size[c]];
      ++result_.component_count;
    }
  }

  result_.center_projects_by_domain.assign(domain_count(), 0);
  result_.giant_share_by_domain.assign(domain_count(), 0.0);
  result_.giant_probability_by_domain.assign(domain_count(), 0.0);
  // No edge at all (participation observed no membership, or has not
  // finished yet): there is no giant component, so its figures stay zero.
  if (result_.component_count == 0) return;

  const std::vector<VertexId> giant = components.members(components.largest);
  result_.giant_vertices = giant.size();
  std::vector<std::uint32_t> giant_projects_by_domain(domain_count(), 0);
  std::vector<std::uint32_t> active_projects_by_domain(domain_count(), 0);
  for (const VertexId v : giant) {
    if (network.is_project_vertex(v)) {
      ++result_.giant_projects;
      const int d =
          plan.projects[network.project_of_vertex(v)].domain;
      ++giant_projects_by_domain[static_cast<std::size_t>(d)];
    } else {
      ++result_.giant_users;
    }
  }
  for (const VertexId v : active) {
    if (network.is_project_vertex(v)) {
      const int d = plan.projects[network.project_of_vertex(v)].domain;
      ++active_projects_by_domain[static_cast<std::size_t>(d)];
    }
  }

  const DiameterInfo diameter = component_diameter(graph, giant);
  result_.giant_diameter = diameter.diameter;
  result_.giant_radius = diameter.radius;
  result_.giant_center_entities = diameter.centers.size();
  for (const VertexId v : diameter.centers) {
    if (network.is_project_vertex(v)) {
      ++result_.center_projects;
      const int d = plan.projects[network.project_of_vertex(v)].domain;
      ++result_.center_projects_by_domain[static_cast<std::size_t>(d)];
    } else {
      ++result_.center_users;
    }
  }

  for (std::size_t d = 0; d < domain_count(); ++d) {
    if (result_.giant_projects > 0) {
      result_.giant_share_by_domain[d] =
          static_cast<double>(giant_projects_by_domain[d]) /
          static_cast<double>(result_.giant_projects);
    }
    if (active_projects_by_domain[d] > 0) {
      result_.giant_probability_by_domain[d] =
          static_cast<double>(giant_projects_by_domain[d]) /
          static_cast<double>(active_projects_by_domain[d]);
    }
  }
}

std::string NetworkAnalyzer::render() const {
  std::ostringstream os;
  os << "Fig 18: file-generation network — " << result_.users << " users, "
     << result_.projects << " projects, " << result_.edges << " edges\n"
     << "  degree power-law fit: slope "
     << format_double(result_.power_law.slope, 2) << ", R^2 "
     << format_double(result_.power_law.r2, 2)
     << " (paper: descending linear slope in log-log)\n";

  os << "\nTable 3: connected components (" << result_.component_count
     << " total; paper: 160)\n";
  AsciiTable hist({"size", "count"});
  for (const auto& [size, count] : result_.component_histogram) {
    hist.add_row({std::to_string(size), std::to_string(count)});
  }
  hist.print(os);
  os << "largest component: " << result_.giant_vertices << " vertices ("
     << result_.giant_users << " users + " << result_.giant_projects
     << " projects; paper: 1,259 = 1,051 + 208), diameter "
     << result_.giant_diameter << " (paper: 18), radius "
     << result_.giant_radius << " with " << result_.giant_center_entities
     << " center entities (paper: ~10-hop centers, 12 entities)\n";
  os << "network center: " << result_.center_users << " users + "
     << result_.center_projects << " projects [";
  bool first = true;
  const auto center_profiles = domain_profiles();
  for (std::size_t d = 0; d < center_profiles.size(); ++d) {
    if (result_.center_projects_by_domain[d] == 0) continue;
    if (!first) os << ", ";
    os << result_.center_projects_by_domain[d] << "x "
       << center_profiles[d].id;
    first = false;
  }
  os << "] (paper: 6 users + 6 projects [2x stf, 2x csc, 1x env, 1x chp])\n";

  os << "\nFig 19: giant-component membership by domain\n";
  AsciiTable fig19({"domain", "share of giant", "P(in giant)",
                    "paper Network %"});
  const auto profiles = domain_profiles();
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    if (result_.giant_share_by_domain[d] == 0 &&
        result_.giant_probability_by_domain[d] == 0) {
      continue;
    }
    fig19.add_row({profiles[d].id,
                   format_percent(result_.giant_share_by_domain[d]),
                   format_percent(result_.giant_probability_by_domain[d]),
                   format_double(profiles[d].network_pct, 1) + "%"});
  }
  fig19.print(os);
  return os.str();
}

}  // namespace spider
