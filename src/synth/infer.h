// Facility inference: reconstructs the account structure (users, projects,
// domains, memberships) from the snapshots alone, so the study runs on
// *external* LustreDU data where no ground-truth plan exists — the mode the
// paper itself operated in, joining snapshot UIDs against the accounting
// database. Without that database, organizations are unknown (kOther) and
// science domains are guessed from the project-name prefix (OLCF project
// ids start with their domain tag: cli104, nph07, ...).
#pragma once

#include "snapshot/series.h"
#include "synth/plan.h"

namespace spider {

struct InferenceStats {
  std::size_t users = 0;
  std::size_t projects = 0;
  std::size_t memberships = 0;
  /// Projects whose name prefix did not match any known domain tag; they
  /// are filed under General ("gen").
  std::size_t unmatched_projects = 0;
};

/// Reads every week of `source` and returns a plan suitable for
/// Resolver/FullStudy: the weeks on the pool, merged in slot order. Each
/// week collects its own first appearances and entry counts, on whichever
/// thread reads it, and the weeks then merge in slot order, so the plan is
/// the same at any pool width and in any completion order. `pool` (null =
/// the process-global pool) reads the weeks of a source that can read
/// them apart (DirectorySeries::visit_concurrent), one week per task;
/// other sources are read in order on the calling thread. Users and
/// projects are ordered by first appearance (weeks in slot order, rows in
/// row order); a project's gid is its first row's. A user's primary domain
/// is the domain where they own the most entries; a tie goes to the
/// highest domain index.
///
/// Only paths, uid and gid are read. A week a DirectorySeries can stream is
/// scanned straight out of its mapped row groups, with no table built
/// (ScolGroupReader::scan_owners); its salvage policy drops damaged groups,
/// and strict damage makes the week a gap, as a decode would. Other weeks
/// — in-memory series, a configured read seam, images the mapped reader
/// cannot open — are read from their decoded tables. Stable sources are
/// visited in place, in order. The source is left without a projection.
FacilityPlan infer_facility(SnapshotSource& source,
                            InferenceStats* stats = nullptr,
                            ThreadPool* pool = nullptr);

}  // namespace spider
