#include "study/joblog.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "engine/diff.h"
#include "util/table.h"

namespace spider {

JobLogResult analyze_job_log(FacilityGenerator& generator,
                             const Resolver& resolver) {
  JobLogResult result;
  result.jobs_by_domain.assign(domain_count(), 0);

  // Jobs of the current snapshot interval accumulate here; each emitted
  // snapshot closes the interval.
  std::uint64_t interval_jobs = 0;
  std::vector<double> write_job_files;

  Snapshot prev;
  bool have_prev = false;

  generator.visit_with_jobs(
      [&](std::size_t, const Snapshot& snap) {
        if (have_prev) {
          const DiffResult diff =
              diff_snapshots_partitioned(prev.table, snap.table);
          result.jobs_per_interval.push_back(interval_jobs);
          result.new_files_per_interval.push_back(diff.new_rows.size());
        }
        interval_jobs = 0;
        // Retain the snapshot for the next interval's diff.
        prev.taken_at = snap.taken_at;
        prev.table = snap.table.clone();
        have_prev = true;
      },
      [&](const JobRecord& job) {
        const int domain =
            resolver.plan().projects[job.project].domain;
        ++result.jobs_by_domain[static_cast<std::size_t>(domain)];
        if (job.files_written > 0) {
          ++result.write_jobs;
          ++interval_jobs;
          result.files_written += job.files_written;
          write_job_files.push_back(static_cast<double>(job.files_written));
        }
        if (job.files_read > 0) {
          ++result.read_jobs;
          result.files_read += job.files_read;
        }
      });

  result.files_per_write_job = five_number_summary(write_job_files);

  std::vector<double> x, y;
  for (std::size_t i = 0; i < result.jobs_per_interval.size(); ++i) {
    x.push_back(static_cast<double>(result.jobs_per_interval[i]));
    y.push_back(static_cast<double>(result.new_files_per_interval[i]));
  }
  const LinearFit fit = linear_fit(x, y);
  result.job_newfile_correlation =
      (fit.slope < 0 ? -1.0 : 1.0) * std::sqrt(std::max(0.0, fit.r2));
  return result;
}

std::string render_job_log(const JobLogResult& result) {
  std::ostringstream os;
  os << "Job-log fusion (paper future work): " << result.write_jobs
     << " write jobs (" << format_with_commas(result.files_written)
     << " files), " << result.read_jobs << " read jobs ("
     << format_with_commas(result.files_read) << " file reads)\n";
  os << "files per write job (min/q25/med/q75/max): "
     << format_double(result.files_per_write_job.min, 0) << "/"
     << format_double(result.files_per_write_job.q25, 0) << "/"
     << format_double(result.files_per_write_job.median, 0) << "/"
     << format_double(result.files_per_write_job.q75, 0) << "/"
     << format_double(result.files_per_write_job.max, 0) << "\n";
  os << "weekly write jobs vs snapshot-diff new files: Pearson r = "
     << format_double(result.job_newfile_correlation, 3)
     << " — the metadata channel tracks scheduler activity\n";

  os << "\nbusiest domains by job count:\n";
  AsciiTable t({"domain", "jobs"});
  const auto profiles = domain_profiles();
  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    if (result.jobs_by_domain[d] > 0) {
      order.emplace_back(result.jobs_by_domain[d], d);
    }
  }
  std::sort(order.rbegin(), order.rend());
  for (std::size_t i = 0; i < 10 && i < order.size(); ++i) {
    t.add_row({profiles[order[i].second].id,
               format_with_commas(order[i].first)});
  }
  t.print(os);
  return os.str();
}

}  // namespace spider
