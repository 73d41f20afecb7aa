// End-to-end persistence: saving a generated series to .scol files and
// re-analyzing through DirectorySeries + inferred accounts must reproduce
// the direct in-memory analysis — the external-data path of the library.
#include <gtest/gtest.h>

#include <filesystem>

#include "study/full_study.h"
#include "synth/generator.h"
#include "synth/infer.h"

namespace spider {
namespace {

TEST(PersistenceTest, DiskRoundTripMatchesDirectAnalysis) {
  FacilityConfig config;
  config.scale = 0.00002;
  config.weeks = 12;
  FacilityGenerator generator(config);

  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "spider_persist_test")
          .string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(save_series(generator, dir).ok());

  DirectorySeries series;
  ASSERT_TRUE(series.open(dir).ok());
  ASSERT_EQ(series.count(), generator.count());

  // Direct analysis with the ground-truth plan.
  Resolver truth_resolver(generator.plan());
  GrowthAnalyzer direct_growth;
  CensusAnalyzer direct_census(truth_resolver);
  {
    StudyAnalyzer* analyzers[] = {&direct_growth, &direct_census};
    run_study(generator, analyzers);
  }

  // Disk analysis with the inferred plan.
  const FacilityPlan inferred = infer_facility(series);
  Resolver disk_resolver(inferred);
  GrowthAnalyzer disk_growth;
  CensusAnalyzer disk_census(disk_resolver);
  {
    StudyAnalyzer* analyzers[] = {&disk_growth, &disk_census};
    run_study(series, analyzers);
  }

  // Growth curves identical (format round trip is lossless).
  ASSERT_EQ(disk_growth.result().points.size(),
            direct_growth.result().points.size());
  for (std::size_t i = 0; i < disk_growth.result().points.size(); ++i) {
    EXPECT_EQ(disk_growth.result().points[i].files,
              direct_growth.result().points[i].files) << "week " << i;
    EXPECT_EQ(disk_growth.result().points[i].dirs,
              direct_growth.result().points[i].dirs) << "week " << i;
  }

  // Census totals identical; per-domain counts agree because inference
  // recovers domains from project-name prefixes.
  EXPECT_EQ(disk_census.result().total_files,
            direct_census.result().total_files);
  EXPECT_EQ(disk_census.result().total_dirs,
            direct_census.result().total_dirs);
  for (std::size_t d = 0; d < domain_count(); ++d) {
    EXPECT_EQ(disk_census.result().files_by_domain[d],
              direct_census.result().files_by_domain[d])
        << domain_profiles()[d].id;
  }

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace spider
