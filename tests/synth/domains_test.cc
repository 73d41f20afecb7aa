#include "synth/domains.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "synth/langmap.h"

namespace spider {
namespace {

TEST(DomainsTest, ThirtyFiveDomains380Projects) {
  EXPECT_EQ(domain_count(), 35u);
  EXPECT_EQ(total_projects(), 380);  // the paper's §1 headline
}

TEST(DomainsTest, TagsAreUniqueThreeLetter) {
  std::set<std::string> tags;
  for (const DomainProfile& d : domain_profiles()) {
    EXPECT_EQ(std::string(d.id).size(), 3u);
    EXPECT_TRUE(tags.insert(d.id).second) << d.id;
  }
}

TEST(DomainsTest, LookupByTag) {
  EXPECT_GE(domain_index("cli"), 0);
  EXPECT_GE(domain_index("stf"), 0);
  EXPECT_EQ(domain_index("cli"),
            static_cast<int>(&domain_profiles()[static_cast<std::size_t>(
                                 domain_index("cli"))] -
                             domain_profiles().data()));
  EXPECT_EQ(domain_index("zzz"), -1);
}

TEST(DomainsTest, Table1ValuesAreSane) {
  for (const DomainProfile& d : domain_profiles()) {
    EXPECT_GT(d.projects, 0) << d.id;
    EXPECT_GE(d.entries_k, 0.0) << d.id;
    EXPECT_GE(d.depth_median, 3) << d.id;
    EXPECT_GE(d.depth_max, d.depth_median) << d.id;
    EXPECT_GE(d.ost_max, 2) << d.id;
    EXPECT_GE(d.network_pct, 0.0) << d.id;
    EXPECT_LE(d.network_pct, 100.0) << d.id;
    EXPECT_GT(d.dir_fraction, 0.0) << d.id;
    EXPECT_LT(d.dir_fraction, 1.0) << d.id;
    EXPECT_GE(d.median_project_users, 1) << d.id;
    // Top-extension shares are percentages and descending.
    EXPECT_GE(d.top_ext[0].percent, d.top_ext[1].percent) << d.id;
    EXPECT_GE(d.top_ext[1].percent, d.top_ext[2].percent) << d.id;
    EXPECT_LE(d.top_ext[0].percent, 100.0) << d.id;
    // Languages must exist in the language map.
    EXPECT_GE(language_index(d.lang1), 0) << d.id << " " << d.lang1;
    EXPECT_GE(language_index(d.lang2), 0) << d.id << " " << d.lang2;
  }
}

TEST(DomainsTest, KeyPaperRowsTranscribed) {
  const auto& cli = domain_profiles()[static_cast<std::size_t>(domain_index("cli"))];
  EXPECT_EQ(cli.projects, 21);
  EXPECT_STREQ(cli.top_ext[0].ext, "nc");
  EXPECT_NEAR(cli.collab_pct, 45.80, 1e-9);
  EXPECT_NEAR(cli.network_pct, 76.19, 1e-9);

  const auto& stf = domain_profiles()[static_cast<std::size_t>(domain_index("stf"))];
  EXPECT_EQ(stf.depth_max, 2030);

  const auto& gen = domain_profiles()[static_cast<std::size_t>(domain_index("gen"))];
  EXPECT_EQ(gen.depth_max, 432);

  const auto& ast = domain_profiles()[static_cast<std::size_t>(domain_index("ast"))];
  EXPECT_EQ(ast.ost_max, 122);
  EXPECT_TRUE(ast.wide_stripes);

  const auto& csc = domain_profiles()[static_cast<std::size_t>(domain_index("csc"))];
  EXPECT_EQ(csc.projects, 62);  // the largest domain
}

TEST(LangmapTest, ExtensionLookup) {
  EXPECT_EQ(languages()[static_cast<std::size_t>(
                            language_for_extension("c"))].name,
            std::string("C"));
  EXPECT_EQ(languages()[static_cast<std::size_t>(
                            language_for_extension("f90"))].name,
            std::string("Fortran"));
  // The paper's quirk: .pl counts as Prolog.
  EXPECT_EQ(languages()[static_cast<std::size_t>(
                            language_for_extension("pl"))].name,
            std::string("Prolog"));
  // Case sensitivity: .F is Fortran, .R is R.
  EXPECT_EQ(languages()[static_cast<std::size_t>(
                            language_for_extension("F"))].name,
            std::string("Fortran"));
  EXPECT_EQ(languages()[static_cast<std::size_t>(
                            language_for_extension("R"))].name,
            std::string("R"));
  // Data extensions must NOT map to languages.
  EXPECT_EQ(language_for_extension("d"), -1);    // Materials ".d" data
  EXPECT_EQ(language_for_extension("mat"), -1);  // Matlab *data*
  EXPECT_EQ(language_for_extension("nc"), -1);
  EXPECT_EQ(language_for_extension(""), -1);
}

TEST(LangmapTest, NoExtensionOwnedByTwoLanguages) {
  std::set<std::string> seen;
  for (const LanguageInfo& lang : languages()) {
    for (const char* const* e = lang.exts; *e != nullptr; ++e) {
      EXPECT_TRUE(seen.insert(*e).second)
          << "extension " << *e << " mapped twice";
    }
  }
}

TEST(LangmapTest, IndexRoundTrip) {
  for (const LanguageInfo& lang : languages()) {
    const int i = language_index(lang.name);
    ASSERT_GE(i, 0);
    EXPECT_EQ(languages()[static_cast<std::size_t>(i)].name,
              std::string(lang.name));
  }
  EXPECT_EQ(language_index("Brainfuck"), -1);
}

/// language_for_extension as a linear scan over every language's list,
/// the first language listing an extension winning: the oracle for the
/// hashed lookup.
int linear_language_for_extension(std::string_view ext) {
  if (ext.empty()) return -1;
  const auto langs = languages();
  for (std::size_t i = 0; i < langs.size(); ++i) {
    for (const char* const* e = langs[i].exts; *e != nullptr; ++e) {
      if (ext == *e) return static_cast<int>(i);
    }
  }
  return -1;
}

TEST(LangmapTest, HashedLookupMatchesTheLinearScan) {
  std::vector<std::string> inputs = {"F", "f", "R", "r", "d", "dat", "PY",
                                     ""};
  for (const LanguageInfo& lang : languages()) {
    for (const char* const* e = lang.exts; *e != nullptr; ++e) {
      inputs.emplace_back(*e);
    }
  }
  for (const std::string& ext : inputs) {
    EXPECT_EQ(language_for_extension(ext), linear_language_for_extension(ext))
        << "extension '" << ext << "'";
  }
}

}  // namespace
}  // namespace spider
