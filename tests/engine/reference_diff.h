// Serial reference for the adjacent-snapshot diff (engine/diff.h), written
// to share nothing with the joins it checks: one std::unordered_map per
// side of the previous week (files and directories), keyed by the path
// string itself. It reads no path_hash, no slot table and no match flag
// array of the engine, so a defect in the hash, the slot walk or the
// kernel's splice cannot hide on both sides of a comparison.
//
// Semantics follow the DiffResult contract: the first row wins when a
// path repeats within a side (as the indexes keep it), DiffOptions'
// prev_rows and dirs add the prev-row mapping and the directory diff, and
// every list comes out in ascending row order. expect_same_diff compares
// two results field by field.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "engine/diff.h"
#include "snapshot/table.h"

namespace spider {

/// Path -> the first row of `table` with that path, over its directory
/// rows (`dirs`) or its file rows. The keys view the table's paths.
inline std::unordered_map<std::string_view, std::uint32_t> reference_rows(
    const SnapshotTable& table, bool dirs) {
  std::unordered_map<std::string_view, std::uint32_t> rows;
  for (std::size_t row = 0; row < table.size(); ++row) {
    if (table.is_dir(row) == dirs) {
      rows.emplace(table.path(row), static_cast<std::uint32_t>(row));
    }
  }
  return rows;
}

inline DiffResult reference_diff(const SnapshotTable& prev,
                                 const SnapshotTable& cur,
                                 const DiffOptions& options = {}) {
  const auto prev_files = reference_rows(prev, /*dirs=*/false);
  const auto prev_dirs = reference_rows(prev, /*dirs=*/true);

  DiffResult out;
  out.prev_files = prev.file_count();
  out.cur_files = cur.file_count();
  out.has_prev_rows = options.prev_rows;
  out.has_dir_diff = options.dirs;
  std::vector<bool> matched(prev.size(), false);
  for (std::size_t r = 0; r < cur.size(); ++r) {
    const auto row = static_cast<std::uint32_t>(r);
    const bool is_dir = cur.is_dir(row);
    if (is_dir && !options.dirs) continue;
    const auto& side = is_dir ? prev_dirs : prev_files;
    const auto hit = side.find(cur.path(row));
    if (hit == side.end()) {
      (is_dir ? out.new_dir_rows : out.new_rows).push_back(row);
      continue;
    }
    const std::uint32_t p = hit->second;
    matched[p] = true;
    const bool atime_moved = cur.atime(row) != prev.atime(p);
    const bool mtime_moved = cur.mtime(row) != prev.mtime(p);
    const bool ctime_moved = cur.ctime(row) != prev.ctime(p);
    if (is_dir) {
      if (atime_moved || mtime_moved || ctime_moved) {
        out.changed_dir_rows.push_back(row);
        out.changed_dir_prev_rows.push_back(p);
      }
      continue;
    }
    std::vector<std::uint32_t>* rows = &out.untouched_rows;
    std::vector<std::uint32_t>* prev_rows = &out.untouched_prev_rows;
    if (mtime_moved || ctime_moved) {
      rows = &out.updated_rows;
      prev_rows = &out.updated_prev_rows;
    } else if (atime_moved) {
      rows = &out.readonly_rows;
      prev_rows = &out.readonly_prev_rows;
    }
    rows->push_back(row);
    if (options.prev_rows) prev_rows->push_back(p);
  }

  for (std::size_t r = 0; r < prev.size(); ++r) {
    if (matched[r]) continue;
    if (!prev.is_dir(r)) {
      out.deleted_rows.push_back(static_cast<std::uint32_t>(r));
    } else if (options.dirs) {
      out.deleted_dir_rows.push_back(static_cast<std::uint32_t>(r));
    }
  }
  return out;
}

/// Every list, flag and count of `got` equals `want`'s; `label` prefixes
/// each failure.
inline void expect_same_diff(const DiffResult& got, const DiffResult& want,
                             const std::string& label = {}) {
  EXPECT_EQ(got.new_rows, want.new_rows) << label;
  EXPECT_EQ(got.readonly_rows, want.readonly_rows) << label;
  EXPECT_EQ(got.updated_rows, want.updated_rows) << label;
  EXPECT_EQ(got.untouched_rows, want.untouched_rows) << label;
  EXPECT_EQ(got.deleted_rows, want.deleted_rows) << label;
  EXPECT_EQ(got.prev_files, want.prev_files) << label;
  EXPECT_EQ(got.cur_files, want.cur_files) << label;
  EXPECT_EQ(got.has_prev_rows, want.has_prev_rows) << label;
  EXPECT_EQ(got.readonly_prev_rows, want.readonly_prev_rows) << label;
  EXPECT_EQ(got.updated_prev_rows, want.updated_prev_rows) << label;
  EXPECT_EQ(got.untouched_prev_rows, want.untouched_prev_rows) << label;
  EXPECT_EQ(got.has_dir_diff, want.has_dir_diff) << label;
  EXPECT_EQ(got.new_dir_rows, want.new_dir_rows) << label;
  EXPECT_EQ(got.changed_dir_rows, want.changed_dir_rows) << label;
  EXPECT_EQ(got.changed_dir_prev_rows, want.changed_dir_prev_rows) << label;
  EXPECT_EQ(got.deleted_dir_rows, want.deleted_dir_rows) << label;
}

}  // namespace spider
