// Test-side builder for legacy v1 .scol images (magic SCOL0001, u64 row
// count, one whole-table column set). The library no longer writes v1, but
// it must decode v1 forever, so the compat tests need images to feed it.
//
// No column is encoded here: a v1 body is exactly the column set that the
// only group of a one-group v2 image holds (both layouts emit it through
// the same encoder), so the builder copies that group's bytes behind the v1
// header.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "snapshot/scol.h"

namespace spider {

/// The v1 image of `table` under `options`' encoding knobs. `table` must
/// be non-empty (a one-group v2 image needs at least one row).
inline std::vector<std::uint8_t> scol_v1_image(const SnapshotTable& table,
                                               ScolOptions options = {}) {
  options.group_size = std::max<std::size_t>(1, table.size());
  const std::vector<std::uint8_t> v2 = encode_scol(table, options);
  ScolV2Layout layout;
  const Status s = parse_scol_v2_layout(v2, &layout);
  if (!s.ok() || layout.group_begin.size() != 1) {
    ADD_FAILURE() << "expected a one-group v2 image: " << s.to_string();
    return {};
  }
  std::vector<std::uint8_t> image = {'S', 'C', 'O', 'L', '0', '0', '0', '1'};
  const std::uint64_t rows = table.size();
  for (int byte = 0; byte < 8; ++byte) {
    image.push_back(static_cast<std::uint8_t>(rows >> (8 * byte)));
  }
  const auto group = v2.begin() + static_cast<std::ptrdiff_t>(
                                      layout.group_begin[0]);
  image.insert(image.end(), group,
               group + static_cast<std::ptrdiff_t>(layout.group_len[0]));
  return image;
}

}  // namespace spider
