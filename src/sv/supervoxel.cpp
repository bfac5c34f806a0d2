#include "sv/supervoxel.h"

#include <algorithm>

namespace mbir {

SvGrid::SvGrid(int image_size, SvGridOptions options)
    : image_size_(image_size), options_(options) {
  MBIR_CHECK(image_size >= 2);
  options.validate();
  const int side = options.sv_side;
  const int ov = options.boundary_overlap;

  grid_rows_ = (image_size + side - 1) / side;
  grid_cols_ = grid_rows_;

  svs_.reserve(std::size_t(grid_rows_) * std::size_t(grid_cols_));
  for (int gr = 0; gr < grid_rows_; ++gr) {
    for (int gc = 0; gc < grid_cols_; ++gc) {
      SuperVoxel sv;
      sv.id = int(svs_.size());
      sv.grid_r = gr;
      sv.grid_c = gc;
      sv.row0 = std::max(0, gr * side - ov);
      sv.row1 = std::min(image_size, (gr + 1) * side + ov);
      sv.col0 = std::max(0, gc * side - ov);
      sv.col1 = std::min(image_size, (gc + 1) * side + ov);
      svs_.push_back(sv);
    }
  }
}

std::array<std::vector<int>, 4> SvGrid::checkerboardGroups(
    const std::vector<int>& selected) const {
  std::array<std::vector<int>, 4> groups;
  for (int id : selected) {
    MBIR_CHECK(id >= 0 && id < count());
    groups[std::size_t(svs_[std::size_t(id)].checkerboardGroup())].push_back(id);
  }
  return groups;
}

bool SvGrid::svsShareVoxels(int a, int b) const {
  const SuperVoxel& sa = sv(a);
  const SuperVoxel& sb = sv(b);
  const bool rows_overlap = sa.row0 < sb.row1 && sb.row0 < sa.row1;
  const bool cols_overlap = sa.col0 < sb.col1 && sb.col0 < sa.col1;
  return rows_overlap && cols_overlap;
}

bool SvGrid::svSweepsConflict(int a, int b) const {
  const int n = image_size_;
  const auto ring_hits = [n](const SuperVoxel& u, const SuperVoxel& v) {
    const int r0 = std::max(0, u.row0 - 1), r1 = std::min(n, u.row1 + 1);
    const int c0 = std::max(0, u.col0 - 1), c1 = std::min(n, u.col1 + 1);
    return r0 < v.row1 && v.row0 < r1 && c0 < v.col1 && v.col0 < c1;
  };
  return ring_hits(sv(a), sv(b)) || ring_hits(sv(b), sv(a));
}

}  // namespace mbir
