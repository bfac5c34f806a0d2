// SuperVoxel partitioning (PSV-ICD / GPU-ICD, paper §2.2 and §3.2).
//
// A SuperVoxel (SV) is a square block of neighbouring voxels whose sinogram
// traces overlap heavily; giving each SV a private sinogram buffer (SVB)
// converts the sinusoidal global access pattern into near-linear local
// accesses. Adjacent SVs share `boundary_overlap` voxels on each side for
// faster convergence (§3.2). Only SVs whose sweeps do not conflict (no
// shared voxels, no write into the other's 1-voxel prior ring) can be
// updated concurrently without voxel/error-sinogram correspondence races.
// GPU-ICD gets there by launching 4 checkerboard groups one after another;
// PSV-ICD claims SVs in selection order and never starts one that conflicts
// with an SV still in flight (SvGrid::svSweepsConflict).
#pragma once

#include <array>
#include <vector>

#include "core/error.h"

namespace mbir {

struct SvGridOptions {
  /// Side of the SV tile in voxels (paper tunes 9..49; CPU best 13, GPU 33).
  int sv_side = 16;
  /// Voxels shared with each adjacent SV on every side.
  int boundary_overlap = 1;

  void validate() const {
    MBIR_CHECK_MSG(sv_side >= 2, "sv_side=" << sv_side);
    MBIR_CHECK(boundary_overlap >= 0);
    MBIR_CHECK_MSG(boundary_overlap < sv_side,
                   "overlap " << boundary_overlap << " >= side " << sv_side);
  }
};

struct SuperVoxel {
  int id = 0;
  int grid_r = 0, grid_c = 0;  ///< tile coordinates in the SV grid
  /// Covered voxel ranges [row0, row1) x [col0, col1), overlap included.
  int row0 = 0, row1 = 0, col0 = 0, col1 = 0;

  int numRows() const { return row1 - row0; }
  int numCols() const { return col1 - col0; }
  int numVoxels() const { return numRows() * numCols(); }

  /// Checkerboard group in {0, 1, 2, 3}: (grid_r & 1) * 2 + (grid_c & 1).
  /// Same-group SVs are at least one full tile apart on both axes, so they
  /// never share boundary voxels.
  int checkerboardGroup() const { return (grid_r & 1) * 2 + (grid_c & 1); }

  /// Flat image voxel index of local voxel k (row-major within the SV).
  int voxelAt(int k, int image_size) const {
    const int r = row0 + k / numCols();
    const int c = col0 + k % numCols();
    return r * image_size + c;
  }

  bool containsVoxel(int row, int col) const {
    return row >= row0 && row < row1 && col >= col0 && col < col1;
  }
};

/// The SV tiling of an image.
class SvGrid {
 public:
  SvGrid(int image_size, SvGridOptions options);

  int imageSize() const { return image_size_; }
  const SvGridOptions& options() const { return options_; }
  int count() const { return int(svs_.size()); }
  int gridRows() const { return grid_rows_; }
  int gridCols() const { return grid_cols_; }
  const SuperVoxel& sv(int id) const { return svs_[std::size_t(id)]; }
  const std::vector<SuperVoxel>& all() const { return svs_; }

  /// Partition `selected` SV ids into the 4 checkerboard groups, preserving
  /// the order given (GPU-ICD launches the groups one after another,
  /// Alg. 3 line 24).
  std::array<std::vector<int>, 4> checkerboardGroups(
      const std::vector<int>& selected) const;

  /// True if SVs a and b share at least one voxel (overlap touching).
  bool svsShareVoxels(int a, int b) const;

  /// True if the sweeps of SVs a and b must not run concurrently: a's rect
  /// grown by the 1-voxel prior read ring (clamped to the image) meets b's
  /// rect, or vice versa. Shared voxels are subsumed (touching rects always
  /// meet the other's ring). Holds for any boundary_overlap, up to
  /// sv_side - 1.
  bool svSweepsConflict(int a, int b) const;

 private:
  int image_size_;
  SvGridOptions options_;
  int grid_rows_, grid_cols_;
  std::vector<SuperVoxel> svs_;
};

}  // namespace mbir
