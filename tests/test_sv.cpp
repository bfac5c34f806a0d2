// Tests for SuperVoxel machinery: grid partitioning, checkerboard groups,
// SVB bands, both SVB layouts, and the gather/delta-writeback protocol.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "core/rng.h"
#include "sv/supervoxel.h"
#include "sv/svb.h"
#include "test_util.h"

namespace mbir {
namespace {

class SvSideParam : public ::testing::TestWithParam<int> {};

TEST_P(SvSideParam, GridCoversEveryVoxelAtLeastOnce) {
  const int n = 32;
  SvGrid grid(n, {.sv_side = GetParam(), .boundary_overlap = 1});
  std::vector<int> cover(std::size_t(n) * std::size_t(n), 0);
  for (const SuperVoxel& sv : grid.all())
    for (int r = sv.row0; r < sv.row1; ++r)
      for (int c = sv.col0; c < sv.col1; ++c)
        cover[std::size_t(r) * std::size_t(n) + std::size_t(c)]++;
  for (int v : cover) EXPECT_GE(v, 1);
}

TEST_P(SvSideParam, CheckerboardGroupsShareNoVoxels) {
  const int n = 48;
  SvGrid grid(n, {.sv_side = GetParam(), .boundary_overlap = 1});
  std::vector<int> all(std::size_t(grid.count()));
  for (int i = 0; i < grid.count(); ++i) all[std::size_t(i)] = i;
  const auto groups = grid.checkerboardGroups(all);
  std::size_t total = 0;
  for (const auto& group : groups) {
    total += group.size();
    for (std::size_t i = 0; i < group.size(); ++i)
      for (std::size_t j = i + 1; j < group.size(); ++j)
        EXPECT_FALSE(grid.svsShareVoxels(group[i], group[j]))
            << "side=" << GetParam() << " svs " << group[i] << "," << group[j];
  }
  EXPECT_EQ(total, std::size_t(grid.count()));
}

INSTANTIATE_TEST_SUITE_P(Sides, SvSideParam, ::testing::Values(4, 7, 8, 13, 16, 31));

TEST(SvGrid, OverlapExtendsRanges) {
  SvGrid grid(32, {.sv_side = 8, .boundary_overlap = 2});
  const SuperVoxel& interior = grid.sv(1 * grid.gridCols() + 1);
  EXPECT_EQ(interior.row0, 8 - 2);
  EXPECT_EQ(interior.row1, 16 + 2);
  // Border SVs clip at the image edge.
  const SuperVoxel& corner = grid.sv(0);
  EXPECT_EQ(corner.row0, 0);
  EXPECT_EQ(corner.col0, 0);
}

TEST(SvGrid, AdjacentSvsShareBoundary) {
  SvGrid grid(32, {.sv_side = 8, .boundary_overlap = 1});
  EXPECT_TRUE(grid.svsShareVoxels(0, 1));
  EXPECT_TRUE(grid.svsShareVoxels(0, grid.gridCols()));
  EXPECT_FALSE(grid.svsShareVoxels(0, 2));
}

TEST(SvGrid, NoOverlapNoSharing) {
  SvGrid grid(32, {.sv_side = 8, .boundary_overlap = 0});
  EXPECT_FALSE(grid.svsShareVoxels(0, 1));
}

TEST(SvGrid, SweepConflictCoversThePriorRing) {
  // Without overlap, adjacent SVs share no voxel but still read each
  // other's edge through the 1-voxel prior ring; one tile apart they are
  // independent.
  SvGrid flush(32, {.sv_side = 8, .boundary_overlap = 0});
  EXPECT_TRUE(flush.svSweepsConflict(0, 1));
  EXPECT_TRUE(flush.svSweepsConflict(0, flush.gridCols() + 1));  // diagonal
  EXPECT_FALSE(flush.svSweepsConflict(0, 2));
  // The largest overlap reaches past the neighbouring tile.
  SvGrid wide(32, {.sv_side = 8, .boundary_overlap = 7});
  EXPECT_TRUE(wide.svSweepsConflict(0, 2));
  EXPECT_FALSE(wide.svSweepsConflict(0, 3));
  for (int a = 0; a < wide.count(); ++a)
    for (int b = 0; b < wide.count(); ++b) {
      EXPECT_EQ(wide.svSweepsConflict(a, b), wide.svSweepsConflict(b, a));
      if (wide.svsShareVoxels(a, b)) EXPECT_TRUE(wide.svSweepsConflict(a, b));
    }
}

TEST(SvGrid, VoxelAtRoundTrips) {
  SvGrid grid(32, {.sv_side = 8, .boundary_overlap = 1});
  const SuperVoxel& sv = grid.sv(3);
  for (int k = 0; k < sv.numVoxels(); k += 5) {
    const int voxel = sv.voxelAt(k, 32);
    const int r = voxel / 32, c = voxel % 32;
    EXPECT_TRUE(sv.containsVoxel(r, c));
  }
}

TEST(SvGrid, RejectsBadOptions) {
  EXPECT_THROW(SvGrid(32, {.sv_side = 1, .boundary_overlap = 0}), Error);
  EXPECT_THROW(SvGrid(32, {.sv_side = 4, .boundary_overlap = 4}), Error);
}

TEST(SvGrid, CheckerboardGroupFormula) {
  SvGrid grid(64, {.sv_side = 8, .boundary_overlap = 1});
  for (const SuperVoxel& sv : grid.all()) {
    EXPECT_EQ(sv.checkerboardGroup(), (sv.grid_r % 2) * 2 + (sv.grid_c % 2));
    EXPECT_GE(sv.checkerboardGroup(), 0);
    EXPECT_LT(sv.checkerboardGroup(), 4);
  }
}

// ---------- SVB plans ----------

class SvbFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = test::tinyGeometry();
    A_ = test::cachedMatrix(g_);
    grid_ = std::make_unique<SvGrid>(g_.image_size,
                                     SvGridOptions{.sv_side = 8, .boundary_overlap = 1});
  }
  ParallelBeamGeometry g_;
  std::shared_ptr<const SystemMatrix> A_;
  std::unique_ptr<SvGrid> grid_;
};

TEST_F(SvbFixture, BandCoversEveryVoxelRun) {
  for (int s = 0; s < grid_->count(); ++s) {
    const SvbPlan plan(g_, grid_->sv(s));
    const SuperVoxel& sv = grid_->sv(s);
    for (int k = 0; k < sv.numVoxels(); ++k) {
      const std::size_t voxel = std::size_t(sv.voxelAt(k, g_.image_size));
      for (int v = 0; v < g_.num_views; ++v) {
        const auto& r = A_->run(voxel, v);
        if (r.count == 0) continue;
        EXPECT_GE(int(r.first_channel), plan.lo(v));
        EXPECT_LE(int(r.first_channel) + int(r.count), plan.lo(v) + plan.width(v));
      }
    }
  }
}

TEST_F(SvbFixture, PackedOffsetsAreCompact) {
  const SvbPlan plan(g_, grid_->sv(5));
  std::size_t expect = 0;
  for (int v = 0; v < plan.numViews(); ++v) {
    EXPECT_EQ(plan.packedOffset(v), expect);
    expect += std::size_t(plan.width(v));
  }
  EXPECT_EQ(plan.packedSize(), expect);
}

TEST_F(SvbFixture, PaddedWidthAlignedAndSufficient) {
  const SvbPlan plan(g_, grid_->sv(5));
  EXPECT_EQ(plan.paddedWidth() % plan.padAlign(), 0);
  EXPECT_GE(plan.paddedWidth(), plan.maxWidth());
}

TEST_F(SvbFixture, GrowPaddedWidthMonotone) {
  SvbPlan plan(g_, grid_->sv(5));
  const int before = plan.paddedWidth();
  plan.growPaddedWidth(before - 1);
  EXPECT_EQ(plan.paddedWidth(), before);
  plan.growPaddedWidth(before + 5);
  EXPECT_GE(plan.paddedWidth(), before + 5);
  EXPECT_EQ(plan.paddedWidth() % plan.padAlign(), 0);
}

class SvbLayoutParam : public ::testing::TestWithParam<SvbLayout> {};

TEST_P(SvbLayoutParam, GatherMatchesSource) {
  const auto g = test::tinyGeometry();
  const SvGrid grid(g.image_size, {.sv_side = 8, .boundary_overlap = 1});
  const SvbPlan plan(g, grid.sv(6));

  Sinogram src(g);
  Rng rng(9);
  for (float& v : src.flat()) v = float(rng.uniform());

  Svb svb(plan, GetParam());
  svb.gather(src);
  for (int v = 0; v < g.num_views; ++v)
    for (int c = plan.lo(v); c < plan.lo(v) + plan.width(v); ++c)
      EXPECT_EQ(svb.at(v, c), src(v, c));
}

TEST_P(SvbLayoutParam, ApplyDeltaMergesConcurrentChanges) {
  const auto g = test::tinyGeometry();
  const SvGrid grid(g.image_size, {.sv_side = 8, .boundary_overlap = 1});
  const SvbPlan plan(g, grid.sv(6));

  Sinogram global(g);
  for (float& v : global.flat()) v = 1.0f;

  Svb svb(plan, GetParam());
  svb.gather(global);
  Svb orig(plan, GetParam());
  std::memcpy(orig.raw().data(), svb.raw().data(),
              svb.raw().size() * sizeof(float));

  // Local updates in the SVB...
  svb.at(3, plan.lo(3) + 1) += 0.5f;
  // ...while another SV concurrently changed the same global cell.
  global(3, plan.lo(3) + 1) += 0.25f;

  svb.applyDeltaTo(global, orig);
  // Both deltas must survive (add-delta semantics, not overwrite).
  EXPECT_NEAR(global(3, plan.lo(3) + 1), 1.75f, 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Layouts, SvbLayoutParam,
                         ::testing::Values(SvbLayout::kPacked, SvbLayout::kPadded));

TEST_F(SvbFixture, PaddedRowsZeroOutsideBand) {
  const SvbPlan plan(g_, grid_->sv(5));
  Sinogram src(g_);
  for (float& v : src.flat()) v = 2.0f;
  Svb svb(plan, SvbLayout::kPadded);
  svb.gather(src);
  for (int v = 0; v < plan.numViews(); ++v) {
    const float* row = svb.rowData(v);
    for (int c = plan.width(v); c < plan.paddedWidth(); ++c)
      EXPECT_EQ(row[c], 0.0f) << "view " << v << " col " << c;
  }
}

TEST_F(SvbFixture, AtOrZeroOutsideBand) {
  const SvbPlan plan(g_, grid_->sv(5));
  Svb svb(plan, SvbLayout::kPadded);
  EXPECT_EQ(svb.atOrZero(0, 0) + svb.atOrZero(0, g_.num_channels - 1), 0.0f);
}

TEST_F(SvbFixture, AtThrowsOutsideBand) {
  const SvbPlan plan(g_, grid_->sv(5));
  Svb svb(plan, SvbLayout::kPacked);
  // Find a view whose band doesn't start at 0.
  for (int v = 0; v < plan.numViews(); ++v) {
    if (plan.lo(v) > 0) {
      EXPECT_THROW(svb.at(v, plan.lo(v) - 1), Error);
      return;
    }
  }
}

}  // namespace
}  // namespace mbir
