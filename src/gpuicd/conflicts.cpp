#include "gpuicd/conflicts.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>

#include "core/error.h"

namespace mbir {

double intraSvConflictMultiplier(const SvbPlan& plan, const SystemMatrix& A,
                                 int concurrent_blocks) {
  MBIR_CHECK(concurrent_blocks >= 1);
  if (concurrent_blocks == 1) return 1.0;

  // Mean band width over views with data.
  double width_sum = 0.0;
  int active_views = 0;
  for (int v = 0; v < plan.numViews(); ++v) {
    if (plan.width(v) > 0) {
      width_sum += plan.width(v);
      ++active_views;
    }
  }
  if (active_views == 0) return 1.0;
  const double mean_width = width_sum / double(active_views);

  // Mean voxel footprint width (channels per view); sample the SV center
  // voxel — footprints vary only with view angle, not position.
  const SuperVoxel& sv = plan.sv();
  const int n = A.geometry().image_size;
  const int center_row = (sv.row0 + sv.row1 - 1) / 2;
  const int center_col = (sv.col0 + sv.col1 - 1) / 2;
  const std::size_t voxel = std::size_t(center_row) * std::size_t(n) + std::size_t(center_col);
  double fp_sum = 0.0;
  int fp_views = 0;
  for (int v = 0; v < A.numViews(); ++v) {
    const auto& r = A.run(voxel, v);
    if (r.count > 0) {
      fp_sum += r.count;
      ++fp_views;
    }
  }
  if (fp_views == 0) return 1.0;
  const double footprint = fp_sum / double(fp_views);

  // Probability two concurrent footprints collide in a band row ~
  // footprint / band width; expected writers per touched cell:
  const double p = std::min(1.0, footprint / std::max(mean_width, 1.0));
  return 1.0 + double(concurrent_blocks - 1) * p;
}

double interSvConflictMultiplier(const std::vector<const SvbPlan*>& batch,
                                 int num_channels) {
  if (batch.size() <= 1) return 1.0;
  MBIR_CHECK(num_channels > 0);
  const int num_views = batch.front()->numViews();

  double sum_w = 0.0, sum_w2 = 0.0;
  std::vector<int> diff(std::size_t(num_channels) + 1);
  for (int v = 0; v < num_views; ++v) {
    std::fill(diff.begin(), diff.end(), 0);
    bool any = false;
    for (const SvbPlan* p : batch) {
      const int w = p->width(v);
      if (w <= 0) continue;
      diff[std::size_t(p->lo(v))] += 1;
      diff[std::size_t(p->lo(v) + w)] -= 1;
      any = true;
    }
    if (!any) continue;
    int writers = 0;
    for (int c = 0; c < num_channels; ++c) {
      writers += diff[std::size_t(c)];
      if (writers > 0) {
        sum_w += writers;
        sum_w2 += double(writers) * double(writers);
      }
    }
  }
  if (sum_w <= 0.0) return 1.0;
  return std::max(1.0, sum_w2 / sum_w);
}

int scheduleImageConflicts(const SvGrid& grid, const std::vector<int>& group,
                           gsim::RaceDetector* detector) {
  const int n = grid.imageSize();

  // Implementation 1: analytic rect intersection over all pairs.
  int analytic = 0;
  for (std::size_t i = 0; i < group.size(); ++i)
    for (std::size_t j = i + 1; j < group.size(); ++j)
      if (grid.svSweepsConflict(group[i], group[j])) ++analytic;

  // Implementation 2: the race detector over the same geometry, declared
  // exactly like the mbir_update kernel — one block per SV, write rows of
  // the rect, read rows of the clamped ring.
  gsim::RaceDetector scratch(
      {.enabled = true, .throw_on_race = false,
       .max_reports = int(3 * group.size() * group.size() + 1)});
  gsim::RaceDetector& det = detector ? *detector : scratch;
  const std::size_t races_before = det.races().size();
  const int image = det.bufferId("image");
  std::vector<gsim::BlockAccessLog> logs(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    const SuperVoxel& sv = grid.sv(group[i]);
    for (int r = sv.row0; r < sv.row1; ++r)
      logs[i].write(image, std::int64_t(r) * n + sv.col0,
                    std::int64_t(r) * n + sv.col1);
    const int rr0 = std::max(0, sv.row0 - 1), rr1 = std::min(n, sv.row1 + 1);
    const int rc0 = std::max(0, sv.col0 - 1), rc1 = std::min(n, sv.col1 + 1);
    for (int r = rr0; r < rr1; ++r)
      logs[i].read(image, std::int64_t(r) * n + rc0,
                   std::int64_t(r) * n + rc1);
  }
  det.checkLaunch("schedule_check", logs);

  // One conflicting pair can produce several diagnoses (read/write in both
  // directions plus write/write); count distinct block pairs.
  std::set<std::pair<int, int>> pairs;
  const std::vector<gsim::RaceReport>& races = det.races();
  for (std::size_t k = races_before; k < races.size(); ++k)
    pairs.insert({races[k].block_a, races[k].block_b});
  MBIR_CHECK_MSG(int(pairs.size()) == analytic,
                 "schedule cross-check disagreement: analytic="
                     << analytic << " detector=" << pairs.size()
                     << " over " << group.size() << " SVs");
  return analytic;
}

double staticPartitionImbalance(const std::vector<int>& work_per_voxel,
                                int blocks) {
  MBIR_CHECK(blocks >= 1);
  if (work_per_voxel.empty() || blocks == 1) return 1.0;
  const int n = int(work_per_voxel.size());
  const int per_block = (n + blocks - 1) / blocks;
  double total = 0.0, worst = 0.0;
  for (int b = 0; b < blocks; ++b) {
    double acc = 0.0;
    for (int k = b * per_block; k < std::min(n, (b + 1) * per_block); ++k)
      acc += work_per_voxel[std::size_t(k)];
    total += acc;
    worst = std::max(worst, acc);
  }
  if (total <= 0.0) return 1.0;
  const double mean = total / double(blocks);
  return mean > 0.0 ? std::max(1.0, worst / mean) : 1.0;
}

}  // namespace mbir
