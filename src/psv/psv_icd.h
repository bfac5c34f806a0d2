// PSV-ICD — Parallel SuperVoxel ICD (Wang et al., PPoPP 2016; paper Alg. 2).
//
// The state-of-the-art multicore CPU algorithm GPU-ICD is compared against:
//   * voxels grouped into SuperVoxels, each with private error/weight SVBs,
//   * SVs distributed across CPU cores (inter-SV parallelism only); a core
//     starts an SV only when no SV in flight shares a voxel or prior ring
//     with it, claiming in selection order (so one thread runs the
//     sequential sweep),
//   * voxels within an SV updated sequentially against the SVB,
//   * SVB deltas merged into the global error sinogram under a lock,
//   * per-iteration SV selection: all SVs (iter 1), top 20% by accumulated
//     update magnitude (even iters), random 20% (odd iters).
//
// This is a real std::thread implementation (functionally exact on any core
// count); the benches pair it with gsim's 16-core Xeon timing model for the
// Table 1 comparison.
#pragma once

#include <cstdint>
#include <functional>

#include "core/simd.h"
#include "geom/image.h"
#include "geom/sinogram.h"
#include "gsim/race_check.h"
#include "icd/problem.h"
#include "icd/work.h"
#include "sv/supervoxel.h"

namespace mbir::obs {
class Recorder;
}  // namespace mbir::obs

namespace mbir {

struct PsvIcdOptions {
  SvGridOptions sv{.sv_side = 13, .boundary_overlap = 1};  // paper Table 1
  /// Fraction of SVs updated per iteration after the first (paper: 20%).
  double sv_fraction = 0.20;
  int max_iterations = 1000;
  bool zero_skip = true;
  bool randomize_voxel_order = true;
  std::uint64_t seed = 11;
  /// 0 = use the global pool's size.
  unsigned num_threads = 0;
  /// Observability sink (nullptr = off): per-iteration host-clock spans and
  /// `psv.*` counters. Purely observational.
  obs::Recorder* recorder = nullptr;
  /// Device-semantics race checking: each iteration's concurrent SV sweeps
  /// are declared to a gsim::RaceDetector as one launch (one block per SV).
  /// Image and global-sinogram accesses are declared atomic: conflicting
  /// SVs of one iteration are serialized host-side by the in-order claim,
  /// which one launch cannot express, and the image accesses go through
  /// relaxed atomics while the sinogram merge is under a lock. The check
  /// therefore guards the SVB-privacy claim and flags any image access
  /// that bypasses the atomics. Defaults from GPUMBIR_RACE_CHECK.
  gsim::RaceCheckConfig race_check = gsim::RaceCheckConfig::fromEnv();
  /// Lane-group execution path for the SVB row loops (core/simd.h).
  /// kDefault = the GPUMBIR_SIMD environment knob. Scalar and AVX2 are
  /// bit-identical, so this is purely a wall-clock knob.
  SimdMode simd = SimdMode::kDefault;
};

struct PsvIterationInfo {
  int iteration = 0;      ///< 1-based
  double equits = 0.0;
  WorkCounters work;      ///< cumulative counters (for timing models)
  const Image2D& x;
};

/// Return false to stop iterating.
using PsvIterationCallback = std::function<bool(const PsvIterationInfo&)>;

struct PsvRunStats {
  double equits = 0.0;
  int iterations = 0;
  bool stopped_by_callback = false;
  WorkCounters work;
  /// Device-semantics race checking (zeros when disabled).
  bool race_check_enabled = false;
  std::uint64_t race_launches_checked = 0;
  std::uint64_t race_ranges_checked = 0;
  std::uint64_t race_reports = 0;
};

class PsvIcd {
 public:
  PsvIcd(const Problem& problem, PsvIcdOptions options = {});

  /// Run iterations until the callback stops or max_iterations. `x` and the
  /// matching error sinogram `e` are updated in place.
  PsvRunStats run(Image2D& x, Sinogram& e,
                  const PsvIterationCallback& on_iteration = {});

  const SvGrid& grid() const { return grid_; }

 private:
  const Problem problem_;  // by value: Problem is a non-owning view struct
  PsvIcdOptions options_;
  SvGrid grid_;
};

}  // namespace mbir
