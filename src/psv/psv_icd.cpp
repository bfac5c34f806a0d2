#include "psv/psv_icd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "icd/update_order.h"
#include "obs/obs.h"
#include "icd/voxel_update.h"
#include "prior/neighborhood.h"
#include "sv/svb.h"

namespace mbir {

namespace {

// Boundary voxels are shared by adjacent SVs. SvClaims never runs two SVs
// whose sweeps conflict at the same time (SvGrid::svSweepsConflict), so no
// image voxel is written by one sweep while another sweep reads or writes
// it, and the claim mutex orders consecutive sweeps over shared voxels.
// Image accesses still go through relaxed atomics: the race check declares
// an iteration's sweeps as one launch, in which conflicting SVs do appear,
// and the atomics keep that declaration true.
float loadX(Image2D& x, int row, int col) {
  return std::atomic_ref<float>(x(row, col)).load(std::memory_order_relaxed);
}
void addX(Image2D& x, int row, int col, float delta) {
  std::atomic_ref<float> ref(x(row, col));
  ref.store(ref.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
}

bool zeroSkipRelaxed(Image2D& x, int row, int col) {
  if (loadX(x, row, col) != 0.0f) return false;
  const int n = x.size();
  for (const NeighborOffset& nb : neighborhood8()) {
    const int r = row + nb.dr, c = col + nb.dc;
    if (r < 0 || r >= n || c < 0 || c >= n) continue;
    if (loadX(x, r, c) != 0.0f) return false;
  }
  return true;
}

/// solveDelta (icd/voxel_update.h) with relaxed image loads.
float solveDeltaRelaxed(const Prior& prior, Image2D& x, int row, int col,
                        const ThetaPair& theta) {
  const float xv = loadX(x, row, col);
  double num = theta.theta1;
  double den = theta.theta2;
  const int n = x.size();
  for (const NeighborOffset& nb : neighborhood8()) {
    const int r = row + nb.dr, c = col + nb.dc;
    if (r < 0 || r >= n || c < 0 || c >= n) continue;
    const double u = double(xv) - double(loadX(x, r, c));
    num += nb.b * prior.influence(u);
    den += 2.0 * nb.b * prior.surrogateCoeff(u);
  }
  if (den <= 0.0) return 0.0f;
  return float(std::max(-num / den, -double(xv)));
}

/// theta1/theta2 against packed SVBs (Alg. 1 lines 3-6, SVB-local). Rows
/// execute as lane groups: per-lane accumulators carried across views,
/// reduced in fixed lane order at the end (core/simd.h canonical
/// semantics) — identical bits on the scalar and AVX2 paths.
ThetaPair computeThetaSvb(const SystemMatrix& A, const Svb& e_svb,
                          const Svb& w_svb, std::size_t voxel,
                          std::size_t& elements, const SimdOps& ops) {
  ThetaLanes lanes;
  lanes.reset();
  const SvbPlan& plan = e_svb.plan();
  for (int v = 0; v < A.numViews(); ++v) {
    const SystemMatrix::Run& r = A.run(voxel, v);
    if (r.count == 0) continue;
    const auto aw = A.weights(voxel, v);
    const int start = int(r.first_channel) - plan.lo(v);
    ops.theta_row_f(aw.data(), e_svb.rowData(v) + start,
                    w_svb.rowData(v) + start, int(aw.size()), lanes);
    elements += aw.size();
  }
  ThetaPair t;
  t.theta1 = reduceLanes(lanes.t1);
  t.theta2 = reduceLanes(lanes.t2);
  return t;
}

/// e_svb -= A[voxel] * delta (Alg. 1 lines 9-11, SVB-local).
void applyErrorUpdateSvb(const SystemMatrix& A, Svb& e_svb, std::size_t voxel,
                         float delta, std::size_t& elements,
                         const SimdOps& ops) {
  if (delta == 0.0f) return;
  const SvbPlan& plan = e_svb.plan();
  for (int v = 0; v < A.numViews(); ++v) {
    const SystemMatrix::Run& r = A.run(voxel, v);
    if (r.count == 0) continue;
    const auto aw = A.weights(voxel, v);
    float* erow = e_svb.rowData(v) + (int(r.first_channel) - plan.lo(v));
    ops.err_row_f(aw.data(), delta, erow, int(aw.size()));
    elements += aw.size();
  }
}

/// In-order SV claiming for one iteration's sweep. A worker takes the first
/// pending SV (in `selected` order) whose sweep conflicts with no SV in
/// flight, and waits while none is free. One worker therefore runs exactly
/// the sequential order. No claim waits forever: every in-flight SV is being
/// swept by a running worker, and once nothing is in flight the first
/// pending SV is free.
class SvClaims {
 public:
  SvClaims(const SvGrid& grid, const std::vector<int>& selected)
      : grid_(grid), selected_(selected), claimed_(selected.size(), false) {}

  /// An SV's in-flight slot; releasing it (also while unwinding a throwing
  /// sweep) wakes the workers waiting in claim().
  class Slot {
   public:
    Slot(SvClaims& owner, std::size_t pos) : owner_(owner), pos_(pos) {}
    ~Slot() { owner_.release(owner_.selected_[pos_]); }
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;
    /// Position of the claimed SV in `selected`.
    std::size_t pos() const { return pos_; }

   private:
    SvClaims& owner_;
    std::size_t pos_;
  };

  /// Blocks until a pending SV is free. Call at most selected.size() times.
  Slot claim() {
    std::unique_lock lock(mu_);
    for (;;) {
      for (std::size_t p = first_pending_; p < selected_.size(); ++p) {
        if (claimed_[p] || conflictsInFlight(selected_[p])) continue;
        claimed_[p] = true;
        in_flight_.push_back(selected_[p]);
        while (first_pending_ < claimed_.size() && claimed_[first_pending_])
          ++first_pending_;
        return Slot(*this, p);
      }
      cv_.wait(lock);
    }
  }

 private:
  bool conflictsInFlight(int sv_id) const {
    return std::any_of(in_flight_.begin(), in_flight_.end(), [&](int other) {
      return grid_.svSweepsConflict(sv_id, other);
    });
  }

  void release(int sv_id) {
    {
      std::lock_guard lock(mu_);
      in_flight_.erase(std::find(in_flight_.begin(), in_flight_.end(), sv_id));
    }
    cv_.notify_all();
  }

  const SvGrid& grid_;
  const std::vector<int>& selected_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<bool> claimed_;       // by position in selected_; guarded by mu_
  std::size_t first_pending_ = 0;   // guarded by mu_
  std::vector<int> in_flight_;      // SV ids being swept; guarded by mu_
};

}  // namespace

PsvIcd::PsvIcd(const Problem& problem, PsvIcdOptions options)
    : problem_(problem),
      options_(options),
      grid_(problem.A.geometry().image_size, options.sv) {
  problem_.validate();
  MBIR_CHECK(options_.sv_fraction > 0.0 && options_.sv_fraction <= 1.0);
  MBIR_CHECK(options_.max_iterations >= 1);
}

PsvRunStats PsvIcd::run(Image2D& x, Sinogram& e,
                        const PsvIterationCallback& on_iteration) {
  MBIR_CHECK(x.size() == problem_.A.geometry().image_size);
  const SystemMatrix& A = problem_.A;
  const int image_size = x.size();
  const SimdOps& simd_ops = resolveSimdOps(options_.simd);

  // One SVB plan per SV, reused across iterations (band depends only on
  // geometry).
  std::vector<SvbPlan> plans;
  plans.reserve(std::size_t(grid_.count()));
  for (int i = 0; i < grid_.count(); ++i)
    plans.emplace_back(A.geometry(), grid_.sv(i));

  std::optional<ThreadPool> local_pool;
  if (options_.num_threads > 0) local_pool.emplace(options_.num_threads);
  ThreadPool& pool = local_pool ? *local_pool : globalThreadPool();

  Rng rng(options_.seed);
  std::vector<double> magnitude(std::size_t(grid_.count()), 0.0);

  std::mutex sino_mu;       // guards the global error sinogram
  std::mutex stats_mu;      // guards the shared counters
  PsvRunStats stats;
  std::atomic<std::size_t> total_updates{0};
  const double voxels_per_equit = double(x.numVoxels());

  obs::Recorder* rec = options_.recorder;
  const bool tracing = rec && rec->traceOn();
  obs::Counter* m_iterations = nullptr;
  obs::Counter* m_svs = nullptr;
  obs::Counter* m_locks = nullptr;
  if (rec && rec->metricsOn()) {
    obs::MetricsRegistry& m = rec->metrics();
    m_iterations = &m.counter("psv.iteration.count");
    m_svs = &m.counter("psv.sv.processed");
    m_locks = &m.counter("psv.lock.acquisitions");
  }

  // Standalone race detector (PSV does not run through GpuSimulator): each
  // iteration's concurrent SV sweeps form one logical launch.
  gsim::RaceDetector race(options_.race_check);
  const bool race_on = race.config().enabled;
  int rb_image = -1, rb_sino_e = -1;
  if (race_on) {
    rb_image = race.bufferId("image");
    rb_sino_e = race.bufferId("sino.e");
  }

  for (int iter = 1; iter <= options_.max_iterations; ++iter) {
    const double iter_host_us = tracing ? rec->trace().nowHostUs() : 0.0;
    const std::size_t iter_locks0 = stats.work.lock_acquisitions;
    const std::vector<int> selected = selectSuperVoxels(
        iter, std::size_t(grid_.count()), magnitude, options_.sv_fraction, rng);

    // Independent per-SV RNG streams, drawn up front for determinism under
    // dynamic scheduling.
    std::vector<std::uint64_t> seeds(selected.size());
    for (auto& s : seeds) s = rng.next();

    // parallelFor only hands out one claim ticket per selected SV; which SV
    // a ticket sweeps is decided by the claim.
    SvClaims claims(grid_, selected);
    pool.parallelFor(0, int(selected.size()), [&](int) {
      const SvClaims::Slot slot = claims.claim();
      const std::size_t si = slot.pos();
      const int sv_id = selected[si];
      const SuperVoxel& sv = grid_.sv(sv_id);
      const SvbPlan& plan = plans[std::size_t(sv_id)];
      WorkCounters wc;

      Svb w_svb(plan, SvbLayout::kPacked);
      w_svb.gather(problem_.weights);
      Svb e_svb(plan, SvbLayout::kPacked);
      {
        std::lock_guard lock(sino_mu);
        e_svb.gather(e);
        ++wc.lock_acquisitions;
      }
      Svb e_orig(plan, SvbLayout::kPacked);
      std::memcpy(e_orig.raw().data(), e_svb.raw().data(),
                  e_svb.raw().size() * sizeof(float));
      // weights gather + error gather + original-error copy
      wc.svb_gather_elements += 3 * e_svb.raw().size();

      Rng sv_rng(seeds[si]);
      std::vector<int> order(std::size_t(sv.numVoxels()));
      for (std::size_t k = 0; k < order.size(); ++k) order[k] = int(k);
      if (options_.randomize_voxel_order) sv_rng.shuffle(order);

      double mag_acc = 0.0;
      for (int k : order) {
        const int row = sv.row0 + k / sv.numCols();
        const int col = sv.col0 + k % sv.numCols();
        ++wc.voxels_visited;
        if (options_.zero_skip && zeroSkipRelaxed(x, row, col)) continue;
        const std::size_t voxel =
            std::size_t(row) * std::size_t(image_size) + std::size_t(col);
        const ThetaPair theta = computeThetaSvb(A, e_svb, w_svb, voxel,
                                                wc.theta_elements, simd_ops);
        const float delta = solveDeltaRelaxed(problem_.prior, x, row, col, theta);
        addX(x, row, col, delta);
        applyErrorUpdateSvb(A, e_svb, voxel, delta, wc.error_update_elements,
                            simd_ops);
        mag_acc += std::abs(double(delta));
        ++wc.voxel_updates;
      }

      {
        std::lock_guard lock(sino_mu);
        e_svb.applyDeltaTo(e, e_orig, &simd_ops);
        ++wc.lock_acquisitions;
      }
      wc.svb_writeback_elements += e_svb.raw().size();
      ++wc.svs_processed;

      magnitude[std::size_t(sv_id)] = mag_acc;  // single writer per SV
      total_updates.fetch_add(wc.voxel_updates, std::memory_order_relaxed);
      {
        std::lock_guard lock(stats_mu);
        stats.work += wc;
      }
    });

    if (race_on) {
      // Declarations derive from static geometry, so they are built
      // host-side after the sweep rather than inside the workers. Per SV
      // "block": image rect + clamped read ring, all atomic (every image
      // access above goes through std::atomic_ref; conflicting SVs of one
      // iteration share boundary voxels, and the launch model cannot
      // express that SvClaims runs them one after the other); the
      // lock-serialized global-sinogram gather/writeback as atomic over the
      // SV's band; the private SVBs as plain writes. A write/anything
      // diagnosis therefore means an SVB stopped being private or an image
      // access bypassed the atomics.
      const int channels = A.numChannels();
      std::vector<gsim::BlockAccessLog> logs(selected.size());
      for (std::size_t si = 0; si < selected.size(); ++si) {
        const int sv_id = selected[si];
        const SuperVoxel& sv = grid_.sv(sv_id);
        const SvbPlan& plan = plans[std::size_t(sv_id)];
        const int rr0 = std::max(0, sv.row0 - 1);
        const int rr1 = std::min(image_size, sv.row1 + 1);
        const int rc0 = std::max(0, sv.col0 - 1);
        const int rc1 = std::min(image_size, sv.col1 + 1);
        for (int r = rr0; r < rr1; ++r)
          logs[si].atomic(rb_image, std::int64_t(r) * image_size + rc0,
                          std::int64_t(r) * image_size + rc1);
        for (int v = 0; v < plan.numViews(); ++v) {
          const int w = plan.width(v);
          if (w == 0) continue;
          const std::int64_t glo = std::int64_t(v) * channels + plan.lo(v);
          logs[si].atomic(rb_sino_e, glo, glo + w);
        }
        logs[si].write(race.bufferId("svb/" + std::to_string(sv_id)), 0,
                       plan.numViews());
      }
      const int found = race.checkLaunch("psv_sweep", logs);
      if (found > 0 && race.config().throw_on_race)
        MBIR_CHECK_MSG(false, gsim::RaceDetector::describe(race.races().back()));
    }

    stats.iterations = iter;
    stats.equits = double(total_updates.load()) / voxels_per_equit;
    if (m_iterations) {
      m_iterations->add();
      m_svs->add(std::uint64_t(selected.size()));
      m_locks->add(
          std::uint64_t(stats.work.lock_acquisitions - iter_locks0));
    }
    if (tracing) {
      obs::TraceEvent ev;
      ev.name = "psv.iteration";
      ev.cat = "psv";
      ev.clock = obs::Clock::kHost;
      ev.ts_us = iter_host_us;
      ev.dur_us = rec->trace().nowHostUs() - iter_host_us;
      ev.num_args = {{"iteration", double(iter)},
                     {"selected_svs", double(selected.size())},
                     {"equits", stats.equits}};
      rec->trace().record(std::move(ev));
    }
    if (on_iteration &&
        !on_iteration(PsvIterationInfo{iter, stats.equits, stats.work, x})) {
      stats.stopped_by_callback = true;
      break;
    }
  }
  stats.race_check_enabled = race_on;
  const gsim::RaceCheckTotals race_totals = race.totals();
  stats.race_launches_checked = race_totals.launches_checked;
  stats.race_ranges_checked = race_totals.ranges_checked;
  stats.race_reports = race_totals.races_found;
  return stats;
}

}  // namespace mbir
