// Determinism of host-parallel simulated kernel execution: the gsim
// executor and GPU-ICD must produce bit-identical functional results,
// KernelStats, and modeled seconds for any host thread count, and the
// matrix's shared chunk table must be a pure wall-clock optimization.
#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "gpuicd/gpu_icd.h"
#include "gsim/executor.h"
#include "obs/obs.h"
#include "sv/svb.h"
#include "test_support.h"

namespace mbir {
namespace {

using test::expectStatsBitIdentical;

// ---------- executor ----------

gsim::LaunchReport launchWithPool(ThreadPool* pool) {
  gsim::GpuSimulator sim;
  sim.setHostPool(pool);
  return sim.launch(
      {.name = "k", .num_blocks = 29, .resources = {256, 32, 0}},
      [](gsim::BlockCtx& ctx) {
        // Block-dependent accounting exercises the ordered per-block merge
        // (floating-point sums would differ under any reordering).
        ctx.prof.addFlops(1.0 / double(ctx.block_idx + 1));
        ctx.prof.svbAccess(7 + ctx.block_idx % 5, 4, ctx.block_idx % 2 == 0,
                           false);
        ctx.prof.svbAtomic(ctx.block_idx, 1.0 + 0.1 * double(ctx.block_idx));
        if (ctx.block_idx == 17) ctx.prof.setImbalance(2.5);
        ctx.prof.setL2WorkingSet(double(ctx.block_idx) * 100.0);
      });
}

TEST(ExecutorDeterminism, ReportInvariantToHostThreadCount) {
  ThreadPool p1(1), p2(2), p4(4);
  const auto r1 = launchWithPool(&p1);
  const auto r2 = launchWithPool(&p2);
  const auto r4 = launchWithPool(&p4);
  expectStatsBitIdentical(r1.stats, r2.stats);
  expectStatsBitIdentical(r1.stats, r4.stats);
  EXPECT_EQ(r1.time.total, r2.time.total);
  EXPECT_EQ(r1.time.total, r4.time.total);
}

TEST(ExecutorDeterminism, RepeatedLaunchIsBitIdentical) {
  ThreadPool pool(4);
  const auto a = launchWithPool(&pool);
  const auto b = launchWithPool(&pool);
  expectStatsBitIdentical(a.stats, b.stats);
  EXPECT_EQ(a.time.total, b.time.total);
}

// ---------- Svb striped writeback ----------

TEST(SvbStriped, StripeUnionEqualsFullApply) {
  const auto g = test::tinyGeometry();
  const SvGrid grid(g.image_size, {.sv_side = 8, .boundary_overlap = 1});
  const SvbPlan plan(g, grid.sv(6));

  Sinogram global(g);
  Rng rng(11);
  for (float& v : global.flat()) v = float(rng.uniform());

  Svb svb(plan, SvbLayout::kPadded);
  svb.gather(global);
  Svb orig(plan, SvbLayout::kPadded);
  std::memcpy(orig.raw().data(), svb.raw().data(),
              svb.raw().size() * sizeof(float));
  for (int v = 0; v < plan.numViews(); ++v)
    for (int c = 0; c < plan.width(v); ++c)
      svb.rowData(v)[c] += float(v) * 0.25f + float(c);

  Sinogram full = global;
  svb.applyDeltaTo(full, orig);

  const int stripes = 5;
  Sinogram striped = global;
  for (int s = 0; s < stripes; ++s) svb.applyDeltaTo(striped, orig, s, stripes);

  EXPECT_EQ(0, std::memcmp(full.flat().data(), striped.flat().data(),
                           full.flat().size() * sizeof(float)));
}

// ---------- GPU-ICD ----------

GpuRunStats runGpuWith(ThreadPool* pool, Image2D& x, int iterations = 3,
                       obs::Recorder* recorder = nullptr,
                       const OwnedProblem& problem = test::tinyProblem()) {
  GpuIcdOptions opt = test::tinyGpuOptions();
  opt.max_iterations = iterations;
  opt.host_pool = pool;
  opt.recorder = recorder;
  x = problem.fbpInitialImage();
  Sinogram e = problem.initialError(x);
  GpuIcd icd(problem.view(), opt);
  return icd.run(x, e);
}

/// The tiny problem again, on a matrix of its own: its chunk table starts
/// cold whatever else ran in this process.
OwnedProblem freshTinyProblem() {
  SuiteConfig cfg;
  cfg.geometry = test::tinyGeometry();
  return Suite(cfg).makeCase(0);
}

using test::expectGpuRunsBitIdentical;

TEST(GpuIcdDeterminism, BitIdenticalAcrossThreadCounts) {
  ThreadPool p1(1), p2(2), p4(4);
  Image2D x1, x2, x4;
  const auto s1 = runGpuWith(&p1, x1);
  const auto s2 = runGpuWith(&p2, x2);
  const auto s4 = runGpuWith(&p4, x4);
  ASSERT_GT(s1.work.voxel_updates, 0u);
  expectGpuRunsBitIdentical(s1, x1, s2, x2);
  expectGpuRunsBitIdentical(s1, x1, s4, x4);
}

TEST(GpuIcdDeterminism, SerialPoolMatchesGlobalPool) {
  ThreadPool p1(1);
  Image2D xs, xg;
  const auto ss = runGpuWith(&p1, xs);
  const auto sg = runGpuWith(nullptr, xg);  // process-wide pool
  expectGpuRunsBitIdentical(ss, xs, sg, xg);
}

TEST(GpuIcdDeterminism, FreshAndWarmedMatrixRunsAreBitIdentical) {
  const OwnedProblem problem = freshTinyProblem();
  ThreadPool p2(2);
  Image2D x_cold, x_warm, x_shared;
  const auto cold = runGpuWith(&p2, x_cold, 3, nullptr, problem);
  const auto warm = runGpuWith(&p2, x_warm, 3, nullptr, problem);
  expectGpuRunsBitIdentical(cold, x_cold, warm, x_warm);
  // The cold run builds each SV it touches once and re-uses it on later
  // iterations; the warmed run builds nothing.
  EXPECT_GT(cold.chunk_cache_misses, 0u);
  EXPECT_GT(cold.chunk_cache_hits, 0u);
  EXPECT_EQ(warm.chunk_cache_misses, 0u);
  EXPECT_EQ(warm.chunk_cache_hits,
            cold.chunk_cache_hits + cold.chunk_cache_misses);
  // The same problem on the fixture's long-lived matrix: same bits.
  const auto shared = runGpuWith(&p2, x_shared);
  expectGpuRunsBitIdentical(cold, x_cold, shared, x_shared);
}

TEST(GpuIcdDeterminism, ConcurrentFirstUsersBuildEachSvOnce) {
  // A serial run on a cold matrix of its own: each unit is built once per
  // matrix, so its misses count the distinct SVs a run touches.
  ThreadPool pool(4);
  const OwnedProblem serial_problem = freshTinyProblem();
  Image2D x_serial;
  const auto serial = runGpuWith(&pool, x_serial, 3, nullptr, serial_problem);
  ASSERT_GT(serial.chunk_cache_misses, 0u);

  // Four engines start at once on one cold matrix.
  const OwnedProblem problem = freshTinyProblem();
  constexpr int kRuns = 4;
  std::vector<GpuRunStats> stats(kRuns);
  std::vector<Image2D> xs(kRuns);
  std::latch start(kRuns);
  std::vector<std::thread> threads;
  for (int i = 0; i < kRuns; ++i)
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      stats[std::size_t(i)] =
          runGpuWith(&pool, xs[std::size_t(i)], 3, nullptr, problem);
    });
  for (std::thread& t : threads) t.join();

  std::size_t misses = 0;
  for (int i = 0; i < kRuns; ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    const GpuRunStats& s = stats[std::size_t(i)];
    misses += s.chunk_cache_misses;
    EXPECT_EQ(s.chunk_cache_hits + s.chunk_cache_misses,
              serial.chunk_cache_hits + serial.chunk_cache_misses);
    expectGpuRunsBitIdentical(serial, x_serial, s, xs[std::size_t(i)]);
  }
  EXPECT_EQ(misses, serial.chunk_cache_misses);
}

// ---------- observability is purely observational ----------

TEST(GpuIcdDeterminism, ObservabilityDoesNotPerturbResults) {
  // Full tracing + metrics (including per-block spans, the most invasive
  // option) must leave images, stats, and modeled seconds bit-identical to
  // an uninstrumented run, for any host thread count.
  obs::ObsConfig ocfg;
  ocfg.metrics = true;
  ocfg.trace = true;
  ocfg.block_spans = true;

  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    // Each run on a cold matrix of its own, so both build the same units
    // and their table hits and misses can be compared one by one.
    const OwnedProblem plain_problem = freshTinyProblem();
    const OwnedProblem observed_problem = freshTinyProblem();
    Image2D x_plain, x_obs;
    const auto plain = runGpuWith(&pool, x_plain, 3, nullptr, plain_problem);
    obs::Recorder rec(ocfg);
    const auto observed = runGpuWith(&pool, x_obs, 3, &rec, observed_problem);
    expectGpuRunsBitIdentical(plain, x_plain, observed, x_obs);
    EXPECT_EQ(plain.chunk_cache_hits, observed.chunk_cache_hits);
    EXPECT_EQ(plain.chunk_cache_misses, observed.chunk_cache_misses);
    // ...and the recorder did actually observe the run.
    EXPECT_GT(rec.metrics().counterValue("gsim.launch.count"), 0u);
    EXPECT_GT(rec.metrics().counterValue("gpuicd.chunk_cache.hits"), 0u);
    EXPECT_GT(rec.trace().size(), 0u);
  }
}

TEST(GpuIcdDeterminism, RecorderSeesSameCountsForAnyThreadCount) {
  obs::ObsConfig ocfg;
  ocfg.metrics = true;
  // Each run on a cold matrix of its own, so both build the same units.
  const OwnedProblem problem1 = freshTinyProblem();
  const OwnedProblem problem4 = freshTinyProblem();
  Image2D x1, x4;
  ThreadPool p1(1), p4(4);
  obs::Recorder r1(ocfg), r4(ocfg);
  runGpuWith(&p1, x1, 3, &r1, problem1);
  runGpuWith(&p4, x4, 3, &r4, problem4);
  for (const char* name :
       {"gsim.launch.count", "gsim.launch.blocks", "gsim.launch.flops",
        "gsim.launch.svb_access_bytes", "gpuicd.chunk_cache.hits",
        "gpuicd.chunk_cache.misses", "gpuicd.batch.count",
        "gpuicd.iteration.count"}) {
    EXPECT_EQ(r1.metrics().counterValue(name), r4.metrics().counterValue(name))
        << name;
  }
  EXPECT_GT(r1.metrics().counterValue("gpuicd.chunk_cache.misses"), 0u);
}

}  // namespace
}  // namespace mbir
