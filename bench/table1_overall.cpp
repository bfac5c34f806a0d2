// Table 1 — overall performance comparison of sequential ICD, PSV-ICD (CPU)
// and GPU-ICD over a suite of test cases.
//
// Reproduces: mean execution time, mean speedup over sequential ICD (and
// GPU over PSV), std-dev of execution time, SV side used, average equits to
// converge (RMSE < 10 HU vs 40-equit golden), and time per equit.
//
// Paper (512^2, 720 views, 1024 channels, 3200 cases, Imatron C-300 data):
//   PSV-ICD : mean 1.801 s, 138.26x over seq, sd 0.535, side 13, 4.8 equits,
//             0.41 s/equit
//   GPU-ICD : mean 0.407 s, 611.79x over seq (4.43x over PSV), sd 0.083,
//             side 33, 5.9 equits, 0.07 s/equit
// Here: scaled geometry + synthetic baggage suite (DESIGN.md §1); the shape
// (ordering, roughly the factors) is the reproduction target.
#include <cstdio>

#include "bench_common.h"
#include "core/stats.h"
#include "core/timer.h"

using namespace mbir;
using namespace mbir::bench;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  auto ctx = BenchContext::fromCli(
      args, "Table 1: Sequential ICD vs PSV-ICD vs GPU-ICD over a case suite.", 12);
  if (!ctx) return 0;

  RunningStats seq_time, psv_time, gpu_time;
  RunningStats seq_host, psv_host, gpu_host;
  RunningStats psv_speedup, gpu_speedup, gpu_over_psv;
  RunningStats seq_equits, psv_equits, gpu_equits;
  RunningStats psv_tpe, gpu_tpe, seq_tpe;
  int converged = 0;
  // Lookups into the matrix's shared chunk table: served by a unit some
  // earlier run or iteration built, or building the unit.
  std::size_t table_hits = 0, table_builds = 0;

  WallTimer wall;
  for (int i = 0; i < ctx->num_cases; ++i) {
    const OwnedProblem problem = ctx->makeCase(i);
    const Image2D golden = computeGolden(problem, ctx->golden_equits);

    RunConfig cfg;
    cfg.algorithm = Algorithm::kSequentialIcd;
    const RunResult seq = reconstruct(problem, golden, cfg);
    cfg.algorithm = Algorithm::kPsvIcd;  // paper SV side 13
    cfg.psv.sv.sv_side = 13;
    const RunResult psv = reconstruct(problem, golden, cfg);
    const RunResult gpu = runGpu(problem, golden, paperTunables());

    if (seq.converged && psv.converged && gpu.converged) ++converged;

    seq_time.add(seq.modeled_seconds);
    psv_time.add(psv.modeled_seconds);
    gpu_time.add(gpu.modeled_seconds);
    seq_host.add(seq.host_seconds);
    psv_host.add(psv.host_seconds);
    gpu_host.add(gpu.host_seconds);
    psv_speedup.add(seq.modeled_seconds / psv.modeled_seconds);
    gpu_speedup.add(seq.modeled_seconds / gpu.modeled_seconds);
    gpu_over_psv.add(psv.modeled_seconds / gpu.modeled_seconds);
    seq_equits.add(seq.equits);
    psv_equits.add(psv.equits);
    gpu_equits.add(gpu.equits);
    seq_tpe.add(seq.modeled_seconds / seq.equits);
    psv_tpe.add(psv.modeled_seconds / psv.equits);
    gpu_tpe.add(gpu.modeled_seconds / gpu.equits);
    if (gpu.gpu_stats) {
      table_hits += gpu.gpu_stats->chunk_cache_hits;
      table_builds += gpu.gpu_stats->chunk_cache_misses;
    }

    std::printf("[case %2d] seq %.2fs/%.1feq  psv %.4fs/%.1feq  gpu %.4fs/%.1feq\n",
                i, seq.modeled_seconds, seq.equits, psv.modeled_seconds,
                psv.equits, gpu.modeled_seconds, gpu.equits);
  }

  AsciiTable t({"algorithm", "mean exec (s)", "geomean speedup vs seq",
                "sd exec (s)", "SV side", "avg equits", "time/equit (s)",
                "host wall (s)", "paper: speedup / equits / s-per-equit"});
  t.addRow({"Sequential ICD", AsciiTable::fmt(seq_time.mean(), 3), "1.00",
            AsciiTable::fmt(seq_time.stddev(), 3), "-",
            AsciiTable::fmt(seq_equits.mean(), 1),
            AsciiTable::fmt(seq_tpe.mean(), 3),
            AsciiTable::fmt(seq_host.mean(), 3), "1x / - / -"});
  t.addRow({"PSV-ICD (CPU)", AsciiTable::fmt(psv_time.mean(), 4),
            AsciiTable::fmt(psv_speedup.geomean(), 1),
            AsciiTable::fmt(psv_time.stddev(), 4), "13",
            AsciiTable::fmt(psv_equits.mean(), 1),
            AsciiTable::fmt(psv_tpe.mean(), 4),
            AsciiTable::fmt(psv_host.mean(), 3), "138.26x / 4.8 / 0.41"});
  t.addRow({"GPU-ICD", AsciiTable::fmt(gpu_time.mean(), 4),
            AsciiTable::fmt(gpu_speedup.geomean(), 1),
            AsciiTable::fmt(gpu_time.stddev(), 4), "33",
            AsciiTable::fmt(gpu_equits.mean(), 1),
            AsciiTable::fmt(gpu_tpe.mean(), 4),
            AsciiTable::fmt(gpu_host.mean(), 3), "611.79x / 5.9 / 0.07"});
  const double table_lookups = double(table_hits + table_builds);
  const double table_hit_rate =
      table_lookups > 0 ? double(table_hits) / table_lookups : 0.0;
  emit(t, "table1_overall", wall.seconds(), ctx.get(),
       {{"gpu_over_psv_geomean", gpu_over_psv.geomean()},
        {"gpu_chunk_table_lookups", table_lookups},
        {"gpu_chunk_table_hits", double(table_hits)},
        {"gpu_chunk_table_builds", double(table_builds)},
        {"gpu_chunk_table_hit_rate", table_hit_rate},
        {"converged_cases", double(converged)}});

  std::printf(
      "GPU-ICD over PSV-ICD: %.2fx geomean (paper: 4.43x); "
      "PSV/GPU time-per-equit ratio %.2fx (paper: 5.86x)\n",
      gpu_over_psv.geomean(), psv_tpe.mean() / gpu_tpe.mean());
  std::printf(
      "GPU chunk table: %.0f lookups, %zu served by built units, %zu units "
      "built (%.1f%% hit rate)\n",
      table_lookups, table_hits, table_builds, 100.0 * table_hit_rate);
  std::printf("%d/%d cases converged below 10 HU; wall time %.1fs\n",
              converged, ctx->num_cases, wall.seconds());
  return converged == ctx->num_cases ? 0 : 1;
}
