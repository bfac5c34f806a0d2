// offline-table1: the paper's Table 1 protocol as the harness runs it.
//
// Per round, for each of kCases baggage cases at 128^2 x 180 views x 256
// channels: generate the case, compute its 40-equit golden, run sequential
// ICD, PSV-ICD and GPU-ICD to 10 HU, and GPU-ICD sharded over kDevices
// modeled devices. Then all cases run again as one BatchScheduler batch on
// kDevices devices. No byte crosses a socket or the store.
#include <map>
#include <numeric>
#include <thread>

#include "checks.h"
#include "core/thread_pool.h"
#include "recon/reconstructor.h"
#include "phantom/baggage.h"
#include "recon/suite.h"
#include "scan/scanner.h"
#include "sched/scheduler.h"
#include "shard/shard_job.h"
#include "workloads.h"

namespace perfbench {

using namespace mbir;

namespace {

constexpr int kCases = 3;
constexpr double kGoldenEquits = 40.0;
constexpr int kPsvSvSide = 13;  // paper Table 1

struct CaseRun {
  OwnedProblem problem;
  Image2D golden;
  RunResult seq, psv, gpu;
  shard::ShardRunResult d4;
  double make_s = 0, golden_s = 0, shard_host_s = 0;
};

struct BatchRun {
  std::vector<sched::JobResult> jobs;
  std::vector<double> latency_s;
  sched::BatchReport report;
  double host_s = 0, cpu_util = 0;
};

/// Samples gathered over all rounds.
struct Tally {
  std::vector<double> make_s, golden_s, seq_host_s, seq_equits;
  std::vector<double> psv_equits, psv_svs;
  double psv_host_sum = 0, psv_equit_sum = 0;
  std::vector<double> gpu_host_s, gpu_modeled_s, gpu_equits, gpu_kernels;
  double gpu_host_sum = 0, gpu_equit_sum = 0, gpu_launch_sum = 0;
  double chunk_hits = 0, chunk_lookups = 0;
  std::vector<double> svb_gen_s, mbir_update_s, writeback_s;
  std::vector<double> amatrix_bytes, svb_bytes, flops;
  std::vector<double> shard_host_s, shard_compute_s, shard_comm_s;
  std::vector<double> table1_wall_s, psv_round_host_s, shard_round_modeled_s;
  std::vector<double> batch_host_s, batch_jobs_per_s, makespan_s, batch_util;
  std::vector<double> batch_latency_s, sched_overhead_s;
  std::map<std::string, double> self_s;
};

/// Baggage case `index` of the suite's fixed phantoms, scanned with noise
/// drawn from `noise_seed`: the workload seed varies the measurements, not
/// the objects, so every seed poses the same reconstruction problem shape.
OwnedProblem makeCase(const Suite& suite, int index, std::uint64_t noise_seed) {
  const SuiteConfig& c = suite.config();
  const EllipsePhantom phantom = makeBaggagePhantom(c.seed, index, c.baggage);
  ScanResult scan = simulateScan(phantom, c.geometry, c.noise, noise_seed);
  return OwnedProblem(suite.matrixPtr(), std::move(scan), c.prior);
}

RunConfig engineConfig(Algorithm alg, ThreadPool& pool, bool trace) {
  RunConfig cfg;
  cfg.algorithm = alg;
  cfg.psv.sv.sv_side = kPsvSvSide;
  cfg.psv.num_threads = unsigned(kHostThreads);
  cfg.gpu.host_pool = &pool;  // GpuTunables defaults are the paper's Table 1
  cfg.obs.trace = trace;
  return cfg;
}

void addTrace(const RunResult& r, Tally& t) {
  if (r.recorder) addLayerSelfSeconds(r.recorder->trace().snapshot(), t.self_s);
}

BatchRun runBatch(const std::vector<CaseRun>& cases, ThreadPool& pool) {
  sched::SchedulerOptions opt;
  opt.num_devices = kDevices;
  opt.host_pool = &pool;
  sched::BatchScheduler batch(opt);
  for (std::size_t i = 0; i < cases.size(); ++i)
    batch.submit(cases[i].problem, cases[i].golden,
                 engineConfig(Algorithm::kGpuIcd, pool, false),
                 "case" + std::to_string(i));
  BatchRun out;
  out.latency_s.assign(cases.size(), 0.0);
  const double cpu0 = cpuSeconds();
  const auto t0 = Clock::now();
  std::vector<std::thread> waiters;
  for (int id = 0; id < batch.jobCount(); ++id)
    waiters.emplace_back([&, id, f = batch.future(id)] {
      f.wait();
      out.latency_s[std::size_t(id)] = secondsSince(t0);
    });
  out.report = batch.runAll();
  for (auto& w : waiters) w.join();
  out.host_s = secondsSince(t0);
  out.cpu_util = (cpuSeconds() - cpu0) / (out.host_s * onlineCpus());
  for (int id = 0; id < batch.jobCount(); ++id)
    out.jobs.push_back(batch.result(id));
  return out;
}

/// Checks every engine image against its scan, its golden and the
/// invariants between paths; `first` holds round one's hashes for the
/// deterministic engines, which every later round must repeat.
void checkRound(const std::vector<CaseRun>& cases, const BatchRun& batch,
                const std::vector<std::uint64_t>& d1_hashes,
                std::vector<std::uint64_t>& first, Outcome& out) {
  std::size_t h = 0;
  const auto repeat = [&](const Image2D& img, const std::string& what) {
    const std::uint64_t hash = imageHash(img);
    if (h >= first.size()) first.push_back(hash);
    out.check(first[h++] == hash, what, "image differs from the first round's");
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseRun& c = cases[i];
    const std::string tag = "case" + std::to_string(i) + " ";
    const auto image = [&](const RunResult& r, const std::string& what) {
      std::string why;
      out.check(r.converged, tag + what, "did not reach 10 HU");
      out.check(beatsFbpOnFlatRegions(c.problem, r.image, why), tag + what, why);
      out.check(costBelowFbp(c.problem, r.image, why), tag + what, why);
      out.check(rmseAgrees(r.image, c.golden, r.converged, r.final_rmse_hu, why),
                tag + what, why);
    };
    image(c.seq, "sequential ICD");
    image(c.psv, "PSV-ICD");
    image(c.gpu, "GPU-ICD");
    image(c.d4.run, "sharded GPU-ICD");
    image(batch.jobs[i].run, "batch GPU-ICD");
    std::string why;
    out.check(!batch.jobs[i].failed, tag + "batch job", batch.jobs[i].error);
    out.check(sameBits(batch.jobs[i].run.image, c.gpu.image, why),
              tag + "batch vs per-case GPU-ICD", why);
    out.check(imageHash(c.d4.run.image) == d1_hashes[i],
              tag + "sharded d4 vs d1", "4-device image differs from 1-device");
    repeat(c.seq.image, tag + "sequential ICD");
    repeat(c.gpu.image, tag + "GPU-ICD");
    repeat(c.golden, tag + "golden");
  }
}

void tallyRound(const std::vector<CaseRun>& cases, const BatchRun& batch,
                double table1_wall_s, Tally& t) {
  double psv_round = 0, shard_round = 0;
  for (const CaseRun& c : cases) {
    t.make_s.push_back(c.make_s);
    t.golden_s.push_back(c.golden_s);
    t.seq_host_s.push_back(c.seq.host_seconds);
    t.seq_equits.push_back(c.seq.equits);
    t.psv_equits.push_back(c.psv.equits);
    t.psv_svs.push_back(double(c.psv.psv_stats->work.svs_processed));
    t.psv_host_sum += c.psv.host_seconds;
    t.psv_equit_sum += c.psv.equits;
    psv_round += c.psv.host_seconds;
    const GpuRunStats& g = *c.gpu.gpu_stats;
    t.gpu_host_s.push_back(c.gpu.host_seconds);
    t.gpu_modeled_s.push_back(c.gpu.modeled_seconds);
    t.gpu_equits.push_back(c.gpu.equits);
    t.gpu_kernels.push_back(g.kernels_launched);
    t.gpu_host_sum += c.gpu.host_seconds;
    t.gpu_equit_sum += c.gpu.equits;
    t.gpu_launch_sum += g.kernels_launched;
    t.chunk_hits += double(g.chunk_cache_hits);
    t.chunk_lookups += double(g.chunk_cache_hits + g.chunk_cache_misses);
    const auto kernel_s = [&](const char* name) {
      const auto it = g.per_kernel.find(name);
      return it == g.per_kernel.end() ? 0.0 : it->second.seconds;
    };
    t.svb_gen_s.push_back(kernel_s("svb_gen"));
    t.mbir_update_s.push_back(kernel_s("mbir_update"));
    t.writeback_s.push_back(kernel_s("error_writeback"));
    double amatrix = 0, svb = 0, flops = 0;
    for (const auto& [name, k] : g.per_kernel) {
      amatrix += k.stats.amatrix_access_bytes;
      svb += k.stats.svb_access_bytes;
      flops += k.stats.flops;
    }
    t.amatrix_bytes.push_back(amatrix);
    t.svb_bytes.push_back(svb);
    t.flops.push_back(flops);
    t.shard_host_s.push_back(c.shard_host_s);
    t.shard_compute_s.push_back(c.d4.shard.compute_seconds);
    t.shard_comm_s.push_back(c.d4.shard.comm_seconds);
    shard_round += c.d4.shard.modeled_seconds;
  }
  t.table1_wall_s.push_back(table1_wall_s);
  t.psv_round_host_s.push_back(psv_round);
  t.shard_round_modeled_s.push_back(shard_round);
  t.batch_host_s.push_back(batch.host_s);
  t.batch_jobs_per_s.push_back(double(batch.jobs.size()) / batch.host_s);
  t.makespan_s.push_back(batch.report.makespan_modeled_s);
  t.batch_util.push_back(batch.cpu_util);
  double overhead = 0;
  for (const auto& j : batch.jobs) overhead += j.host_seconds - j.run.host_seconds;
  t.sched_overhead_s.push_back(overhead);
  for (double l : batch.latency_s) t.batch_latency_s.push_back(l);
}

}  // namespace

Outcome runOffline(const RunArgs& args) {
  Outcome out;
  setStep("offline-table1: build the suite (system matrix)");
  const auto m0 = Clock::now();
  const Suite suite(SuiteConfig{});  // 128^2, 180 views, 256 channels
  const double matrix_s = secondsSince(m0);
  const double setup_s = secondsSince(args.process_start);
  ThreadPool pool(kHostThreads);

  Tally t;
  std::vector<std::uint64_t> d1_hashes, first;
  double measured = 0;
  for (int round = 0; measured < args.seconds; ++round) {
    setStep("offline-table1: round " + std::to_string(round) + " engines");
    std::vector<CaseRun> cases;
    const auto wall0 = Clock::now();
    for (int i = 0; i < kCases; ++i) {
      auto t0 = Clock::now();
      OwnedProblem problem = makeCase(suite, i, args.seed * 1000003ull + std::uint64_t(i));
      const double make_s = secondsSince(t0);
      t0 = Clock::now();
      Image2D golden = computeGolden(problem, kGoldenEquits);
      CaseRun c{std::move(problem), std::move(golden), {}, {}, {}, {}};
      c.make_s = make_s;
      c.golden_s = secondsSince(t0);
      c.seq = reconstruct(c.problem, c.golden,
                          engineConfig(Algorithm::kSequentialIcd, pool, args.trace));
      c.psv = reconstruct(c.problem, c.golden,
                          engineConfig(Algorithm::kPsvIcd, pool, args.trace));
      c.gpu = reconstruct(c.problem, c.golden,
                          engineConfig(Algorithm::kGpuIcd, pool, args.trace));
      shard::ShardConfig sc;
      sc.plan = shard::makeShardPlan(c.problem.geometry().image_size, kDevices, 1);
      sc.devices = kDevices;
      sc.base = engineConfig(Algorithm::kGpuIcd, pool, false);
      t0 = Clock::now();
      c.d4 = shard::reconstructSharded(c.problem, c.golden, sc);
      c.shard_host_s = secondsSince(t0);
      out.attempted += 4;
      cases.push_back(std::move(c));
    }
    const double table1_wall_s = secondsSince(wall0);
    setStep("offline-table1: round " + std::to_string(round) + " batch");
    const BatchRun batch = runBatch(cases, pool);
    out.attempted += long(batch.jobs.size());
    for (const auto& j : batch.jobs) out.failed += j.failed ? 1 : 0;
    measured += table1_wall_s + batch.host_s;

    setStep("offline-table1: round " + std::to_string(round) + " checks");
    if (round == 0) {
      for (const CaseRun& c : cases) {
        shard::ShardConfig sc;
        sc.plan = shard::makeShardPlan(c.problem.geometry().image_size, kDevices, 1);
        sc.devices = 1;
        sc.base = engineConfig(Algorithm::kGpuIcd, pool, false);
        d1_hashes.push_back(
            imageHash(shard::reconstructSharded(c.problem, c.golden, sc).run.image));
      }
    }
    checkRound(cases, batch, d1_hashes, first, out);
    tallyRound(cases, batch, table1_wall_s, t);
    for (const CaseRun& c : cases) {
      addTrace(c.seq, t);
      addTrace(c.psv, t);
      addTrace(c.gpu, t);
    }
  }

  out.e2e.set("setup_s", setup_s);
  out.e2e.set("jobs_per_s", median(t.batch_jobs_per_s));
  out.e2e.set("e2e_p50_s", median(t.batch_latency_s));
  out.layers.set("e2e_p99_s", tail(t.batch_latency_s));
  out.e2e.set("gpu_host_s", median(t.gpu_host_s));
  out.e2e.set("gpu_modeled_s", mean(t.gpu_modeled_s));
  out.layers.set("peak_rss_mb", peakRssMb());

  Sheet& l = out.layers;
  l.set("table1_wall_s", median(t.table1_wall_s));
  l.set("psv_host_s", median(t.psv_round_host_s));
  l.set("shard_d4_modeled_s", median(t.shard_round_modeled_s));
  l.set("batch_jobs_per_s", median(t.batch_jobs_per_s));
  l.set("geom.matrix_build_s", matrix_s);
  l.set("scan.make_case_s", median(t.make_s));
  l.set("icd.golden_s", median(t.golden_s));
  l.set("icd.seq_host_s", median(t.seq_host_s));
  l.set("icd.seq_equits", median(t.seq_equits));
  l.set("psv.equits", median(t.psv_equits));
  l.set("psv.host_s_per_equit", t.psv_host_sum / t.psv_equit_sum);
  l.set("psv.svs_processed", median(t.psv_svs));
  l.set("gpuicd.equits", median(t.gpu_equits));
  l.set("gpuicd.host_s_per_equit", t.gpu_host_sum / t.gpu_equit_sum);
  l.set("gpuicd.kernels_launched", median(t.gpu_kernels));
  l.set("gpuicd.chunk_cache_hit_ratio",
        t.chunk_lookups > 0 ? t.chunk_hits / t.chunk_lookups : 0.0);
  l.set("gsim.host_s_per_launch", t.gpu_host_sum / t.gpu_launch_sum);
  l.set("gsim.svb_gen_modeled_s", median(t.svb_gen_s));
  l.set("gsim.mbir_update_modeled_s", median(t.mbir_update_s));
  l.set("gsim.writeback_modeled_s", median(t.writeback_s));
  l.set("gsim.amatrix_bytes", median(t.amatrix_bytes));
  l.set("gsim.svb_bytes", median(t.svb_bytes));
  l.set("gsim.flops", median(t.flops));
  l.set("shard.host_s", median(t.shard_host_s));
  l.set("shard.compute_modeled_s", median(t.shard_compute_s));
  l.set("shard.comm_modeled_s", median(t.shard_comm_s));
  l.set("sched.batch_host_s", median(t.batch_host_s));
  l.set("sched.makespan_modeled_s", median(t.makespan_s));
  l.set("sched.host_cpu_util", median(t.batch_util));
  const double rounds = double(t.table1_wall_s.size());
  t.self_s["sched"] += std::accumulate(t.sched_overhead_s.begin(),
                                       t.sched_overhead_s.end(), 0.0);
  for (const auto& [layer, s] : t.self_s) l.set(layer + ".self_s", s / rounds);
  return out;
}

}  // namespace perfbench
