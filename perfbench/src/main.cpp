// perfbench_driver: runs one workload and prints its result line.
//
//   perfbench_driver --workload <offline-table1|service-cold|service-repeat>
//                    --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics when
// --trace is 0, the per-layer metrics when it is 1 (the traced run also
// switches on the program's span trace). Both sheets are also written to
// standard error for reading by eye. A step that throws is named on
// standard error and the exit code is 1.
#include <cstdio>
#include <exception>
#include <string>

#include "core/simd.h"
#include "workloads.h"

namespace perfbench {

namespace {

std::string g_step = "start-up";

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload prints every metric below. Units: host seconds "s",
// simulated Titan X seconds "modeled-s".
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"jobs_per_s", "1/s"},
    {"e2e_p50_s", "s"},
    {"gpu_host_s", "s"},      {"gpu_modeled_s", "modeled-s"},
};

// A layer a workload does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"peak_rss_mb", "MiB"},
    {"e2e_p99_s", "s"},
    {"table1_wall_s", "s"},
    {"psv_host_s", "s"},
    {"shard_d4_modeled_s", "modeled-s"},
    {"batch_jobs_per_s", "1/s"},
    {"submit_p50_s", "s"},
    {"saturated_jobs_per_s", "1/s"},
    {"hit_e2e_p50_s", "s"},
    {"hit_e2e_p99_s", "s"},
    {"geom.matrix_build_s", "s"},
    {"scan.make_case_s", "s"},
    {"icd.golden_s", "s"},
    {"icd.seq_host_s", "s"},
    {"icd.seq_equits", "equits"},
    {"psv.equits", "equits"},
    {"psv.host_s_per_equit", "s"},
    {"psv.svs_processed", "count"},
    {"gpuicd.equits", "equits"},
    {"gpuicd.host_s_per_equit", "s"},
    {"gpuicd.kernels_launched", "count"},
    {"gpuicd.chunk_cache_hit_ratio", "ratio"},
    {"gsim.host_s_per_launch", "s"},
    {"gsim.svb_gen_modeled_s", "modeled-s"},
    {"gsim.mbir_update_modeled_s", "modeled-s"},
    {"gsim.writeback_modeled_s", "modeled-s"},
    {"gsim.amatrix_bytes", "bytes"},
    {"gsim.svb_bytes", "bytes"},
    {"gsim.flops", "count"},
    {"shard.host_s", "s"},
    {"shard.compute_modeled_s", "modeled-s"},
    {"shard.comm_modeled_s", "modeled-s"},
    {"sched.batch_host_s", "s"},
    {"sched.makespan_modeled_s", "modeled-s"},
    {"sched.host_cpu_util", "ratio"},
    {"svc.queue_wait_p50_s", "s"},
    {"svc.queue_wait_p99_s", "s"},
    {"svc.service_p50_s", "s"},
    {"svc.admission_rejects", "count"},
    {"svc.host_cpu_util", "ratio"},
    {"svc.generator_late_p99_s", "s"},
    {"svc.new_case_submit_p50_s", "s"},
    {"store.wal_bytes", "bytes"},
    {"store.cache_hits", "count"},
    {"store.cache_entries", "count"},
    {"store.warm_starts", "count"},
    {"store.warm_equits", "equits"},
    {"store.cold_equits", "equits"},
    {"recon.self_s", "s"},
    {"icd.self_s", "s"},
    {"psv.self_s", "s"},
    {"gpuicd.self_s", "s"},
    {"gsim.self_s", "s"},
    {"sched.self_s", "s"},
    {"svc.self_s", "s"},
};

template <std::size_t N>
std::string metricsJson(const Sheet& sheet, const MetricSpec (&specs)[N],
                        bool default_zero) {
  std::string s = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const MetricSpec& m = specs[i];
    if (!sheet.has(m.name) && !default_zero)
      throw std::runtime_error(std::string("metric not measured: ") + m.name);
    const double v = sheet.has(m.name) ? sheet.get(m.name) : 0.0;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name, v, m.unit);
    s += buf;
  }
  return s + "}";
}

}  // namespace

void setStep(const std::string& step) { g_step = step; }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  args.process_start = Clock::now();
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string k = argv[i], v = argv[i + 1];
      if (k == "--workload") args.workload = v;
      else if (k == "--seed") args.seed = std::stoull(v);
      else if (k == "--seconds") args.seconds = std::stod(v);
      else if (k == "--trace") args.trace = v == "1";
      else if (k == "--workdir") args.workdir = v;
      else throw std::runtime_error("unknown argument " + k);
    }
    if (!(args.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
    Outcome out;
    if (args.workload == "offline-table1") out = runOffline(args);
    else if (args.workload == "service-cold") out = runService(args, false);
    else if (args.workload == "service-repeat") out = runService(args, true);
    else throw std::runtime_error("unknown workload '" + args.workload + "'");

    setStep("report");
    const std::string e2e = metricsJson(out.e2e, kEndToEnd, false);
    const std::string layers = metricsJson(out.layers, kPerLayer, true);
    std::fprintf(stderr, "perfbench: %s seed %llu simd %s host threads %d\n",
                 args.workload.c_str(), (unsigned long long)args.seed,
                 mbir::resolveSimdOps(mbir::SimdMode::kDefault).name,
                 kHostThreads);
    std::fprintf(stderr, "perfbench: end-to-end %s\n", e2e.c_str());
    std::fprintf(stderr, "perfbench: per-layer %s\n", layers.c_str());
    for (const std::string& f : out.check_failures)
      std::fprintf(stderr, "perfbench: CHECK FAILED %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": %s}\n",
                out.correct() ? "true" : "false", out.attempted, out.failed,
                args.trace ? layers.c_str() : e2e.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: step '%s' failed: %s\n", g_step.c_str(),
                 e.what());
    return 1;
  }
}
