// service-cold and service-repeat: the reconstruction service on kDevices
// simulated devices with its write-ahead log and result cache on, driven over
// the gpumbir.svc/1 wire protocol by an in-process load generator of
// kHostThreads connections.
//
// A round is an open loop (submits due at a fixed rate, timed from when each
// was due) followed by a saturating burst. service-cold sends only
// cache-bypassing GPU-ICD submits of prebuilt cases from two tenants with
// mixed priorities. service-repeat sends a mix: exact repeats (cache hits),
// near-duplicates (same case, tighter stop: warm starts) and cases never
// seen before (built in the submit path).
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "checks.h"
#include "core/thread_pool.h"
#include "obs/obs.h"
#include "recon/case_library.h"
#include "store/cache.h"
#include "store/wal.h"
#include "svc/client.h"
#include "svc/server.h"
#include "workloads.h"

namespace perfbench {

using namespace mbir;

namespace {

constexpr int kPrebuiltCases = 6;
constexpr double kGoldenEquits = 12.0;  // recon_server's default
constexpr double kMaxEquits = 10.0;
constexpr double kNearStopHu = 7.0;     // near-duplicate: tighter stop
constexpr int kQueueCapacity = 128;  // holds a whole burst: no rejections
constexpr int kNewCaseBase = 100000;
// Open loop: submits per round and their fixed rate; then the burst size.
constexpr int kOpenSubmits[2] = {50, 126};  // service-cold, service-repeat
constexpr double kOpenRatePerS[2] = {12.0, 40.0};
constexpr int kBurstSubmits[2] = {98, 126};

enum class Kind { kCold, kRepeat, kNear, kNew };

struct Submit {
  Kind kind = Kind::kCold;
  svc::SubmitParams params;
};

struct Sent {
  const Submit* submit = nullptr;
  double due = 0, send = 0, ack = 0;  // seconds since the phase start
  svc::Client::SubmitResult r;
  svc::Client::JobInfo info;
  double done = 0;  // when the result verb returned
  double e2eSeconds() const { return (ack - due) + info.e2e_host_s; }
};

/// The service's case library: the suite's default seed, so every run
/// serves the same prebuilt cases and the workload seed drives the traffic.
SuiteConfig serviceSuite() {
  SuiteConfig cfg;
  cfg.geometry.image_size = 64;
  cfg.geometry.num_views = 96;
  cfg.geometry.num_channels = 128;
  return cfg;
}

RunConfig baseConfig() {
  RunConfig base;
  base.algorithm = Algorithm::kGpuIcd;
  base.max_equits = kMaxEquits;
  return base;
}

/// One phase of one round. Submits are dealt from a shuffled deck of
/// (case, kind) pairs in which every prebuilt case gets the same share of
/// each kind (in the repeat mix, per 20 submits: 16 exact repeats, 3
/// near-duplicates, 1 never-seen case), so every seed sends the same work
/// in another order. Never-seen cases go to every kKinds-th slot: their
/// builds stall the submit path (CaseLibrary builds under its lock), and
/// letting a random order bunch them would make the stall vary by seed.
/// The `count % deck` leftover submits draw case and kind at random, and
/// tenant and priority are drawn per submit. Rounds repeat the same submits,
/// except that never-seen cases get new indices each time.
constexpr int kKinds = 20;
std::vector<Submit> planRound(bool repeat_mix, int count, std::uint64_t seed,
                              int phase, int round, int& new_cases) {
  std::mt19937_64 rng(seed * 7919 + std::uint64_t(phase));
  const int deck = repeat_mix ? kPrebuiltCases * kKinds : kPrebuiltCases;
  const int dealt = count - count % deck;
  std::vector<std::pair<int, int>> pairs;  // (case, kind)
  for (int k = 0; k < count; ++k)
    pairs.emplace_back(k < dealt ? k % kPrebuiltCases : int(rng() % kPrebuiltCases),
                       k < dealt ? (k / kPrebuiltCases) % kKinds : int(rng() % kKinds));
  std::shuffle(pairs.begin(), pairs.end(), rng);
  std::stable_partition(pairs.begin(), pairs.end(),
                        [](const auto& p) { return p.second != 0; });
  const auto news = std::find_if(pairs.begin(), pairs.end(),
                                 [](const auto& p) { return p.second == 0; });
  std::vector<std::pair<int, int>> others(pairs.begin(), news),
      fresh(news, pairs.end());
  pairs.clear();
  for (std::size_t o = 0, f = 0; o + f < others.size() + fresh.size();) {
    const bool slot = pairs.size() % kKinds == kKinds - 1;
    if (f < fresh.size() && (slot || o == others.size())) pairs.push_back(fresh[f++]);
    else pairs.push_back(others[o++]);
  }
  std::vector<Submit> out;
  for (int k = 0; k < count; ++k) {
    Submit s;
    svc::SubmitParams& p = s.params;
    p.algorithm = "gpu";
    p.case_index = pairs[std::size_t(k)].first;
    p.tenant = rng() % 4 != 0 ? "alice" : "bob";  // 3:1 traffic, 3:1 weights
    p.priority = int(rng() % 3);
    const int kind = pairs[std::size_t(k)].second;
    if (!repeat_mix) {
      s.kind = Kind::kCold;
      p.bypass_cache = true;
    } else if (kind == 0) {  // 1 in 20: a case never seen before
      s.kind = Kind::kNew;
      p.case_index = kNewCaseBase + new_cases++;
    } else if (kind <= 3) {  // 3 in 20: same case, other config
      s.kind = Kind::kNear;
      p.stop_rmse_hu = kNearStopHu;
    } else {
      s.kind = Kind::kRepeat;
    }
    p.name = "r" + std::to_string(round) + "p" + std::to_string(phase) + "k" +
             std::to_string(k);
    out.push_back(std::move(s));
  }
  return out;
}

/// Sends `plan[k]` at `t0 + due[k]` from min(kHostThreads, CPUs) connections,
/// then collects every accepted job's result (with its image for warm
/// starts) on one more, opened after the senders have closed theirs.
std::vector<Sent> runPhase(std::uint16_t port, const std::vector<Submit>& plan,
                           const std::vector<double>& due) {
  std::vector<Sent> sent(plan.size());
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const int senders = std::min(kHostThreads, onlineCpus());
  std::vector<std::thread> gen;
  std::vector<std::exception_ptr> errors(std::size_t(senders), nullptr);
  for (int g = 0; g < senders; ++g)
    gen.emplace_back([&, g] {
      try {
        svc::Client client(port);
        for (std::size_t k; (k = next.fetch_add(1)) < plan.size();) {
          std::this_thread::sleep_until(at(due[k]));
          Sent& s = sent[k];
          s.submit = &plan[k];
          s.due = due[k];
          s.send = secondsSince(t0);
          s.r = client.submit(plan[k].params);
          s.ack = secondsSince(t0);
        }
      } catch (...) {
        errors[std::size_t(g)] = std::current_exception();
      }
    });
  for (auto& t : gen) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
  svc::Client client(port);
  for (Sent& s : sent) {
    if (!s.r.accepted) continue;
    s.info = client.result(s.r.job_id, s.submit->kind == Kind::kNear);
    s.done = secondsSince(t0);
  }
  return sent;
}

/// Offline reference results from a second, independently built suite.
class Reference {
 public:
  Reference(SuiteConfig cfg, ThreadPool& pool) : suite_(cfg), pool_(pool) {}

  struct Case {
    OwnedProblem problem;
    Image2D golden;
  };
  const Case& get(int index) {
    auto& slot = cases_[index];
    if (!slot) {
      OwnedProblem problem = suite_.makeCase(index);
      Image2D golden = computeGolden(problem, kGoldenEquits);
      slot = std::make_unique<Case>(Case{std::move(problem), std::move(golden)});
    }
    return *slot;
  }
  /// reconstruct() of the case under the submit's svc::makeRunConfig.
  const RunResult& run(const svc::SubmitParams& p) {
    const auto key = std::make_pair(p.case_index, svc::cacheConfigKey(baseConfig(), p));
    auto& slot = runs_[key];
    if (!slot) {
      const Case& c = get(p.case_index);
      RunConfig cfg = svc::makeRunConfig(baseConfig(), p);
      cfg.gpu.host_pool = &pool_;
      slot = std::make_unique<RunResult>(reconstruct(c.problem, c.golden, cfg));
    }
    return *slot;
  }

 private:
  Suite suite_;
  ThreadPool& pool_;
  std::map<int, std::unique_ptr<Case>> cases_;
  std::map<std::pair<int, std::string>, std::unique_ptr<RunResult>> runs_;
};

void checkJob(const Sent& s, Reference& ref,
              const std::map<int, std::string>& cold_hash, Outcome& out) {
  const svc::SubmitParams& p = s.submit->params;
  const std::string tag = "job " + p.name + " (case " +
                          std::to_string(p.case_index) + ")";
  std::string why;
  out.check(s.info.state == "done", tag, "ended " + s.info.state + " " + s.info.error);
  const Reference::Case& c = ref.get(p.case_index);
  if (s.submit->kind == Kind::kNear) {
    out.check(s.info.warm_start, tag, "near-duplicate did not warm-start");
    if (!s.info.image) {
      out.check(false, tag, "no image returned");
      return;
    }
    const Image2D& img = *s.info.image;
    out.check(hashNames(s.info.image_hash, img, why), tag, why);
    out.check(beatsFbpOnFlatRegions(c.problem, img, why), tag, why);
    out.check(costBelowFbp(c.problem, img, why), tag, why);
    out.check(rmseAgrees(img, c.golden, s.info.converged, s.info.final_rmse_hu, why),
              tag, why);
    return;
  }
  const RunResult& r = ref.run(p);
  out.check(hashNames(s.info.image_hash, r.image, why), tag, why);
  out.check(rmseAgrees(r.image, c.golden, s.info.converged, s.info.final_rmse_hu, why),
            tag, why);
  if (s.submit->kind == Kind::kRepeat) {
    out.check(s.info.cache_hit, tag, "exact repeat was not served from the cache");
    const auto it = cold_hash.find(p.case_index);
    out.check(it != cold_hash.end() && it->second == s.info.image_hash, tag,
              "cache-served hash differs from the case's cold result");
  } else {
    out.check(!s.info.cache_hit && !s.info.warm_start, tag, "expected a cold run");
  }
}

}  // namespace

Outcome runService(const RunArgs& args, bool repeat_mix) {
  Outcome out;
  const int w = repeat_mix ? 1 : 0;
  const std::string name = repeat_mix ? "service-repeat" : "service-cold";
  setStep(name + ": start the server");
  const std::string wal_dir = args.workdir + "/wal";
  const std::string cache_dir = args.workdir + "/cache";
  std::filesystem::create_directories(wal_dir);
  std::filesystem::create_directories(cache_dir);

  ThreadPool pool(kHostThreads);
  obs::ObsConfig obs_cfg;
  obs_cfg.metrics = true;
  obs_cfg.trace = args.trace;
  obs::Recorder recorder(obs_cfg);
  const auto m0 = Clock::now();
  CaseLibrary library(serviceSuite(), kGoldenEquits);
  const double matrix_s = secondsSince(m0);
  svc::CaseLibraryJobSource source(library);
  store::JobLog wal(wal_dir, &recorder.metrics());
  store::ResultCache cache(cache_dir, 256, &recorder.metrics());
  svc::ServerOptions opt;
  opt.dispatch.num_devices = kDevices;
  opt.dispatch.queue_capacity = kQueueCapacity;
  opt.dispatch.host_pool = &pool;
  opt.dispatch.recorder = &recorder;
  opt.dispatch.tenant_weights = {{"alice", 3.0}, {"bob", 1.0}};
  opt.base_config = baseConfig();
  opt.wal = &wal;
  opt.cache = &cache;
  svc::Server server(opt, source);
  setStep(name + ": build the prebuilt cases");
  for (int i = 0; i < kPrebuiltCases; ++i) library.get(i);
  const double setup_s = secondsSince(args.process_start);

  Reference ref(serviceSuite(), pool);
  std::map<int, std::string> cold_hash;
  if (repeat_mix) {
    // Fill the cache with each prebuilt case's cold result: the exact
    // repeats below must hit it, and near-duplicates warm-start from it.
    setStep(name + ": fill the result cache");
    std::vector<Submit> fill(kPrebuiltCases);
    for (int i = 0; i < kPrebuiltCases; ++i) {
      fill[std::size_t(i)].params.case_index = i;
      fill[std::size_t(i)].params.name = "fill" + std::to_string(i);
    }
    for (const Sent& s : runPhase(server.port(), fill,
                                  std::vector<double>(fill.size(), 0.0))) {
      out.check(s.r.accepted && s.info.state == "done", "cache fill",
                s.r.error + s.info.error);
      cold_hash[s.submit->params.case_index] = s.info.image_hash;
    }
  }

  std::vector<double> e2e, hit_e2e, submit_rtt, new_submit_rtt, late, queue_wait,
      host_s, modeled_s, warm_equits, cold_equits, burst_rate, burst_util;
  long warm_starts = 0, rejects = 0;
  int rounds = 0, new_cases = 0;
  const std::uint64_t wal0 = wal.bytesAppended();
  const std::uint64_t hits0 = cache.counters().hits;
  const std::uint64_t launches0 = recorder.metrics().counterValue("gsim.launch.count");
  const std::uint64_t chunk_hits0 =
      recorder.metrics().counterValue("gpuicd.chunk_cache.hits");
  const std::uint64_t chunk_miss0 =
      recorder.metrics().counterValue("gpuicd.chunk_cache.misses");
  double dispatched_host_sum = 0, dispatched_equit_sum = 0;
  const double trace0_us = recorder.trace().nowHostUs();
  double measured = 0;
  while (measured < args.seconds) {
    setStep(name + ": round " + std::to_string(rounds) + " open loop");
    const std::vector<Submit> open =
        planRound(repeat_mix, kOpenSubmits[w], args.seed, 0, rounds, new_cases);
    std::vector<double> due(open.size());
    for (std::size_t k = 0; k < due.size(); ++k) due[k] = double(k) / kOpenRatePerS[w];
    auto t0 = Clock::now();
    const std::vector<Sent> open_sent = runPhase(server.port(), open, due);
    measured += secondsSince(t0);

    setStep(name + ": round " + std::to_string(rounds) + " burst");
    const std::vector<Submit> burst =
        planRound(repeat_mix, kBurstSubmits[w], args.seed, 1, rounds, new_cases);
    const double cpu0 = cpuSeconds();
    t0 = Clock::now();
    const std::vector<Sent> burst_sent =
        runPhase(server.port(), burst, std::vector<double>(burst.size(), 0.0));
    double burst_s = 0, burst_done = 0;
    for (const Sent& s : burst_sent) {
      burst_s = std::max(burst_s, s.done);
      burst_done += s.info.state == "done" ? 1 : 0;
    }
    measured += secondsSince(t0);
    burst_rate.push_back(burst_done / burst_s);
    burst_util.push_back((cpuSeconds() - cpu0) / (burst_s * onlineCpus()));

    setStep(name + ": round " + std::to_string(rounds) + " checks");
    for (const auto* phase : {&open_sent, &burst_sent}) {
      const bool is_open = phase == &open_sent;
      for (const Sent& s : *phase) {
        ++out.attempted;
        if (!s.r.accepted || s.info.state != "done") ++out.failed;
        if (!s.r.accepted) {
          rejects += s.r.rejected ? 1 : 0;
          continue;
        }
        checkJob(s, ref, cold_hash, out);
        const Kind kind = s.submit->kind;
        if (is_open) {
          queue_wait.push_back(s.info.queue_wait_host_s);
          e2e.push_back(s.e2eSeconds());
          late.push_back(s.send - s.due);
          submit_rtt.push_back(s.ack - s.send);
          if (kind == Kind::kRepeat) hit_e2e.push_back(s.e2eSeconds());
          if (kind == Kind::kNew) new_submit_rtt.push_back(s.ack - s.send);
        }
        if (s.info.cache_hit) continue;
        host_s.push_back(s.info.service_host_s);
        modeled_s.push_back(s.info.modeled_seconds);
        dispatched_host_sum += s.info.service_host_s;
        dispatched_equit_sum += s.info.equits;
        if (s.info.warm_start) {
          ++warm_starts;
          warm_equits.push_back(s.info.equits);
        } else {
          cold_equits.push_back(s.info.equits);
        }
      }
    }
    ++rounds;
  }

  setStep(name + ": report");
  const double launches =
      double(recorder.metrics().counterValue("gsim.launch.count") - launches0);
  const double chunk_hits =
      double(recorder.metrics().counterValue("gpuicd.chunk_cache.hits") - chunk_hits0);
  const double chunk_lookups =
      chunk_hits +
      double(recorder.metrics().counterValue("gpuicd.chunk_cache.misses") - chunk_miss0);
  out.e2e.set("setup_s", setup_s);
  out.e2e.set("jobs_per_s", median(burst_rate));
  out.e2e.set("e2e_p50_s", median(e2e));
  out.layers.set("e2e_p99_s", tail(e2e));
  out.e2e.set("gpu_host_s", median(host_s));
  out.e2e.set("gpu_modeled_s", mean(modeled_s));
  out.layers.set("peak_rss_mb", peakRssMb());

  Sheet& l = out.layers;
  const double n = double(rounds);
  l.set("submit_p50_s", median(submit_rtt));
  l.set("saturated_jobs_per_s", median(burst_rate));
  l.set("hit_e2e_p50_s", median(hit_e2e));
  l.set("hit_e2e_p99_s", tail(hit_e2e));
  l.set("geom.matrix_build_s", matrix_s);
  l.set("gpuicd.equits", median(cold_equits));
  l.set("gpuicd.host_s_per_equit", dispatched_host_sum / dispatched_equit_sum);
  l.set("gpuicd.kernels_launched", launches / double(host_s.size()));
  l.set("gpuicd.chunk_cache_hit_ratio",
        chunk_lookups > 0 ? chunk_hits / chunk_lookups : 0.0);
  l.set("gsim.host_s_per_launch", dispatched_host_sum / launches);
  l.set("svc.queue_wait_p50_s", median(queue_wait));
  l.set("svc.queue_wait_p99_s", tail(queue_wait));
  l.set("svc.service_p50_s", median(host_s));
  l.set("svc.admission_rejects", double(rejects) / n);
  l.set("svc.host_cpu_util", median(burst_util));
  l.set("svc.generator_late_p99_s", tail(late));
  l.set("svc.new_case_submit_p50_s", median(new_submit_rtt));
  l.set("store.wal_bytes", double(wal.bytesAppended() - wal0) / n);
  l.set("store.cache_hits", double(cache.counters().hits - hits0) / n);
  l.set("store.cache_entries", double(cache.size()));
  l.set("store.warm_starts", double(warm_starts) / n);
  l.set("store.warm_equits", median(warm_equits));
  l.set("store.cold_equits", median(cold_equits));
  if (args.trace) {
    std::map<std::string, double> self_s;
    std::vector<obs::TraceEvent> events = recorder.trace().snapshot();
    std::erase_if(events, [&](const auto& ev) { return ev.ts_us < trace0_us; });
    addLayerSelfSeconds(events, self_s);
    for (const auto& [layer, s] : self_s) l.set(layer + ".self_s", s / n);
  }
  server.stop();
  return out;
}

}  // namespace perfbench
