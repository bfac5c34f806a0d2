// Batch scheduler (src/sched): sharding heterogeneous jobs across simulated
// devices must be bit-identical to running the same jobs serially, for any
// device count and host thread count; plus futures, cancellation, failure
// isolation, the aggregate report, and per-device trace processes.
#include <gtest/gtest.h>

#include <thread>

#include "core/thread_pool.h"
#include "obs/json.h"
#include "sched/scheduler.h"
#include "test_support.h"

namespace mbir {
namespace {

using sched::BatchScheduler;
using sched::BatchReport;
using sched::JobResult;
using sched::SchedulerOptions;

// Heterogeneous job mix: all three engines (PSV pinned to one thread — the
// only deterministic PSV mode, DESIGN.md §7), convergence and fixed-budget
// stops, and GPU variants that exercise different kernels and layouts.
std::vector<RunConfig> heterogeneousJobs() {
  std::vector<RunConfig> jobs;

  RunConfig seq_budget = test::tinyRunConfig(Algorithm::kSequentialIcd, 2.0);
  seq_budget.stop_rmse_hu = -1.0;  // run the fixed budget
  jobs.push_back(seq_budget);

  jobs.push_back(test::tinyRunConfig(Algorithm::kSequentialIcd, 20.0));

  RunConfig gpu_budget = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  gpu_budget.stop_rmse_hu = -1.0;
  jobs.push_back(gpu_budget);

  jobs.push_back(test::tinyRunConfig(Algorithm::kGpuIcd, 16.0));

  RunConfig gpu_exact = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  gpu_exact.stop_rmse_hu = -1.0;
  gpu_exact.gpu.flags.quantize_amatrix = false;
  jobs.push_back(gpu_exact);

  RunConfig gpu_intra = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  gpu_intra.stop_rmse_hu = -1.0;
  gpu_intra.gpu.tunables.threadblocks_per_sv = 8;
  jobs.push_back(gpu_intra);

  RunConfig psv_budget = test::tinyRunConfig(Algorithm::kPsvIcd, 3.0);
  psv_budget.stop_rmse_hu = -1.0;
  psv_budget.psv.num_threads = 1;
  jobs.push_back(psv_budget);

  RunConfig psv_conv = test::tinyRunConfig(Algorithm::kPsvIcd, 16.0);
  psv_conv.psv.num_threads = 1;
  jobs.push_back(psv_conv);

  return jobs;
}

std::vector<RunResult> serialBaseline(const std::vector<RunConfig>& jobs) {
  std::vector<RunResult> out;
  out.reserve(jobs.size());
  for (const RunConfig& cfg : jobs)
    out.push_back(reconstruct(test::tinyProblem(), test::tinyGolden(), cfg));
  return out;
}

TEST(SchedDeterminism, BitIdenticalToSerialForAnyDeviceAndThreadCount) {
  const std::vector<RunConfig> jobs = heterogeneousJobs();
  ASSERT_GE(jobs.size(), 8u);
  const std::vector<RunResult> serial = serialBaseline(jobs);

  for (int devices : {1, 2, 4}) {
    for (unsigned threads : {1u, 2u}) {
      SCOPED_TRACE("devices=" + std::to_string(devices) +
                   " threads=" + std::to_string(threads));
      ThreadPool pool(threads);
      SchedulerOptions opt;
      opt.num_devices = devices;
      opt.host_pool = &pool;
      BatchScheduler s(opt);
      for (const RunConfig& cfg : jobs)
        s.submit(test::tinyProblem(), test::tinyGolden(), cfg);
      s.runAll();
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        const JobResult& r = s.result(int(i));
        EXPECT_FALSE(r.failed) << r.error;
        test::expectRunResultsBitIdentical(serial[i], r.run);
      }
    }
  }
}

TEST(Sched, RoundRobinDeviceAssignment) {
  const std::vector<RunConfig> jobs = heterogeneousJobs();
  SchedulerOptions opt;
  opt.num_devices = 4;
  BatchScheduler s(opt);
  for (const RunConfig& cfg : jobs)
    s.submit(test::tinyProblem(), test::tinyGolden(), cfg);
  s.runAll();
  for (int i = 0; i < s.jobCount(); ++i) EXPECT_EQ(s.result(i).device, i % 4);
}

TEST(Sched, FuturesResolveToResults) {
  SchedulerOptions opt;
  opt.num_devices = 2;
  BatchScheduler s(opt);
  RunConfig cfg = test::tinyRunConfig(Algorithm::kSequentialIcd, 2.0);
  cfg.stop_rmse_hu = -1.0;
  const int a = s.submit(test::tinyProblem(), test::tinyGolden(), cfg, "a");
  const int b = s.submit(test::tinyProblem(), test::tinyGolden(), cfg, "b");
  auto fa = s.future(a);  // requested before runAll
  s.runAll();
  auto fb = s.future(b);  // and after
  ASSERT_EQ(fa.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  ASSERT_EQ(fb.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(fa.get(), &s.result(a));
  EXPECT_EQ(fb.get(), &s.result(b));
  EXPECT_EQ(fa.get()->name, "a");
  EXPECT_EQ(fb.get()->name, "b");
}

TEST(Sched, CancelBeforeRunStopsAtFirstIterationBoundary) {
  SchedulerOptions opt;
  opt.num_devices = 2;
  BatchScheduler s(opt);
  RunConfig cfg = test::tinyRunConfig(Algorithm::kSequentialIcd, 30.0);
  cfg.stop_rmse_hu = -1.0;
  const int victim = s.submit(test::tinyProblem(), test::tinyGolden(), cfg);
  const int other = s.submit(test::tinyProblem(), test::tinyGolden(), cfg);
  s.cancel(victim);
  s.runAll();
  const JobResult& rv = s.result(victim);
  EXPECT_TRUE(rv.cancelled);
  EXPECT_TRUE(rv.run.cancelled);
  EXPECT_FALSE(rv.run.converged);
  EXPECT_TRUE(rv.run.curve.empty());  // stopped before the first sample
  EXPECT_LT(rv.run.equits, 2.0);      // far short of the 30-equit budget
  const JobResult& ro = s.result(other);
  EXPECT_FALSE(ro.cancelled);
  EXPECT_GE(ro.run.equits, 29.0);
  EXPECT_EQ(s.report().jobs_cancelled, 1);
}

TEST(Sched, CancelWhileInFlightTerminatesBatch) {
  // Cancel everything from outside while the batch runs; the batch must
  // drain promptly and every job must be either cancelled or finished.
  SchedulerOptions opt;
  opt.num_devices = 2;
  BatchScheduler s(opt);
  RunConfig cfg = test::tinyRunConfig(Algorithm::kSequentialIcd, 50.0);
  cfg.stop_rmse_hu = -1.0;
  for (int i = 0; i < 6; ++i)
    s.submit(test::tinyProblem(), test::tinyGolden(), cfg);
  auto f0 = s.future(0);
  std::thread canceller([&] {
    f0.wait();  // batch is definitely in flight once job 0 finished
    for (int i = 0; i < s.jobCount(); ++i) s.cancel(i);
  });
  s.runAll();
  canceller.join();
  for (int i = 0; i < s.jobCount(); ++i) {
    const JobResult& r = s.result(i);
    EXPECT_FALSE(r.failed) << r.error;
    // Every job either ran its full budget or was cut short by the cancel.
    if (!r.cancelled) EXPECT_GE(r.run.equits, 49.0);
  }
}

TEST(Sched, FailedJobIsIsolated) {
  SchedulerOptions opt;
  opt.num_devices = 2;
  BatchScheduler s(opt);
  RunConfig good = test::tinyRunConfig(Algorithm::kSequentialIcd, 2.0);
  good.stop_rmse_hu = -1.0;
  RunConfig bad = test::tinyRunConfig(Algorithm::kGpuIcd, 2.0);
  bad.gpu.tunables.threads_per_block = 100;  // not a multiple of 32: throws
  s.submit(test::tinyProblem(), test::tinyGolden(), good, "good0");
  s.submit(test::tinyProblem(), test::tinyGolden(), bad, "bad");
  s.submit(test::tinyProblem(), test::tinyGolden(), good, "good1");
  const BatchReport& rep = s.runAll();
  EXPECT_TRUE(s.result(1).failed);
  EXPECT_FALSE(s.result(1).error.empty());
  EXPECT_FALSE(s.result(0).failed);
  EXPECT_FALSE(s.result(2).failed);
  EXPECT_GT(s.result(0).run.equits, 0.0);
  EXPECT_GT(s.result(2).run.equits, 0.0);
  EXPECT_EQ(rep.jobs_failed, 1);
}

TEST(Sched, ReportAggregatesAreConsistent) {
  const std::vector<RunConfig> jobs = heterogeneousJobs();
  SchedulerOptions opt;
  opt.num_devices = 2;
  BatchScheduler s(opt);
  for (const RunConfig& cfg : jobs)
    s.submit(test::tinyProblem(), test::tinyGolden(), cfg);
  const BatchReport& rep = s.runAll();

  EXPECT_EQ(rep.jobs_total, int(jobs.size()));
  EXPECT_EQ(rep.jobs_failed, 0);
  EXPECT_GT(rep.host_seconds, 0.0);
  EXPECT_GT(rep.jobs_per_host_second, 0.0);
  ASSERT_EQ(rep.device_modeled_s.size(), 2u);

  // Per-device modeled clocks tile exactly: each device's jobs abut, the
  // first job waits zero, and the clocks sum to the batch total.
  double sum_jobs = 0.0, sum_devices = 0.0;
  std::vector<double> clock(2, 0.0);
  for (int i = 0; i < s.jobCount(); ++i) {
    const JobResult& r = s.result(i);
    EXPECT_EQ(r.queue_wait_modeled_s, clock[std::size_t(r.device)]);
    EXPECT_EQ(r.device_start_modeled_s, r.queue_wait_modeled_s);
    EXPECT_EQ(r.device_end_modeled_s,
              r.device_start_modeled_s + r.run.modeled_seconds);
    clock[std::size_t(r.device)] = r.device_end_modeled_s;
    sum_jobs += r.run.modeled_seconds;
  }
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(rep.device_modeled_s[d], clock[d]);
    sum_devices += rep.device_modeled_s[d];
  }
  EXPECT_DOUBLE_EQ(rep.modeled_device_seconds_total, sum_jobs);
  EXPECT_DOUBLE_EQ(sum_devices, sum_jobs);
  EXPECT_EQ(rep.makespan_modeled_s,
            std::max(rep.device_modeled_s[0], rep.device_modeled_s[1]));
  EXPECT_GE(rep.queue_wait_max_s, rep.queue_wait_mean_s);
}

TEST(Sched, BatchReportJsonParses) {
  SchedulerOptions opt;
  opt.num_devices = 2;
  BatchScheduler s(opt);
  RunConfig cfg = test::tinyRunConfig(Algorithm::kSequentialIcd, 2.0);
  cfg.stop_rmse_hu = -1.0;
  for (int i = 0; i < 3; ++i)
    s.submit(test::tinyProblem(), test::tinyGolden(), cfg);
  s.runAll();
  const obs::JsonValue doc = obs::parseJson(s.reportJson());
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.find("schema")->asString(), "gpumbir.batch_report/1");
  EXPECT_EQ(doc.find("jobs_total")->asNumber(), 3.0);
  EXPECT_EQ(doc.find("num_devices")->asNumber(), 2.0);
  const obs::JsonValue* jobs = doc.find("jobs");
  ASSERT_TRUE(jobs && jobs->isArray());
  ASSERT_EQ(jobs->array_v.size(), 3u);
  for (const obs::JsonValue& j : jobs->array_v) {
    EXPECT_TRUE(j.find("name")->isString());
    EXPECT_GE(j.find("modeled_seconds")->asNumber(), 0.0);
    EXPECT_GE(j.find("queue_wait_modeled_s")->asNumber(), 0.0);
  }
}

TEST(Sched, SharedRecorderSeesDevicesAndJobs) {
  obs::ObsConfig ocfg;
  ocfg.metrics = true;
  ocfg.trace = true;
  obs::Recorder rec(ocfg);
  SchedulerOptions opt;
  opt.num_devices = 2;
  opt.recorder = &rec;
  BatchScheduler s(opt);
  RunConfig cfg = test::tinyRunConfig(Algorithm::kGpuIcd, 3.0);
  cfg.stop_rmse_hu = -1.0;
  for (int i = 0; i < 4; ++i)
    s.submit(test::tinyProblem(), test::tinyGolden(), cfg);
  s.runAll();

  EXPECT_EQ(rec.metrics().counterValue("sched.jobs.completed"), 4u);
  EXPECT_EQ(rec.metrics().counterValue("sched.jobs.cancelled"), 0u);
  EXPECT_GT(rec.metrics().counterValue("gsim.launch.count"), 0u);

  // The trace declares one process per device and attributes modeled-clock
  // spans to the device pids.
  const obs::JsonValue doc = obs::parseJson(rec.trace().toJson());
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_TRUE(events && events->isArray());
  bool named_dev0 = false, named_dev1 = false;
  bool span_on_dev0 = false, span_on_dev1 = false;
  for (const obs::JsonValue& ev : events->array_v) {
    const obs::JsonValue* name = ev.find("name");
    const obs::JsonValue* pid = ev.find("pid");
    if (!name || !pid) continue;
    if (name->asString() == "process_name") {
      const obs::JsonValue* args = ev.find("args");
      if (args && args->find("name")) {
        if (args->find("name")->asString() == "device 0 (modeled)")
          named_dev0 = true;
        if (args->find("name")->asString() == "device 1 (modeled)")
          named_dev1 = true;
      }
    } else {
      if (pid->asNumber() == 10.0) span_on_dev0 = true;
      if (pid->asNumber() == 11.0) span_on_dev1 = true;
    }
  }
  EXPECT_TRUE(named_dev0);
  EXPECT_TRUE(named_dev1);
  EXPECT_TRUE(span_on_dev0);
  EXPECT_TRUE(span_on_dev1);
}

TEST(SchedDeterminism, ObservabilityDoesNotPerturbResults) {
  RunConfig cfg = test::tinyRunConfig(Algorithm::kGpuIcd, 3.0);
  cfg.stop_rmse_hu = -1.0;

  const auto run_batch = [&](obs::Recorder* rec) {
    SchedulerOptions opt;
    opt.num_devices = 2;
    opt.recorder = rec;
    BatchScheduler s(opt);
    for (int i = 0; i < 4; ++i)
      s.submit(test::tinyProblem(), test::tinyGolden(), cfg);
    s.runAll();
    std::vector<std::uint64_t> hashes;
    for (int i = 0; i < s.jobCount(); ++i)
      hashes.push_back(test::imageHash(s.result(i).run.image));
    return hashes;
  };

  obs::ObsConfig ocfg;
  ocfg.metrics = true;
  ocfg.trace = true;
  obs::Recorder rec(ocfg);
  EXPECT_EQ(run_batch(nullptr), run_batch(&rec));
}

TEST(Sched, RaceCheckedBatchIsCleanAndBitIdentical) {
  // A 2-device batch with fatal race checking on every job: each device's
  // simulator carries its own detector, every launch on every device is
  // checked, all come out clean, and checking does not perturb results —
  // the batch stays bit-identical to the serial unchecked baseline.
  RunConfig checked = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  checked.stop_rmse_hu = -1.0;
  checked.gpu.race_check = {
      .enabled = true, .throw_on_race = true, .max_reports = 64};
  RunConfig unchecked = checked;
  unchecked.gpu.race_check = {};

  const std::vector<RunResult> serial =
      serialBaseline(std::vector<RunConfig>(4, unchecked));

  SchedulerOptions opt;
  opt.num_devices = 2;
  BatchScheduler s(opt);
  for (int i = 0; i < 4; ++i)
    s.submit(test::tinyProblem(), test::tinyGolden(), checked);
  s.runAll();

  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    const JobResult& r = s.result(i);
    ASSERT_FALSE(r.failed) << r.error;
    ASSERT_TRUE(r.run.gpu_stats);
    EXPECT_TRUE(r.run.gpu_stats->race_check_enabled);
    EXPECT_GT(r.run.gpu_stats->race_launches_checked, 0u);
    EXPECT_EQ(r.run.gpu_stats->race_reports, 0u);
    test::expectRunResultsBitIdentical(serial[std::size_t(i)], r.run);
  }

  // The batch report carries the per-job race-check summary.
  const obs::JsonValue doc = obs::parseJson(s.reportJson());
  const obs::JsonValue* jobs = doc.find("jobs");
  ASSERT_TRUE(jobs && jobs->isArray());
  ASSERT_EQ(jobs->array_v.size(), 4u);
  for (const obs::JsonValue& j : jobs->array_v) {
    const obs::JsonValue* rc = j.find("race_check");
    ASSERT_TRUE(rc && rc->isObject());
    EXPECT_TRUE(rc->find("enabled")->asBool());
    EXPECT_GT(rc->find("launches_checked")->asNumber(), 0.0);
    EXPECT_EQ(rc->find("races_found")->asNumber(), 0.0);
  }
}

}  // namespace
}  // namespace mbir
