// Integration tests for the online reconstruction service (src/svc): wire
// framing, protocol parsing, admission control, deadline fail-fast,
// priority ordering, the deterministic lane's bit-identity to the offline
// batch scheduler, cancellation, graceful drain, and malformed-frame fuzz
// over a real loopback connection.
//
// Flake resistance: anything that must observe a "busy" service first parks
// the device(s) on long blocker jobs (RMSE stop disabled, large equit cap)
// and polls status until they are actually running; blockers are then
// cancelled cooperatively to let the test finish fast. No sleeps are used
// as synchronization.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "core/error.h"
#include "core/hash.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "obs/obs.h"
#include "sched/scheduler.h"
#include "svc/client.h"
#include "svc/server.h"
#include "test_support.h"

namespace mbir::test {
namespace {

using svc::Client;
using svc::SubmitParams;

/// Serves tinyProblem()/tinyGolden() for every case index (the problem is
/// identical across indices; determinism comparisons only need the configs
/// to match). Indices >= 100 throw, to exercise the server's error path.
class TinySource : public svc::JobSource {
 public:
  Case get(int case_index) override {
    if (case_index >= 100) throw Error("case index out of range");
    return Case{tinyProblem(), tinyGolden()};
  }
};

RunConfig tinyBaseConfig() {
  RunConfig cfg = tinyRunConfig(Algorithm::kGpuIcd, /*max_equits=*/3.0);
  cfg.stop_rmse_hu = 0.0;  // fixed-work jobs: budget-bound, reproducible
  return cfg;
}

struct TestService {
  explicit TestService(int devices, int queue_cap,
                       obs::Recorder* recorder = nullptr,
                       std::string flight_dir = "") {
    svc::ServerOptions opt;
    opt.dispatch.num_devices = devices;
    opt.dispatch.queue_capacity = queue_cap;
    opt.dispatch.recorder = recorder;
    opt.dispatch.flight_dir = std::move(flight_dir);
    opt.base_config = tinyBaseConfig();
    server = std::make_unique<svc::Server>(opt, source);
  }
  Client connect() { return Client(server->port()); }

  TinySource source;
  std::unique_ptr<svc::Server> server;
};

/// A job that runs until cancelled (RMSE stop off, huge budget).
SubmitParams blockerParams(const std::string& name) {
  SubmitParams p;
  p.max_equits = 10000.0;
  p.stop_rmse_hu = 0.0;
  p.name = name;
  return p;
}

/// Poll until the job reports `state` (the submit->dispatch handoff is
/// asynchronous); tight loop with a yield, bounded by the test timeout.
void awaitState(Client& client, int job_id, const std::string& state) {
  while (client.jobStatus(job_id).state != state)
    std::this_thread::yield();
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(SvcFraming, RoundTripsThroughAPipe) {
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  ASSERT_TRUE(svc::writeFrame(fds[1], R"({"x":1})"));
  ASSERT_TRUE(svc::writeFrame(fds[1], ""));  // empty payload is legal framing
  std::string payload;
  EXPECT_EQ(svc::FrameStatus::kOk, svc::readFrame(fds[0], payload));
  EXPECT_EQ(R"({"x":1})", payload);
  EXPECT_EQ(svc::FrameStatus::kOk, svc::readFrame(fds[0], payload));
  EXPECT_EQ("", payload);
  ::close(fds[1]);
  EXPECT_EQ(svc::FrameStatus::kClosed, svc::readFrame(fds[0], payload));
  ::close(fds[0]);
}

TEST(SvcFraming, TruncatedHeaderAndPayloadAreDistinguishedFromClose) {
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  // Two header bytes, then EOF: mid-header truncation.
  ASSERT_EQ(2, ::write(fds[1], "\x00\x00", 2));
  ::close(fds[1]);
  std::string payload;
  EXPECT_EQ(svc::FrameStatus::kTruncated, svc::readFrame(fds[0], payload));
  ::close(fds[0]);

  ASSERT_EQ(0, ::pipe(fds));
  // Header declares 8 bytes; only 3 arrive.
  ASSERT_EQ(4, ::write(fds[1], "\x00\x00\x00\x08", 4));
  ASSERT_EQ(3, ::write(fds[1], "abc", 3));
  ::close(fds[1]);
  EXPECT_EQ(svc::FrameStatus::kTruncated, svc::readFrame(fds[0], payload));
  ::close(fds[0]);
}

TEST(SvcFraming, OversizedDeclaredLengthIsRejectedWithoutReadingTheBody) {
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  const std::string frame = svc::encodeFrame("0123456789");
  ASSERT_EQ(ssize_t(frame.size()),
            ::write(fds[1], frame.data(), frame.size()));
  std::string payload;
  EXPECT_EQ(svc::FrameStatus::kOversized,
            svc::readFrame(fds[0], payload, /*max_bytes=*/4));
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(SvcProtocol, MakeRunConfigMapsAlgorithmsAndPinsPsvThreads) {
  RunConfig base = tinyBaseConfig();
  base.psv.num_threads = 8;  // a service must not inherit racy PSV

  SubmitParams p;
  p.algorithm = "psv";
  p.max_equits = 7.0;
  p.sv_side = 4;
  RunConfig cfg = svc::makeRunConfig(base, p);
  EXPECT_EQ(Algorithm::kPsvIcd, cfg.algorithm);
  EXPECT_EQ(1, cfg.psv.num_threads);
  EXPECT_DOUBLE_EQ(7.0, cfg.max_equits);
  EXPECT_EQ(4, cfg.psv.sv.sv_side);
  EXPECT_EQ(4, cfg.gpu.tunables.sv.sv_side);

  p.algorithm = "seq";
  EXPECT_EQ(Algorithm::kSequentialIcd,
            svc::makeRunConfig(base, p).algorithm);
  p.algorithm = "gpu";
  EXPECT_EQ(Algorithm::kGpuIcd, svc::makeRunConfig(base, p).algorithm);
  p.algorithm = "warp9";
  EXPECT_THROW(svc::makeRunConfig(base, p), Error);
}

TEST(SvcProtocol, RequestFieldAccessIsStrictlyTyped) {
  const svc::Request req = svc::parseRequest(
      R"({"schema":"gpumbir.svc/1","verb":"submit","case":2,)"
      R"("priority":"high"})");
  EXPECT_EQ("submit", req.verb);
  EXPECT_EQ(2, req.getInt("case", 0));
  EXPECT_EQ(5, req.getInt("absent", 5));
  EXPECT_THROW(req.getInt("priority", 0), Error);  // string, not number
  EXPECT_THROW(svc::parseRequest(R"({"verb":"submit"})"), Error);  // no schema
  EXPECT_THROW(svc::parseRequest(R"({"schema":"gpumbir.svc/2","verb":"x"})"),
               Error);
  EXPECT_THROW(svc::parseRequest("[1,2]"), Error);
  EXPECT_THROW(
      svc::parseRequest(
          R"({"schema":"gpumbir.svc/1","verb":"submit","case":2.5})")
          .getInt("case", 0),
      Error);  // non-integral int field
}

// ---------------------------------------------------------------------------
// Round trip / status / result
// ---------------------------------------------------------------------------

TEST(SvcServer, SubmitStatusResultRoundTrip) {
  TestService service(/*devices=*/1, /*queue_cap=*/4);
  Client client = service.connect();
  ASSERT_TRUE(client.ping());

  SubmitParams p;
  p.name = "hello";
  const Client::SubmitResult out = client.submit(p);
  ASSERT_TRUE(out.accepted);
  EXPECT_GE(out.job_id, 0);

  const Client::JobInfo info = client.result(out.job_id);
  EXPECT_EQ("done", info.state);
  EXPECT_EQ("hello", info.name);
  EXPECT_EQ(0, info.device);
  EXPECT_NEAR(3.0, info.equits, 1.0);
  EXPECT_GT(info.modeled_seconds, 0.0);
  EXPECT_EQ(16u, info.image_hash.size());

  // status for an unknown job is an error, not a crash.
  EXPECT_THROW(client.jobStatus(12345), Error);
  // and the reported hash matches a local reconstruction bit for bit.
  const RunResult local =
      reconstruct(tinyProblem(), tinyGolden(), tinyBaseConfig());
  EXPECT_EQ(hashToHex(fnv1a64(local.image.flat())), info.image_hash);

  const Client::ServerStatus st = client.serverStatus();
  EXPECT_EQ(1, st.num_devices);
  EXPECT_EQ(1, st.submitted);
  EXPECT_EQ(1, st.finished);
}

TEST(SvcServer, ResultCanCarryTheImageExactly) {
  TestService service(1, 4);
  Client client = service.connect();
  const int id = client.submit(SubmitParams{}).job_id;
  const Client::JobInfo info = client.result(id, /*include_image=*/true);
  ASSERT_TRUE(info.image.has_value());
  // float -> JSON double -> float must be bit-exact.
  EXPECT_EQ(info.image_hash, hashToHex(fnv1a64(info.image->flat())));
}

TEST(SvcServer, BadCaseIndexAndUnknownVerbSurfaceAsErrors) {
  TestService service(1, 4);
  Client client = service.connect();
  SubmitParams p;
  p.case_index = 100;  // TinySource throws for this
  const Client::SubmitResult out = client.submit(p);
  EXPECT_FALSE(out.accepted);
  EXPECT_FALSE(out.rejected);  // an error, not admission backpressure
  EXPECT_NE(std::string::npos, out.error.find("out of range"));

  const obs::JsonValue resp =
      client.call(R"({"schema":"gpumbir.svc/1","verb":"transmogrify"})");
  EXPECT_FALSE(resp.find("ok")->bool_v);
  ASSERT_TRUE(client.ping());  // connection survives protocol errors
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(SvcServer, AdmissionQueueOverflowRejectsExplicitly) {
  const int kQueueCap = 2;
  TestService service(/*devices=*/1, kQueueCap);
  Client client = service.connect();

  // Park the device, then fill the queue exactly to the bound.
  const int blocker = client.submit(blockerParams("blocker")).job_id;
  awaitState(client, blocker, "running");
  std::vector<int> queued;
  for (int i = 0; i < kQueueCap; ++i) {
    const auto out = client.submit(SubmitParams{});
    ASSERT_TRUE(out.accepted) << out.error;
    queued.push_back(out.job_id);
  }

  // The next submit must bounce, flagged as backpressure.
  const auto overflow = client.submit(SubmitParams{});
  EXPECT_FALSE(overflow.accepted);
  EXPECT_TRUE(overflow.rejected);
  EXPECT_NE(std::string::npos, overflow.error.find("queue full"));

  // Cancelling a queued job frees its slot immediately.
  EXPECT_TRUE(client.cancel(queued.back()));
  EXPECT_TRUE(client.submit(SubmitParams{}).accepted);

  EXPECT_TRUE(client.cancel(blocker));
  const obs::JsonValue report = client.drain();
  EXPECT_EQ(1.0, report.find("admission_rejected")->num_v);
  EXPECT_EQ(double(kQueueCap), report.find("queue_depth_max")->num_v);
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST(SvcServer, ExpiredDeadlineFailsFastWithoutRunning) {
  TestService service(/*devices=*/1, /*queue_cap=*/4);
  Client client = service.connect();
  const int blocker = client.submit(blockerParams("blocker")).job_id;
  awaitState(client, blocker, "running");

  SubmitParams late;
  late.deadline_ms = 0.0;  // already expired when the device frees up
  late.name = "late";
  const int late_id = client.submit(late).job_id;

  SubmitParams fine;
  fine.deadline_ms = 60000.0;  // comfortably alive
  fine.name = "fine";
  const int fine_id = client.submit(fine).job_id;

  EXPECT_TRUE(client.cancel(blocker));
  const Client::JobInfo late_info = client.result(late_id);
  EXPECT_EQ("deadline_missed", late_info.state);
  EXPECT_EQ(-1, late_info.device);          // never dispatched
  EXPECT_EQ(0.0, late_info.service_host_s); // never ran
  EXPECT_TRUE(late_info.image_hash.empty());

  const Client::JobInfo fine_info = client.result(fine_id);
  EXPECT_EQ("done", fine_info.state);

  const obs::JsonValue report = client.drain();
  EXPECT_EQ(1.0, report.find("jobs_deadline_missed")->num_v);
}

// ---------------------------------------------------------------------------
// Priority ordering
// ---------------------------------------------------------------------------

TEST(SvcServer, PriorityLaneDispatchesHighestFirstTiesInSubmitOrder) {
  TestService service(/*devices=*/1, /*queue_cap=*/8);
  Client client = service.connect();
  const int blocker = client.submit(blockerParams("blocker")).job_id;
  awaitState(client, blocker, "running");

  auto prio = [&](int priority, const std::string& name) {
    SubmitParams p;
    p.priority = priority;
    p.name = name;
    return client.submit(p).job_id;
  };
  const int low = prio(1, "low");
  const int high = prio(5, "high");
  const int mid = prio(3, "mid");
  const int high2 = prio(5, "high2");  // same priority, later submit

  EXPECT_TRUE(client.cancel(blocker));
  const int s_low = client.result(low).dispatch_seq;
  const int s_high = client.result(high).dispatch_seq;
  const int s_mid = client.result(mid).dispatch_seq;
  const int s_high2 = client.result(high2).dispatch_seq;
  EXPECT_LT(s_high, s_high2);  // tie broken by submission order
  EXPECT_LT(s_high2, s_mid);
  EXPECT_LT(s_mid, s_low);
  client.drain();
}

// ---------------------------------------------------------------------------
// Deterministic lane
// ---------------------------------------------------------------------------

TEST(SvcServer, DeterministicLaneIsBitIdenticalToBatchSchedulerRunAll) {
  const int kDevices = 2;
  const int kJobs = 4;
  TestService service(kDevices, /*queue_cap=*/8);
  Client client = service.connect();

  // Heterogeneous deterministic jobs: budgets and engines vary per job.
  std::vector<SubmitParams> specs;
  for (int i = 0; i < kJobs; ++i) {
    SubmitParams p;
    p.deterministic = true;
    p.algorithm = (i % 2 == 0) ? "gpu" : "seq";
    p.max_equits = 2.0 + i;
    p.name = "det" + std::to_string(i);
    specs.push_back(p);
  }
  std::vector<int> ids;
  for (const SubmitParams& p : specs) {
    const auto out = client.submit(p);
    ASSERT_TRUE(out.accepted) << out.error;
    ids.push_back(out.job_id);
  }
  std::vector<Client::JobInfo> online;
  for (int id : ids) online.push_back(client.result(id));

  // The same jobs through the offline scheduler at the same device count.
  sched::SchedulerOptions opt;
  opt.num_devices = kDevices;
  sched::BatchScheduler offline(opt);
  for (const SubmitParams& p : specs)
    offline.submit(tinyProblem(), tinyGolden(),
                   svc::makeRunConfig(tinyBaseConfig(), p), p.name);
  offline.runAll();

  for (int i = 0; i < kJobs; ++i) {
    const sched::JobResult& off = offline.result(i);
    SCOPED_TRACE("job " + std::to_string(i));
    // det job s runs on device s % D — the batch scheduler's assignment.
    EXPECT_EQ(off.device, online[std::size_t(i)].device);
    // Images are bit-identical (hash of float bits)...
    EXPECT_EQ(hashToHex(fnv1a64(off.run.image.flat())),
              online[std::size_t(i)].image_hash);
    // ...and so are the modeled clocks: same per-device schedule.
    EXPECT_EQ(off.run.modeled_seconds,
              online[std::size_t(i)].modeled_seconds);
    EXPECT_EQ(off.queue_wait_modeled_s,
              online[std::size_t(i)].queue_wait_modeled_s);
  }
  client.drain();
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(SvcServer, CancelMidQueueNeverRunsAndCancelRunningStopsCooperatively) {
  TestService service(/*devices=*/1, /*queue_cap=*/4);
  Client client = service.connect();
  const int blocker = client.submit(blockerParams("blocker")).job_id;
  awaitState(client, blocker, "running");

  const int queued = client.submit(SubmitParams{}).job_id;
  EXPECT_TRUE(client.cancel(queued));
  const Client::JobInfo q = client.result(queued);
  EXPECT_EQ("cancelled", q.state);
  EXPECT_EQ(-1, q.dispatch_seq);  // finalized in the queue, never dispatched

  EXPECT_TRUE(client.cancel(blocker));
  const Client::JobInfo b = client.result(blocker);
  EXPECT_EQ("cancelled", b.state);
  EXPECT_GE(b.dispatch_seq, 0);       // it ran, then stopped cooperatively
  EXPECT_FALSE(b.image_hash.empty()); // partial image still published
  EXPECT_FALSE(client.cancel(blocker));  // already terminal

  const obs::JsonValue report = client.drain();
  EXPECT_EQ(2.0, report.find("jobs_cancelled")->num_v);
  EXPECT_EQ(0.0, report.find("jobs_failed")->num_v);
}

// ---------------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------------

TEST(SvcServer, DrainIsGracefulValidatedAndTerminal) {
  const int kDevices = 2;
  TestService service(kDevices, /*queue_cap=*/8);
  Client client = service.connect();
  std::vector<int> ids;
  for (int i = 0; i < 3; ++i)
    ids.push_back(client.submit(SubmitParams{}).job_id);

  const obs::JsonValue report = client.drain();  // waits out the backlog
  EXPECT_EQ("gpumbir.svc_report/1", report.find("schema")->str_v);
  EXPECT_EQ(3.0, report.find("jobs_submitted")->num_v);
  EXPECT_EQ(3.0, report.find("jobs_done")->num_v);
  ASSERT_TRUE(report.find("jobs")->isArray());
  EXPECT_EQ(3u, report.find("jobs")->array_v.size());
  ASSERT_TRUE(report.find("device_modeled_s")->isArray());
  EXPECT_EQ(std::size_t(kDevices),
            report.find("device_modeled_s")->array_v.size());
  // Histogrammed distributions come with exact order statistics.
  const obs::JsonValue* e2e = report.find("e2e_host_s");
  ASSERT_NE(nullptr, e2e);
  EXPECT_EQ(3.0, e2e->find("count")->num_v);
  EXPECT_GE(e2e->find("p99")->num_v, e2e->find("p50")->num_v);
  // svc.* metrics ride along when a recorder is attached — here there is
  // none, so the report omits them rather than fabricating zeros.
  EXPECT_EQ(nullptr, report.find("metrics"));

  // Post-drain the service refuses work but still answers.
  const auto out = client.submit(SubmitParams{});
  EXPECT_FALSE(out.accepted);
  EXPECT_TRUE(out.rejected);
  EXPECT_TRUE(service.server->drainRequested());
  // Results of drained jobs remain queryable.
  EXPECT_EQ("done", client.result(ids.front()).state);
  // Draining again returns the same (cached) report.
  EXPECT_EQ(3.0, client.drain().find("jobs_done")->num_v);
}

// ---------------------------------------------------------------------------
// Observability: stats verb, flight recorder, span tracing
// ---------------------------------------------------------------------------

TEST(SvcServer, StatsAnswersLiveWhileEveryDeviceIsBusy) {
  obs::ObsConfig obs_cfg;
  obs_cfg.metrics = true;
  obs::Recorder recorder(obs_cfg);
  TestService service(/*devices=*/2, /*queue_cap=*/8, &recorder);
  Client client = service.connect();

  // Park both devices, then queue a tenant-tagged job behind them. The
  // scrape below must answer while the blockers are mid-run — stats takes
  // the dispatcher lock only for a snapshot, never waiting on a device.
  const int b0 = client.submit(blockerParams("block0")).job_id;
  const int b1 = client.submit(blockerParams("block1")).job_id;
  awaitState(client, b0, "running");
  awaitState(client, b1, "running");
  SubmitParams waiting;
  waiting.priority = 3;
  waiting.tenant = "acme";
  waiting.name = "waiting";
  const int q0 = client.submit(waiting).job_id;

  // client.stats() round-trips the document through the strict parser.
  const obs::JsonValue stats = client.stats();
  EXPECT_EQ("gpumbir.svc_stats/1", stats.find("schema")->str_v);
  EXPECT_TRUE(stats.find("accepting")->bool_v);
  EXPECT_FALSE(stats.find("draining")->bool_v);
  EXPECT_GT(stats.find("uptime_host_s")->num_v, 0.0);
  EXPECT_EQ(2.0, stats.find("running")->num_v);
  EXPECT_EQ(1.0, stats.find("queued")->num_v);
  EXPECT_EQ(3.0, stats.find("submitted")->num_v);
  const obs::JsonValue* by_prio = stats.find("queue_depth_by_priority");
  ASSERT_NE(nullptr, by_prio);
  EXPECT_EQ(1.0, by_prio->find("3")->num_v);

  const obs::JsonValue* devices = stats.find("devices");
  ASSERT_TRUE(devices->isArray());
  ASSERT_EQ(2u, devices->array_v.size());
  for (const obs::JsonValue& d : devices->array_v) {
    EXPECT_TRUE(d.find("busy")->bool_v);
    EXPECT_GE(d.find("running_job")->num_v, 0.0);
    EXPECT_GE(d.find("modeled_s")->num_v, 0.0);
  }

  const obs::JsonValue* in_flight = stats.find("in_flight");
  ASSERT_TRUE(in_flight->isArray());
  ASSERT_EQ(3u, in_flight->array_v.size());
  int running_seen = 0;
  const obs::JsonValue* queued_entry = nullptr;
  for (const obs::JsonValue& j : in_flight->array_v) {
    if (j.find("state")->str_v == "running") ++running_seen;
    if (int(j.find("job_id")->num_v) == q0) queued_entry = &j;
  }
  EXPECT_EQ(2, running_seen);
  ASSERT_NE(nullptr, queued_entry);
  EXPECT_EQ("queued", queued_entry->find("state")->str_v);
  EXPECT_EQ("acme", queued_entry->find("tenant")->str_v);
  EXPECT_EQ(-1.0, queued_entry->find("device")->num_v);
  EXPECT_GE(queued_entry->find("age_host_s")->num_v, 0.0);

  // Flight counters and the metrics registry ride along in the same doc.
  const obs::JsonValue* flight = stats.find("flight");
  ASSERT_NE(nullptr, flight);
  EXPECT_GT(flight->find("events_recorded")->num_v, 0.0);
  ASSERT_NE(nullptr, stats.find("metrics"));
  EXPECT_GE(stats.find("metrics")
                ->find("counters")
                ->find("svc.jobs.submitted")
                ->num_v,
            3.0);

  // The scrape paused nothing: the service still dispatches and drains.
  EXPECT_TRUE(client.cancel(q0));
  EXPECT_TRUE(client.cancel(b0));
  EXPECT_TRUE(client.cancel(b1));
  client.drain();
}

TEST(SvcServer, FlightDumpsFireExactlyOncePerBadlyEndingJob) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "gpumbir_flight_dumps";
  fs::remove_all(dir);
  fs::create_directories(dir);

  TestService service(/*devices=*/1, /*queue_cap=*/8, /*recorder=*/nullptr,
                      dir.string());
  Client client = service.connect();
  const int blocker = client.submit(blockerParams("blocker")).job_id;
  awaitState(client, blocker, "running");

  SubmitParams late;
  late.deadline_ms = 0.0;
  late.name = "late";
  const int late_id = client.submit(late).job_id;      // -> deadline_missed
  const int queued = client.submit(SubmitParams{}).job_id;
  const int good = client.submit(SubmitParams{}).job_id;
  EXPECT_TRUE(client.cancel(queued));                  // -> cancelled (queued)
  EXPECT_TRUE(client.cancel(blocker));                 // -> cancelled (ran)

  EXPECT_EQ("deadline_missed", client.result(late_id).state);
  EXPECT_EQ("cancelled", client.result(queued).state);
  EXPECT_EQ("cancelled", client.result(blocker).state);
  EXPECT_EQ("done", client.result(good).state);  // a good ending: no dump

  // The wire `flight` verb serves the same ring on demand (no file).
  const obs::JsonValue flight = client.flight("probe");
  EXPECT_EQ("gpumbir.flight/1", flight.find("schema")->str_v);
  EXPECT_EQ("probe", flight.find("reason")->str_v);
  ASSERT_TRUE(flight.find("lanes")->isArray());
  EXPECT_EQ(2u, flight.find("lanes")->array_v.size());  // control + device 0

  client.drain();  // flushes any dump the device thread did not get to

  // Exactly one automatic dump per badly-ending job, named after it.
  EXPECT_EQ(3u, service.server->dispatcher().flightDumpCount());
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir)) ++files;
  EXPECT_EQ(3u, files);
  const std::vector<std::pair<int, std::string>> expected = {
      {late_id, "deadline_missed"},
      {queued, "cancelled"},
      {blocker, "cancelled"},
  };
  for (const auto& [id, reason] : expected) {
    const fs::path p = dir / ("flight_" + std::string(reason) + "_job" +
                              std::to_string(id) + ".json");
    ASSERT_TRUE(fs::exists(p)) << p;
    std::ifstream in(p);
    std::stringstream buf;
    buf << in.rdbuf();
    const obs::JsonValue dump = obs::parseJson(buf.str());
    EXPECT_EQ("gpumbir.flight/1", dump.find("schema")->str_v);
    EXPECT_NE(std::string::npos,
              dump.find("reason")->str_v.find(std::to_string(id)));
  }
  fs::remove_all(dir);
}

TEST(SvcServer, TracingDoesNotPerturbDeterministicLaneResults) {
  // The same deterministic job stream with full tracing on and with no
  // recorder at all must produce bit-identical images: spans and flight
  // events are observational only.
  const auto run_once = [](obs::Recorder* rec) {
    TestService service(/*devices=*/2, /*queue_cap=*/8, rec);
    Client client = service.connect();
    std::vector<int> ids;
    for (int i = 0; i < 4; ++i) {
      SubmitParams p;
      p.deterministic = true;
      p.algorithm = (i % 2 == 0) ? "gpu" : "seq";
      p.max_equits = 2.0 + i;
      p.name = "det" + std::to_string(i);
      ids.push_back(client.submit(p).job_id);
    }
    std::vector<std::string> hashes;
    for (int id : ids) hashes.push_back(client.result(id).image_hash);
    client.drain();
    return hashes;
  };

  obs::ObsConfig obs_cfg;
  obs_cfg.trace = true;
  obs_cfg.metrics = true;
  obs::Recorder recorder(obs_cfg);
  const std::vector<std::string> traced = run_once(&recorder);
  const std::vector<std::string> plain = run_once(nullptr);
  ASSERT_EQ(4u, traced.size());
  EXPECT_EQ(plain, traced);

  // And the traced run really did record the service span hierarchy:
  // submit on the control lane, queue waits on the device host lanes, the
  // job/iteration spans below them, with named host threads.
  const std::string trace = recorder.trace().toJson();
  EXPECT_NE(std::string::npos, trace.find("\"svc.submit\""));
  EXPECT_NE(std::string::npos, trace.find("\"svc.queue\""));
  EXPECT_NE(std::string::npos, trace.find("\"svc.job\""));
  EXPECT_NE(std::string::npos, trace.find("\"recon.iteration\""));
  EXPECT_NE(std::string::npos, trace.find("\"thread_name\""));
  EXPECT_NE(std::string::npos, trace.find("\"job_id\""));
}

TEST(SvcServer, TenantsFlowThroughReportAndLabeledMetrics) {
  obs::ObsConfig obs_cfg;
  obs_cfg.metrics = true;
  obs::Recorder recorder(obs_cfg);
  TestService service(/*devices=*/1, /*queue_cap=*/4, &recorder);
  Client client = service.connect();

  SubmitParams acme;
  acme.tenant = "acme";
  acme.name = "acme-job";
  const int acme_id = client.submit(acme).job_id;
  const int anon_id = client.submit(SubmitParams{}).job_id;
  EXPECT_EQ("done", client.result(acme_id).state);
  EXPECT_EQ("done", client.result(anon_id).state);

  // The drain report carries the tenant per job (omitted when default).
  const obs::JsonValue report = client.drain();
  const obs::JsonValue* jobs = report.find("jobs");
  ASSERT_TRUE(jobs->isArray());
  for (const obs::JsonValue& j : jobs->array_v) {
    const int id = int(j.find("job_id")->num_v);
    if (id == acme_id) {
      ASSERT_NE(nullptr, j.find("tenant"));
      EXPECT_EQ("acme", j.find("tenant")->str_v);
    } else {
      EXPECT_EQ(nullptr, j.find("tenant"));
    }
  }

  // Terminal accounting is labeled per tenant ("" -> "default").
  obs::MetricsRegistry& m = recorder.metrics();
  EXPECT_EQ(1u, m.counterValue("svc.jobs.done{tenant=acme}"));
  EXPECT_EQ(1u, m.counterValue("svc.jobs.done{tenant=default}"));
  EXPECT_EQ(1u, m.histogramSnapshot("svc.job.e2e_host_s{tenant=acme}").count);
  EXPECT_EQ(1u,
            m.histogramSnapshot("svc.job.e2e_host_s{tenant=default}").count);
  // The unlabeled aggregate still sees every job.
  EXPECT_EQ(2u, m.histogramSnapshot("svc.job.e2e_host_s").count);
}

// ---------------------------------------------------------------------------
// Malformed-frame fuzz
// ---------------------------------------------------------------------------

TEST(SvcServer, MalformedPayloadCorpusNeverKillsTheServer) {
  TestService service(1, 4);
  // Every payload is framed correctly but garbage inside; the server must
  // answer ok:false (or close the connection) and keep serving.
  const std::vector<std::string> corpus = {
      "",
      "not json",
      "{",
      "[1,2,3]",
      R"("just a string")",
      R"({"schema":"gpumbir.svc/1"})",                    // no verb
      R"({"schema":"nope","verb":"ping"})",               // wrong schema
      R"({"schema":"gpumbir.svc/1","verb":""})",          // empty verb
      R"({"schema":"gpumbir.svc/1","verb":"submit","case":-3})",
      R"({"schema":"gpumbir.svc/1","verb":"submit","case":1e999})",
      R"({"schema":"gpumbir.svc/1","verb":"submit","priority":1.5})",
      R"({"schema":"gpumbir.svc/1","verb":"status","job":true})",
      R"({"schema":"gpumbir.svc/1","verb":"cancel"})",
      R"({"schema":"gpumbir.svc/1","verb":"result","job":99})",
      R"({"a":1,"a":2,"schema":"gpumbir.svc/1","verb":"ping"})",  // dup key
      std::string("\x00\xff\xfe garbage \x01", 12),
  };
  for (const std::string& payload : corpus) {
    SCOPED_TRACE(payload);
    Client client = service.connect();
    try {
      const obs::JsonValue resp = client.call(payload);
      EXPECT_FALSE(resp.find("ok")->bool_v);
      EXPECT_NE(nullptr, resp.find("error"));
    } catch (const Error&) {
      // Connection-level rejection is acceptable; server survival is what
      // the post-iteration ping asserts.
    }
    Client probe = service.connect();
    EXPECT_TRUE(probe.ping());
  }
}

/// Count entries under a /proc/self/* directory (open fds, live threads).
std::size_t procCount(const char* dir) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(dir))
    ++n;
  return n;
}

TEST(SvcServer, MalformedFrameFloodDoesNotLeakFdsOrThreads) {
  // A client flooding the server with garbage frames at a steady rate must
  // not leak connection fds or handler threads on the server side, and
  // well-formed submissions must keep being admitted throughout. The
  // server lives in this process, so /proc/self counts cover it.
  ::signal(SIGPIPE, SIG_IGN);  // flood writes race server-side closes
  TestService service(1, 8);
  Client good = service.connect();
  ASSERT_TRUE(good.ping());

  // The process-wide host pool starts lazily on the first job and its
  // hardware_concurrency() workers live for the whole process; they are
  // not connection handlers, so they belong in the baseline.
  globalThreadPool();
  const std::size_t fd_baseline = procCount("/proc/self/fd");
  const std::size_t thread_baseline = procCount("/proc/self/task");

  Rng rng = Rng::forStream(0xF100D, 0);
  int admitted = 0;
  for (int round = 0; round < 6; ++round) {
    {
      // A wave of concurrently open flooders, each sending garbage.
      std::vector<Client> flood;
      for (int i = 0; i < 8; ++i) flood.push_back(service.connect());
      for (Client& c : flood) {
        std::string junk;
        switch (rng.below(3)) {
          case 0:  // random bytes, framing and all
            for (int b = 0; b < 32; ++b) junk.push_back(char(rng.below(256)));
            break;
          case 1:  // oversized declared length
            junk = std::string("\xff\xff\xff\xff", 4);
            break;
          default:  // well-framed garbage payload
            junk = svc::encodeFrame("{\"schema\":\"gpumbir.svc/1\"");
            break;
        }
        (void)!::write(c.fd(), junk.data(), junk.size());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Admission keeps working mid-flood.
      const Client::SubmitResult out = good.submit(SubmitParams{});
      ASSERT_TRUE(out.accepted) << out.error;
      EXPECT_EQ("done", good.result(out.job_id).state);
      ++admitted;
    }  // wave closed: the server should reap each connection handler
  }
  EXPECT_EQ(6, admitted);

  // Fd and thread counts return to ~baseline once the flood stops. Dead
  // connections are reaped lazily at the next accept, so each poll round
  // opens (and closes) a probe connection to drive the reaper; the probe
  // itself accounts for the small slack in the bound.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::size_t fds = 0, threads = 0;
  for (;;) {
    {
      Client reaper = service.connect();
      ASSERT_TRUE(reaper.ping());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fds = procCount("/proc/self/fd");
    threads = procCount("/proc/self/task");
    if ((fds <= fd_baseline + 2 && threads <= thread_baseline + 2) ||
        std::chrono::steady_clock::now() > deadline)
      break;
  }
  EXPECT_LE(fds, fd_baseline + 2);
  EXPECT_LE(threads, thread_baseline + 2);

  // And the service is still fully operational.
  Client probe = service.connect();
  ASSERT_TRUE(probe.ping());
  EXPECT_EQ("done", probe.result(probe.submit(SubmitParams{}).job_id).state);
  probe.drain();
}

TEST(SvcServer, BrokenFramesAreSurvivable) {
  TestService service(1, 4);
  {  // Truncated header: 2 bytes then close.
    Client client = service.connect();
    ASSERT_EQ(2, ::write(client.fd(), "\x00\x01", 2));
  }
  {  // Truncated payload: header says 100 bytes, send 5, close.
    Client client = service.connect();
    ASSERT_EQ(4, ::write(client.fd(), "\x00\x00\x00\x64", 4));
    ASSERT_EQ(5, ::write(client.fd(), "hello", 5));
  }
  {  // Oversized declared length: the server answers and closes.
    Client client = service.connect();
    ASSERT_EQ(4, ::write(client.fd(), "\xff\xff\xff\xff", 4));
    std::string payload;
    EXPECT_EQ(svc::FrameStatus::kOk, svc::readFrame(client.fd(), payload));
    const obs::JsonValue resp = obs::parseJson(payload);
    EXPECT_FALSE(resp.find("ok")->bool_v);
    EXPECT_NE(std::string::npos,
              resp.find("error")->str_v.find("byte limit"));
  }
  // After all of that, the service still works end to end.
  Client client = service.connect();
  ASSERT_TRUE(client.ping());
  EXPECT_EQ("done", client.result(client.submit(SubmitParams{}).job_id).state);
  client.drain();
}

}  // namespace
}  // namespace mbir::test
