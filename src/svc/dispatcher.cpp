#include "svc/dispatcher.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "core/error.h"
#include "core/hash.h"
#include "obs/json.h"
#include "sched/sharded.h"

namespace mbir::svc {

namespace {

double secondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

DistSummary summarize(std::vector<double> v) {
  DistSummary s;
  s.count = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  double sum = 0.0;
  for (double x : v) sum += x;
  s.mean = sum / double(v.size());
  s.max = v.back();
  // Nearest-rank percentiles (exact order statistics, no interpolation).
  auto rank = [&](double p) {
    const std::size_t r = std::size_t(std::ceil(p * double(v.size())));
    return v[std::min(v.size() - 1, r == 0 ? 0 : r - 1)];
  };
  s.p50 = rank(0.50);
  s.p95 = rank(0.95);
  s.p99 = rank(0.99);
  return s;
}

void writeDistSummary(obs::JsonWriter& w, const DistSummary& s) {
  w.beginObject();
  w.kv("count", std::int64_t(s.count));
  w.kv("mean", s.mean);
  w.kv("max", s.max);
  w.kv("p50", s.p50);
  w.kv("p95", s.p95);
  w.kv("p99", s.p99);
  w.endObject();
}

/// Tenant label value ("" submits land under the default tenant).
std::string tenantLabel(const std::string& tenant) {
  return tenant.empty() ? "default" : tenant;
}

}  // namespace

const char* jobStateName(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed: return "failed";
    case JobState::kDeadlineMissed: return "deadline_missed";
  }
  return "?";
}

bool isTerminal(JobState s) {
  return s != JobState::kQueued && s != JobState::kRunning;
}

Dispatcher::Dispatcher(DispatcherOptions options)
    : opt_(std::move(options)),
      flight_(opt_.num_devices, opt_.flight_capacity) {
  MBIR_CHECK_MSG(opt_.num_devices >= 1, "dispatcher needs at least one device");
  MBIR_CHECK_MSG(opt_.queue_capacity >= 1, "queue capacity must be >= 1");
  opt_.fault_plan.validate();
  {
    // FairQueue keys are the normalized labels pickAndCharge sees, so a
    // weight configured for "" (the default tenant) must land on "default".
    std::map<std::string, double> weights;
    for (const auto& [tenant, w] : opt_.tenant_weights)
      weights[tenantLabel(tenant)] = w;
    fq_.configure(weights, opt_.default_tenant_weight);
  }
  det_lane_.resize(std::size_t(opt_.num_devices));
  device_clock_.assign(std::size_t(opt_.num_devices), 0.0);
  device_running_.assign(std::size_t(opt_.num_devices), -1);
  device_failed_.assign(std::size_t(opt_.num_devices), 0);
  chaos_dev_.resize(std::size_t(opt_.num_devices));
  plan_ = opt_.fault_plan;
  watchdog_ms_ = opt_.watchdog_ms;
  if (plan_.enabled())
    injector_ = std::make_shared<const chaos::FaultInjector>(plan_);

  obs::Recorder* rec = opt_.recorder;
  if (rec && rec->metricsOn()) {
    obs::MetricsRegistry& m = rec->metrics();
    inst_.submitted = &m.counter("svc.jobs.submitted");
    inst_.rejected = &m.counter("svc.admission.rejected");
    inst_.done = &m.counter("svc.jobs.done");
    inst_.cancelled = &m.counter("svc.jobs.cancelled");
    inst_.failed = &m.counter("svc.jobs.failed");
    inst_.deadline_missed = &m.counter("svc.jobs.deadline_missed");
    inst_.queue_depth = &m.gauge("svc.queue.depth");
    inst_.queue_wait = &m.histogram("svc.queue_wait_host_s");
    inst_.service_time = &m.histogram("svc.job.service_host_s");
    inst_.e2e = &m.histogram("svc.job.e2e_host_s");
    inst_.flight_dumps = &m.counter("svc.flight.dumps");
    inst_.device_failed = &m.counter("sched.device.failed");
    inst_.migrated = &m.counter("svc.jobs.migrated");
    m.gauge("svc.devices").set(double(opt_.num_devices));
    m.gauge("svc.queue.capacity").set(double(opt_.queue_capacity));
  }
  if (rec && rec->traceOn()) {
    // Host-clock lanes: tid 0 is the control plane (submits), tid d+1 one
    // lane per device so each device's queue/job/iteration/launch spans
    // nest in their own row next to the modeled per-device processes.
    rec->trace().nameThread(int(obs::Clock::kHost), 0, "svc control", 0);
    for (int d = 0; d < opt_.num_devices; ++d) {
      rec->trace().nameProcess(tracePid(d),
                               "svc device " + std::to_string(d) + " (modeled)",
                               /*sort_index=*/tracePid(d));
      rec->trace().nameThread(int(obs::Clock::kHost), d + 1,
                              "svc device " + std::to_string(d) + " (host)",
                              /*sort_index=*/d + 1);
    }
  }

  devices_.reserve(std::size_t(opt_.num_devices));
  for (int d = 0; d < opt_.num_devices; ++d)
    devices_.emplace_back([this, d] { deviceLoop(d); });
  watchdog_ = std::thread([this] { watchdogLoop(); });
}

Dispatcher::~Dispatcher() {
  std::lock_guard drain_lock(drain_mu_);
  if (!joined_) {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
      // Hard stop: running jobs get the cooperative flag so the device
      // threads return at the next iteration boundary; queued jobs never run.
      for (Job& job : jobs_)
        if (!isTerminal(job.state)) job.cancel.store(true, std::memory_order_release);
      cv_work_.notify_all();
    }
    // Wake any run parked on a chaos channel (stalled or dead device) so
    // its device thread can unwind and exit; nothing dispatches again.
    for (chaos::DeviceChaos& ch : chaos_dev_) ch.abandon();
    for (std::thread& t : devices_) t.join();
    joined_ = true;
  }
  stopWatchdog();
}

void Dispatcher::stopWatchdog() {
  if (!watchdog_.joinable()) return;
  {
    std::lock_guard lock(mu_);
    watchdog_exit_ = true;
  }
  cv_watchdog_.notify_all();
  watchdog_.join();
}

void Dispatcher::setFaultPlan(const chaos::FaultPlan& plan, double watchdog_ms) {
  plan.validate();
  std::lock_guard lock(mu_);
  plan_ = plan;
  watchdog_ms_ = watchdog_ms;
  injector_ = plan_.enabled()
                  ? std::make_shared<const chaos::FaultInjector>(plan_)
                  : nullptr;
  cv_watchdog_.notify_all();
}

chaos::FaultPlan Dispatcher::faultPlan() const {
  std::lock_guard lock(mu_);
  return plan_;
}

double Dispatcher::watchdogMs() const {
  std::lock_guard lock(mu_);
  return watchdog_ms_;
}

SubmitOutcome Dispatcher::submit(const JobSpec& spec) {
  MBIR_CHECK_MSG(spec.problem && spec.golden, "job needs a problem and golden");
  if (spec.shards < 1) {
    SubmitOutcome out;
    out.reason = "shards must be >= 1";
    std::lock_guard lock(mu_);
    ++rejected_;
    if (inst_.rejected) inst_.rejected->add();
    return out;
  }
  if (spec.shards > 1) {
    SubmitOutcome out;
    if (spec.deterministic) {
      out.reason = "sharded jobs cannot use the deterministic lane "
                   "(round-robin single-device by contract)";
    } else {
      // Build-or-reject the slab plan at the door so a bad geometry fails
      // the submit, never the job: makeShardPlan validates slab heights
      // and the halo fit.
      try {
        shard::makeShardPlan(spec.problem->geometry().image_size, spec.shards,
                             spec.shard_halo, spec.config.gpu.seed);
      } catch (const std::exception& e) {
        out.reason = e.what();
      }
    }
    if (!out.reason.empty()) {
      std::lock_guard lock(mu_);
      ++rejected_;
      if (inst_.rejected) inst_.rejected->add();
      return out;
    }
  }
  obs::Recorder* rec = opt_.recorder;
  const bool tracing = rec && rec->traceOn();
  const double submit_t0_us = tracing ? rec->trace().nowHostUs() : 0.0;
  SubmitOutcome out;
  std::lock_guard lock(mu_);
  if (!accepting_) {
    out.reason = "service is draining";
    ++rejected_;
    if (inst_.rejected) inst_.rejected->add();
    return out;
  }
  // A WAL-recovery resubmit (recoveries > 0) bypasses the capacity check:
  // the job was admitted and acknowledged durable by a previous server
  // incarnation, so rejecting it now would break exactly-once completion.
  if (spec.recoveries == 0 && queued_ >= opt_.queue_capacity) {
    out.reason = "admission queue full (" +
                 std::to_string(opt_.queue_capacity) + " queued)";
    ++rejected_;
    if (inst_.rejected) inst_.rejected->add();
    return out;
  }
  if (devices_failed_ >= std::uint64_t(opt_.num_devices)) {
    out.reason = "no surviving devices (all " +
                 std::to_string(opt_.num_devices) + " failed)";
    ++rejected_;
    if (inst_.rejected) inst_.rejected->add();
    return out;
  }

  const int id = int(jobs_.size());
  Job& job = jobs_.emplace_back();
  job.id = id;
  job.spec = spec;
  job.admit_tp = std::chrono::steady_clock::now();
  if (spec.deadline_ms >= 0.0) {
    job.has_deadline = true;
    job.deadline_tp =
        job.admit_tp + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                           std::chrono::duration<double, std::milli>(spec.deadline_ms));
  }
  job.result.job_id = id;
  job.result.name =
      spec.name.empty() ? "job" + std::to_string(id) : spec.name;
  // The job's span context: identity now, device/lane at dispatch. The
  // flight sink is unconditional (the ring is always on); trace fields
  // only matter when a trace recorder exists.
  job.span.job_id = id;
  job.span.tenant = spec.tenant;
  job.span.job_name = job.result.name;
  job.span.submit_host_us = submit_t0_us;
  job.span.flight = &flight_;
  if (spec.deterministic) {
    job.det_seq = det_count_++;
    int lane = job.det_seq % opt_.num_devices;
    if (device_failed_[std::size_t(lane)]) {
      // The natural lane is dead; re-key onto the survivors (non-empty:
      // all-failed submits were rejected above). Deterministic given the
      // same failure state — and results never depend on the device.
      const std::vector<int> survivors = survivorsLocked();
      lane = survivors[std::size_t(job.det_seq) % survivors.size()];
    }
    det_lane_[std::size_t(lane)].push_back(id);
  } else {
    prio_pending_.push_back(id);
  }
  ++queued_;
  ++accepted_;
  if (spec.recoveries > 0) {
    ++jobs_recovered_;
    if (rec && rec->metricsOn())
      rec->metrics().counter("svc.jobs.recovered").add();
  }
  queue_depth_max_ = std::max(queue_depth_max_, queued_);
  if (inst_.submitted) inst_.submitted->add();
  if (inst_.queue_depth) inst_.queue_depth->set(double(queued_));
  cv_work_.notify_all();

  {
    obs::FlightEvent fev;
    fev.job_id = id;
    fev.kind = "admit";
    fev.detail = tenantLabel(spec.tenant) + ":" + job.result.name;
    fev.value = double(spec.priority);
    flight_.record(obs::FlightRecorder::kControlLane, std::move(fev));
  }
  if (tracing) {
    obs::TraceEvent ev;
    ev.name = "svc.submit";
    ev.cat = "svc";
    ev.clock = obs::Clock::kHost;
    ev.ts_us = submit_t0_us;
    ev.dur_us = rec->trace().nowHostUs() - submit_t0_us;
    ev.tid = 0;  // control lane
    obs::tagSpan(ev, job.span);
    ev.num_args.emplace_back("priority", double(spec.priority));
    rec->trace().record(std::move(ev));
  }

  out.accepted = true;
  out.job_id = id;
  return out;
}

SubmitOutcome Dispatcher::submitCached(const JobSpec& spec,
                                       const Image2D& image,
                                       const CachedResult& cached) {
  obs::Recorder* rec = opt_.recorder;
  const bool tracing = rec && rec->traceOn();
  const double submit_t0_us = tracing ? rec->trace().nowHostUs() : 0.0;
  SubmitOutcome out;
  {
    std::lock_guard lock(mu_);
    if (!accepting_) {
      out.reason = "service is draining";
      ++rejected_;
      if (inst_.rejected) inst_.rejected->add();
      return out;
    }
    const int id = int(jobs_.size());
    Job& job = jobs_.emplace_back();
    job.id = id;
    job.spec = spec;
    job.admit_tp = std::chrono::steady_clock::now();
    job.result.job_id = id;
    job.result.name =
        spec.name.empty() ? "job" + std::to_string(id) : spec.name;
    job.span.job_id = id;
    job.span.tenant = spec.tenant;
    job.span.job_name = job.result.name;
    job.span.submit_host_us = submit_t0_us;
    job.span.flight = &flight_;
    // Born terminal: the cached image IS the result. No queue slot, no
    // dispatch (dispatch_seq stays -1), no device time — so a hit cannot
    // be rejected for capacity and never perturbs the WFQ shares.
    job.cache_hit = true;
    job.result.run.image = image;
    job.result.run.converged = cached.converged;
    job.result.run.equits = cached.equits;
    job.result.run.final_rmse_hu = cached.final_rmse_hu;
    job.result.run.modeled_seconds = cached.modeled_seconds;
    job.has_image = true;
    job.image_hash = cached.image_hash;
    job.e2e_host_s = 0.0;
    job.state = JobState::kDone;
    ++accepted_;
    ++cache_hits_;
    if (inst_.submitted) inst_.submitted->add();
    {
      obs::FlightEvent fev;
      fev.job_id = id;
      fev.kind = "cache_hit";
      fev.detail = tenantLabel(spec.tenant) + ":" + job.result.name;
      fev.value = cached.equits;  // the device work the hit saved
      flight_.record(obs::FlightRecorder::kControlLane, std::move(fev));
    }
    if (rec && rec->metricsOn())
      rec->metrics()
          .counter("svc.cache.hits", {{"tenant", tenantLabel(spec.tenant)}})
          .add();
    if (tracing) {
      obs::TraceEvent ev;
      ev.name = "svc.submit";
      ev.cat = "svc";
      ev.clock = obs::Clock::kHost;
      ev.ts_us = submit_t0_us;
      ev.dur_us = rec->trace().nowHostUs() - submit_t0_us;
      ev.tid = 0;  // control lane
      obs::tagSpan(ev, job.span);
      ev.num_args.emplace_back("cache_hit", 1.0);
      rec->trace().record(std::move(ev));
    }
    noteTerminalLocked(job);
    out.accepted = true;
    out.job_id = id;
    out.cache_hit = true;
  }
  // noteTerminalLocked may have queued an on_terminal notification.
  flushFlightDumps();
  return out;
}

bool Dispatcher::cancel(int job_id) {
  {
    std::lock_guard lock(mu_);
    if (job_id < 0 || job_id >= int(jobs_.size())) return false;
    Job& job = jobs_[std::size_t(job_id)];
    if (isTerminal(job.state)) return false;
    if (job.state == JobState::kQueued && !job.spec.deterministic) {
      // Drop it from the pending set right now, freeing its admission slot.
      prio_pending_.erase(
          std::find(prio_pending_.begin(), prio_pending_.end(), job_id));
      finalizeQueuedLocked(job, JobState::kCancelled);
    } else {
      // Running jobs stop cooperatively; queued deterministic-lane jobs
      // keep their schedule slot and run with the flag set
      // (BatchScheduler parity).
      job.cancel.store(true, std::memory_order_release);
    }
  }
  // A queued-cancel finalization may have requested a flight dump; write
  // it here, off the dispatcher lock.
  flushFlightDumps();
  return true;
}

bool Dispatcher::knownJob(int job_id) const {
  std::lock_guard lock(mu_);
  return job_id >= 0 && job_id < int(jobs_.size());
}

JobStatus Dispatcher::status(int job_id) const {
  std::lock_guard lock(mu_);
  MBIR_CHECK_MSG(job_id >= 0 && job_id < int(jobs_.size()),
                 "unknown job id " << job_id);
  return snapshotLocked(jobs_[std::size_t(job_id)]);
}

Dispatcher::Stats Dispatcher::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.accepting = accepting_;
  s.queued = queued_;
  s.running = running_;
  s.submitted = accepted_;
  s.rejected = rejected_;
  s.finished = finished_;
  return s;
}

JobStatus Dispatcher::waitTerminal(int job_id) const {
  std::unique_lock lock(mu_);
  MBIR_CHECK_MSG(job_id >= 0 && job_id < int(jobs_.size()),
                 "unknown job id " << job_id);
  const Job& job = jobs_[std::size_t(job_id)];
  cv_done_.wait(lock, [&] { return isTerminal(job.state); });
  return snapshotLocked(job);
}

std::optional<Image2D> Dispatcher::image(int job_id) const {
  std::lock_guard lock(mu_);
  MBIR_CHECK_MSG(job_id >= 0 && job_id < int(jobs_.size()),
                 "unknown job id " << job_id);
  const Job& job = jobs_[std::size_t(job_id)];
  // The run writes job.result without the lock; only a terminal state
  // (published under the lock) guarantees those writes are visible here.
  if (!isTerminal(job.state) || !job.has_image) return std::nullopt;
  return job.result.run.image;
}

Dispatcher::Job* Dispatcher::pickJobLocked(int device) {
  // A running gang owns every device: nothing else dispatches until its
  // leader clears the flag.
  if (gang_active_) return nullptr;
  const auto now = std::chrono::steady_clock::now();
  auto transition = [&](Job& job) {
    if (job.spec.shards > 1) gang_active_ = true;
    job.state = JobState::kRunning;
    job.dispatch_seq = dispatch_count_++;
    job.queue_wait_host_s = secondsBetween(job.admit_tp, now);
    job.device = device;
    // Complete the span context before the device thread (this thread)
    // reads it off-lock: which device, which trace lanes.
    job.span.device = device;
    job.span.trace_pid = tracePid(device);
    job.span.host_tid = device + 1;
    device_running_[std::size_t(device)] = job.id;
    --queued_;
    ++running_;
    if (inst_.queue_depth) inst_.queue_depth->set(double(queued_));
    {
      obs::FlightEvent fev;
      fev.job_id = job.id;
      fev.kind = "dispatch";
      fev.detail = tenantLabel(job.spec.tenant) + ":" + job.result.name;
      fev.value = job.queue_wait_host_s;
      flight_.record(obs::FlightRecorder::deviceLane(device), std::move(fev));
    }
    obs::Recorder* rec = opt_.recorder;
    if (rec && rec->traceOn()) {
      // The queue wait as an explicit span on the device's host lane,
      // recorded retroactively now that the device is known: it starts at
      // admission and ends here, so submit → queue → job read as one
      // nested chain per job in the trace.
      obs::TraceEvent ev;
      ev.name = "svc.queue";
      ev.cat = "svc";
      ev.clock = obs::Clock::kHost;
      ev.ts_us = job.span.submit_host_us;
      ev.dur_us = rec->trace().nowHostUs() - job.span.submit_host_us;
      ev.tid = job.span.host_tid;
      obs::tagSpan(ev, job.span);
      ev.num_args.emplace_back("queue_wait_host_s", job.queue_wait_host_s);
      ev.num_args.emplace_back("priority", double(job.spec.priority));
      rec->trace().record(std::move(ev));
    }
    // Peers idle in drain mode only exit once the queue is empty — tell them.
    if (draining_ && queued_ == 0) cv_work_.notify_all();
    return &job;
  };

  // Deterministic lane first: this device's det jobs, strictly in
  // submission order (deadlines/priorities do not apply in this lane).
  std::deque<int>& lane = det_lane_[std::size_t(device)];
  if (!lane.empty()) {
    Job& job = jobs_[std::size_t(lane.front())];
    lane.pop_front();
    return transition(job);
  }

  // Priority lane: fail expired jobs fast, then weighted fair queuing
  // across tenants (store/wfq.h) — the backlogged tenant with the lowest
  // virtual start time wins the slot — then the highest priority within
  // that tenant (ties to the earliest submission). With one tenant, or all
  // weights equal and one tenant backlogged, this degenerates to the plain
  // max-priority scan.
  std::vector<Job*> eligible;
  for (std::size_t i = 0; i < prio_pending_.size();) {
    Job& job = jobs_[std::size_t(prio_pending_[i])];
    if (job.has_deadline && now >= job.deadline_tp) {
      prio_pending_.erase(prio_pending_.begin() + long(i));
      finalizeQueuedLocked(job, JobState::kDeadlineMissed);
      continue;
    }
    // A sharded job needs every device idle — while anything runs it stays
    // queued (skipped, not removed) and lower-priority singles may pass it.
    if (job.spec.shards > 1 && running_ > 0) {
      ++i;
      continue;
    }
    eligible.push_back(&job);
    ++i;
  }
  if (eligible.empty()) return nullptr;
  // Distinct backlogged tenants in first-seen (submission) order, so the
  // WFQ tiebreak — "first candidate listed" — is deterministic.
  std::vector<std::string> tenants;
  for (const Job* j : eligible) {
    const std::string t = tenantLabel(j->spec.tenant);
    if (std::find(tenants.begin(), tenants.end(), t) == tenants.end())
      tenants.push_back(t);
  }
  const std::string winner = tenants[fq_.pickAndCharge(tenants)];
  Job* best = nullptr;
  for (Job* j : eligible) {
    if (tenantLabel(j->spec.tenant) != winner) continue;
    if (!best || j->spec.priority > best->spec.priority) best = j;
  }
  prio_pending_.erase(
      std::find(prio_pending_.begin(), prio_pending_.end(), best->id));
  return transition(*best);
}

void Dispatcher::finalizeQueuedLocked(Job& job, JobState state) {
  job.state = state;
  const auto now = std::chrono::steady_clock::now();
  job.queue_wait_host_s = secondsBetween(job.admit_tp, now);
  job.e2e_host_s = job.queue_wait_host_s;
  --queued_;
  if (inst_.queue_depth) inst_.queue_depth->set(double(queued_));
  if (draining_ && queued_ == 0) cv_work_.notify_all();
  noteTerminalLocked(job);
}

void Dispatcher::noteTerminalLocked(Job& job) {
  ++finished_;
  // device may be -1 for a once-dispatched job that was migrated off a
  // failed device and finalized from the queue.
  if (job.dispatch_seq >= 0 && job.device >= 0)
    device_running_[std::size_t(job.device)] = -1;
  switch (job.state) {
    case JobState::kDone:
      if (inst_.done) inst_.done->add();
      break;
    case JobState::kCancelled:
      if (inst_.cancelled) inst_.cancelled->add();
      requestFlightDumpLocked(job);
      break;
    case JobState::kFailed:
      if (inst_.failed) inst_.failed->add();
      requestFlightDumpLocked(job);
      break;
    case JobState::kDeadlineMissed:
      if (inst_.deadline_missed) inst_.deadline_missed->add();
      requestFlightDumpLocked(job);
      break;
    default:
      break;
  }
  if (inst_.queue_wait) inst_.queue_wait->observe(job.queue_wait_host_s);
  if (inst_.e2e) inst_.e2e->observe(job.e2e_host_s);
  if (job.dispatch_seq >= 0 && inst_.service_time)
    inst_.service_time->observe(job.service_host_s);
  // run.warm_started is written off-lock during the run and published by
  // this terminal transition — first (and only) safe read.
  if (job.dispatch_seq >= 0 && job.result.run.warm_started) {
    ++warm_starts_;
    obs::Recorder* wrec = opt_.recorder;
    if (wrec && wrec->metricsOn())
      wrec->metrics()
          .counter("svc.cache.warm_starts",
                   {{"tenant", tenantLabel(job.spec.tenant)}})
          .add();
  }
  obs::Recorder* rec = opt_.recorder;
  if (rec && rec->metricsOn()) {
    // Per-tenant outcome + latency, labeled — the wire `stats` verb and
    // svc_report surface these next to the aggregate svc.* series.
    const std::string tenant = tenantLabel(job.spec.tenant);
    if (job.state == JobState::kDone)
      rec->metrics().counter("svc.jobs.done", {{"tenant", tenant}}).add();
    rec->metrics()
        .histogram("svc.job.e2e_host_s", {{"tenant", tenant}})
        .observe(job.e2e_host_s);
  }
  {
    // Terminal flight event on the lane that owned the job (control lane
    // when it never dispatched).
    obs::FlightEvent fev;
    fev.job_id = job.id;
    fev.kind = jobStateName(job.state);
    fev.detail = job.result.error.empty() ? tenantLabel(job.spec.tenant)
                                          : job.result.error;
    fev.value = job.e2e_host_s;
    const int lane = job.dispatch_seq >= 0 && job.device >= 0
                         ? obs::FlightRecorder::deviceLane(job.device)
                         : obs::FlightRecorder::kControlLane;
    flight_.record(lane, std::move(fev));
  }
  // Hand the terminal snapshot to the server (WAL terminal record, cache
  // insert) — invoked later, off the lock, by flushFlightDumps().
  if (opt_.on_terminal) {
    pending_terminal_.push_back(snapshotLocked(job));
    ++terminal_queued_;
  }
  // In drain mode device threads only exit once everything is terminal
  // (a migration can put work back in the queue after it looked empty).
  if (draining_ && queued_ == 0 && running_ == 0) cv_work_.notify_all();
  cv_done_.notify_all();
}

void Dispatcher::requestFlightDumpLocked(const Job& job) {
  const std::string reason = jobStateName(job.state);
  pending_flight_.emplace_back(reason + "_job" + std::to_string(job.id),
                               reason + " job " + std::to_string(job.id));
  ++flight_dumps_;
  if (inst_.flight_dumps) inst_.flight_dumps->add();
}

void Dispatcher::flushFlightDumps() {
  std::vector<std::pair<std::string, std::string>> pending;
  std::vector<JobStatus> terminal;
  std::uint64_t batch_first = 0;
  {
    std::lock_guard lock(mu_);
    pending.swap(pending_flight_);
    terminal.swap(pending_terminal_);
    if (!terminal.empty()) {
      batch_first = terminal_queued_ - terminal.size();
      terminal_delivering_.push_back(batch_first);
    }
  }
  if (!opt_.flight_dir.empty())
    for (const auto& [stem, reason] : pending)
      flight_.writeFile(opt_.flight_dir + "/flight_" + stem + ".json", reason);
  if (terminal.empty()) return;
  // Retire the batch even if a callback throws, or flushNotifications()
  // callers would wait for it forever.
  struct Retire {
    Dispatcher& d;
    std::uint64_t first;
    ~Retire() {
      {
        std::lock_guard lock(d.mu_);
        auto& v = d.terminal_delivering_;
        v.erase(std::find(v.begin(), v.end(), first));
      }
      d.cv_delivered_.notify_all();
    }
  } retire{*this, batch_first};
  for (const JobStatus& s : terminal) opt_.on_terminal(s);
}

void Dispatcher::flushNotifications() {
  std::uint64_t target;
  {
    std::lock_guard lock(mu_);
    target = terminal_queued_;
  }
  flushFlightDumps();
  std::unique_lock lock(mu_);
  cv_delivered_.wait(lock, [&] {
    return std::none_of(terminal_delivering_.begin(),
                        terminal_delivering_.end(),
                        [&](std::uint64_t first) { return first < target; });
  });
}

std::vector<int> Dispatcher::survivorsLocked() const {
  std::vector<int> alive;
  for (int d = 0; d < opt_.num_devices; ++d)
    if (!device_failed_[std::size_t(d)]) alive.push_back(d);
  return alive;
}

void Dispatcher::requeueLocked(Job& job) {
  const std::vector<int> survivors = survivorsLocked();
  if (survivors.empty()) {
    // Nothing left to run it on: the migration dead-ends as a failure so
    // the job still reaches exactly one terminal state and drain() cannot
    // hang waiting for it.
    job.result.error = "no surviving devices";
    job.state = JobState::kFailed;
    job.e2e_host_s =
        secondsBetween(job.admit_tp, std::chrono::steady_clock::now());
    job.device = -1;
    noteTerminalLocked(job);
    return;
  }
  job.state = JobState::kQueued;
  job.device = -1;
  ++queued_;
  queue_depth_max_ = std::max(queue_depth_max_, queued_);
  if (inst_.queue_depth) inst_.queue_depth->set(double(queued_));
  if (job.spec.deterministic) {
    // Survivor choice is keyed by the det sequence number, so the same
    // failure sequence re-lanes the same way on every replay. Appending
    // keeps each lane in submission order among migrated jobs.
    det_lane_[std::size_t(survivors[std::size_t(job.det_seq) %
                                    survivors.size()])]
        .push_back(job.id);
  } else {
    prio_pending_.push_back(job.id);
  }
  cv_work_.notify_all();
}

void Dispatcher::migrateLocked(Job& job, int from_device) {
  ++job.migrations;
  ++jobs_migrated_;
  if (inst_.migrated) inst_.migrated->add();
  {
    obs::FlightEvent fev;
    fev.job_id = job.id;
    fev.kind = "migrate";
    fev.detail = "off failed device " + std::to_string(from_device);
    fev.value = double(job.migrations);
    flight_.record(obs::FlightRecorder::deviceLane(from_device),
                   std::move(fev));
  }
}

void Dispatcher::declareDeviceFailedLocked(int device,
                                           const std::string& reason) {
  if (device_failed_[std::size_t(device)]) return;
  device_failed_[std::size_t(device)] = 1;
  ++devices_failed_;
  if (inst_.device_failed) inst_.device_failed->add();
  {
    obs::FlightEvent fev;
    fev.job_id = device_running_[std::size_t(device)];  // -1 when idle
    fev.kind = "device_failed";
    fev.detail = reason;
    fev.value = double(device);
    flight_.record(obs::FlightRecorder::deviceLane(device), std::move(fev));
  }
  pending_flight_.emplace_back("device_failed_dev" + std::to_string(device),
                               "device " + std::to_string(device) +
                                   " failed: " + reason);
  ++flight_dumps_;
  if (inst_.flight_dumps) inst_.flight_dumps->add();

  // Re-lane the dead device's queued deterministic jobs onto the survivors
  // in submission order. Its running job (if any) is migrated by the device
  // thread itself once the abandoned run unwinds — the run owns job.result.
  std::deque<int> lane;
  lane.swap(det_lane_[std::size_t(device)]);
  for (int id : lane) {
    Job& job = jobs_[std::size_t(id)];
    migrateLocked(job, device);
    --queued_;  // requeueLocked re-adds (or finalizes via the queued path)
    requeueLocked(job);
  }
  if (survivorsLocked().empty()) {
    // Total outage: nothing queued can ever run. Fail the priority lane
    // out so every job still terminates and drain() returns.
    std::vector<int> pend;
    pend.swap(prio_pending_);
    for (int id : pend) {
      Job& job = jobs_[std::size_t(id)];
      job.result.error = "no surviving devices";
      finalizeQueuedLocked(job, JobState::kFailed);
    }
  }
  // Wake a run parked on this device (stall/death) and any device thread
  // waiting for work.
  chaos_dev_[std::size_t(device)].abandon();
  cv_work_.notify_all();
}

void Dispatcher::watchdogLoop() {
  std::unique_lock lock(mu_);
  const int D = opt_.num_devices;
  std::vector<std::uint64_t> last_beat(std::size_t(D), 0);
  std::vector<std::chrono::steady_clock::time_point> last_progress(
      std::size_t(D), std::chrono::steady_clock::now());
  while (!stop_ && !watchdog_exit_) {
    if (watchdog_ms_ <= 0.0) {
      // Disarmed: sleep until a plan install arms us (or teardown).
      cv_watchdog_.wait(lock);
      const auto now = std::chrono::steady_clock::now();
      for (auto& t : last_progress) t = now;
      continue;
    }
    cv_watchdog_.wait_for(
        lock, std::chrono::duration<double, std::milli>(
                  std::max(5.0, watchdog_ms_ / 4.0)));
    if (stop_ || watchdog_exit_) break;
    const auto now = std::chrono::steady_clock::now();
    for (int d = 0; d < D; ++d) {
      if (device_failed_[std::size_t(d)]) continue;
      const int running = device_running_[std::size_t(d)];
      const std::uint64_t beats = chaos_dev_[std::size_t(d)].beats();
      // Only a device running a chaos-monitored (heartbeating) job can go
      // silent; idle devices and unmonitored runs always count as live.
      if (running < 0 || !jobs_[std::size_t(running)].hooked ||
          beats != last_beat[std::size_t(d)]) {
        last_beat[std::size_t(d)] = beats;
        last_progress[std::size_t(d)] = now;
        continue;
      }
      const double silent_ms =
          std::chrono::duration<double, std::milli>(
              now - last_progress[std::size_t(d)])
              .count();
      if (silent_ms > watchdog_ms_)
        declareDeviceFailedLocked(
            d, "watchdog: no heartbeat for " +
                   std::to_string(int(silent_ms)) + " ms (limit " +
                   std::to_string(int(watchdog_ms_)) + " ms)");
    }
  }
}

void Dispatcher::deviceLoop(int device) {
  sched::DeviceRunContext ctx;
  ctx.recorder = opt_.recorder;
  ctx.host_pool = opt_.host_pool;
  ctx.device = device;
  ctx.trace_pid = tracePid(device);
  ctx.span_prefix = "svc";

  while (true) {
    Job* job = nullptr;
    chaos::JobFault fault;
    // Start clock and gang width are resolved under the lock at pick time
    // (a gang's clock is a property of every device, not just this one).
    double start_clock = 0.0;
    int gang_devices = 1;
    {
      std::unique_lock lock(mu_);
      cv_work_.wait(lock, [&] {
        if (stop_ || device_failed_[std::size_t(device)]) return true;
        job = pickJobLocked(device);
        if (job) return true;
        // A migration can put work back after the queue looked empty, so
        // drain-mode exit also requires that nothing is still running.
        return draining_ && queued_ == 0 && running_ == 0;
      });
      if (stop_ || device_failed_[std::size_t(device)] || !job) break;
      // Resolve this run's fault while the plan cannot change under us.
      // Forced per-job faults (spec.fault) fire anywhere; plan-decided
      // faults respect the plan's target-device set. One fault per job:
      // a migrated job's re-run is clean, so migration always converges.
      fault = job->spec.fault;
      if (fault.none() && injector_ != nullptr &&
          plan_.targetsDevice(device))
        fault = injector_->jobFault(job->id);
      if (job->fault_fired) fault = chaos::JobFault{};
      if ((fault.kind == chaos::FaultKind::kStall ||
           fault.kind == chaos::FaultKind::kDeath) &&
          watchdog_ms_ <= 0.0)
        fault = chaos::JobFault{};  // no watchdog to notice: would hang forever
      // The watchdog only monitors runs that carry a heartbeating hook.
      job->hooked = injector_ != nullptr || !job->spec.fault.none();
      if (job->spec.shards > 1) {
        // The gang occupies every surviving device: it starts when the
        // slowest of them is free and advances all of their clocks.
        int survivors = 0;
        for (int d2 = 0; d2 < opt_.num_devices; ++d2) {
          if (device_failed_[std::size_t(d2)]) continue;
          ++survivors;
          start_clock = std::max(start_clock, device_clock_[std::size_t(d2)]);
        }
        gang_devices = std::min(job->spec.shards, survivors);
      } else {
        start_clock = device_clock_[std::size_t(device)];
      }
    }
    // Deadline-miss finalizations inside pickJobLocked may have requested
    // dumps; write them before the (long) run, off the lock.
    flushFlightDumps();

    if (fault.kind == chaos::FaultKind::kDeath) {
      // The device dies before the kernel ever starts: no heartbeats, so
      // the watchdog declares it failed and abandon() releases us; the job
      // migrates untouched to a survivor.
      chaos_dev_[std::size_t(device)].waitAbandoned();
      {
        std::lock_guard lock(mu_);
        job->fault_fired = true;
        if (job->spec.shards > 1) gang_active_ = false;
        device_running_[std::size_t(device)] = -1;
        --running_;
        migrateLocked(*job, device);
        requeueLocked(*job);
      }
      flushFlightDumps();
      break;  // this device is gone (or the dispatcher is tearing down)
    }

    const WallTimer service_wall;
    chaos::JobFaultHook hook(fault, device, job->id,
                             &chaos_dev_[std::size_t(device)]);
    ctx.span = &job->span;
    ctx.fault_hook = job->hooked ? &hook : nullptr;
    double clock_after;
    if (job->spec.shards > 1) {
      // One logical job across the gang. The plan was validated at submit
      // with these exact parameters, so this rebuild cannot throw.
      shard::ShardConfig sc;
      sc.plan = shard::makeShardPlan(job->spec.problem->geometry().image_size,
                                     job->spec.shards, job->spec.shard_halo,
                                     job->spec.config.gpu.seed);
      sc.devices = gang_devices;
      sc.base = job->spec.config;
      clock_after = sched::runShardedJobOnDevices(
          ctx, *job->spec.problem, *job->spec.golden, sc, job->cancel,
          start_clock, job->result);
    } else {
      clock_after = sched::runJobOnDevice(ctx, *job->spec.problem,
                                          *job->spec.golden, job->spec.config,
                                          job->cancel, start_clock,
                                          job->result);
    }
    ctx.span = nullptr;
    ctx.fault_hook = nullptr;

    bool device_gone = false;
    {
      std::lock_guard lock(mu_);
      if (hook.fired()) job->fault_fired = true;
      device_gone = device_failed_[std::size_t(device)] != 0;
      if (job->spec.shards > 1) {
        gang_active_ = false;
        cv_work_.notify_all();  // peers idled by the gang can pick again
      }
      if (device_gone && hook.stalled()) {
        // The run froze mid-kernel, the watchdog declared the device dead,
        // and abandon() unwound it via DeviceLost: the outcome is void.
        // Reset the result so the survivor's re-run starts clean. For a
        // sharded job the WHOLE logical job is requeued — a gang member
        // lost mid-halo-exchange can never leave a torn partial image.
        const std::string name = job->result.name;
        job->result = sched::JobResult{};
        job->result.job_id = job->id;
        job->result.name = name;
        job->has_image = false;
        job->image_hash = 0;
        device_running_[std::size_t(device)] = -1;
        --running_;
        migrateLocked(*job, device);
        requeueLocked(*job);
      } else {
        if (job->spec.shards > 1) {
          // The gang ends synchronized: every surviving device's clock
          // advances to the same post-job time.
          for (int d2 = 0; d2 < opt_.num_devices; ++d2)
            if (!device_failed_[std::size_t(d2)])
              device_clock_[std::size_t(d2)] = clock_after;
        } else {
          device_clock_[std::size_t(device)] = clock_after;
        }
        job->service_host_s = service_wall.seconds();
        job->e2e_host_s = job->queue_wait_host_s + job->service_host_s;
        const sched::JobResult& r = job->result;
        if (!r.failed && r.run.image.numVoxels() > 0) {
          job->has_image = true;
          job->image_hash = fnv1a64(r.run.image.flat());
        }
        job->state = r.failed      ? JobState::kFailed
                     : r.cancelled ? JobState::kCancelled
                                   : JobState::kDone;
        --running_;
        noteTerminalLocked(*job);
      }
    }
    flushFlightDumps();
    if (device_gone) break;
  }
  flushFlightDumps();
}

JobStatus Dispatcher::snapshotLocked(const Job& job) const {
  JobStatus s;
  s.job_id = job.id;
  s.state = job.state;
  s.name = job.result.name;
  s.tenant = job.spec.tenant;
  s.priority = job.spec.priority;
  s.deterministic = job.spec.deterministic;
  s.deadline_ms = job.spec.deadline_ms;
  s.shards = job.spec.shards;
  s.device = job.device;
  s.dispatch_seq = job.dispatch_seq;
  s.queue_wait_host_s = job.queue_wait_host_s;
  s.service_host_s = job.service_host_s;
  s.e2e_host_s = job.e2e_host_s;
  s.migrations = job.migrations;
  s.recoveries = job.spec.recoveries;
  s.cache_hit = job.cache_hit;
  s.warm_start = job.spec.warm_start;
  if (isTerminal(job.state)) {
    // The error is set under the lock even for jobs that never dispatched
    // (queue finalizations: deadline misses, dead-ended migrations).
    s.error = job.result.error;
  }
  if (isTerminal(job.state) && (job.dispatch_seq >= 0 || job.cache_hit)) {
    // Run-outcome fields are written off-lock during the run; they are
    // published by the terminal-state transition (which holds the lock).
    // Cache-hit jobs never ran, but carry the cached outcome in the same
    // fields (set under the lock in submitCached).
    s.converged = job.result.run.converged;
    s.equits = job.result.run.equits;
    s.final_rmse_hu = job.result.run.final_rmse_hu;
    s.modeled_seconds = job.result.run.modeled_seconds;
    s.queue_wait_modeled_s = job.result.queue_wait_modeled_s;
    s.image_hash = job.image_hash;
    s.has_image = job.has_image;
  }
  return s;
}

Dispatcher::LiveStats Dispatcher::liveStats() const {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard lock(mu_);
  LiveStats s;
  s.accepting = accepting_;
  s.draining = draining_;
  s.uptime_host_s = lifetime_.seconds();
  s.num_devices = opt_.num_devices;
  s.queue_capacity = opt_.queue_capacity;
  s.queued = queued_;
  s.running = running_;
  s.submitted = accepted_;
  s.rejected = rejected_;
  s.finished = finished_;
  s.chaos_enabled = injector_ != nullptr;
  s.watchdog_ms = watchdog_ms_;
  s.devices_failed = devices_failed_;
  s.jobs_migrated = jobs_migrated_;
  s.cache_hits = cache_hits_;
  s.warm_starts = warm_starts_;
  s.jobs_recovered = jobs_recovered_;
  s.tenant_shares = fq_.snapshot();
  for (int id : prio_pending_)
    ++s.queue_depth_by_priority[jobs_[std::size_t(id)].spec.priority];
  s.devices.reserve(std::size_t(opt_.num_devices));
  for (int d = 0; d < opt_.num_devices; ++d) {
    LiveDevice dev;
    dev.device = d;
    dev.running_job = device_running_[std::size_t(d)];
    dev.busy = dev.running_job >= 0;
    dev.failed = device_failed_[std::size_t(d)] != 0;
    dev.modeled_s = device_clock_[std::size_t(d)];
    dev.det_lane_depth = int(det_lane_[std::size_t(d)].size());
    s.devices.push_back(std::move(dev));
  }
  for (const Job& job : jobs_) {
    if (isTerminal(job.state)) continue;
    LiveJob lj;
    lj.job_id = job.id;
    lj.state = job.state;
    lj.name = job.result.name;
    lj.tenant = job.spec.tenant;
    lj.priority = job.spec.priority;
    lj.deterministic = job.spec.deterministic;
    lj.device = job.state == JobState::kRunning ? job.device : -1;
    lj.age_host_s = secondsBetween(job.admit_tp, now);
    lj.has_deadline = job.has_deadline;
    if (job.has_deadline)
      lj.deadline_remaining_ms =
          std::chrono::duration<double, std::milli>(job.deadline_tp - now)
              .count();
    s.in_flight.push_back(std::move(lj));
  }
  s.flight_events = flight_.totalRecorded();
  s.flight_dumps = flight_dumps_;
  return s;
}

std::string Dispatcher::liveStatsJson() const {
  const LiveStats s = liveStats();
  obs::JsonWriter w;
  w.beginObject();
  w.kv("schema", kStatsSchema);
  w.kv("accepting", s.accepting);
  w.kv("draining", s.draining);
  w.kv("uptime_host_s", s.uptime_host_s);
  w.kv("num_devices", s.num_devices);
  w.kv("queue_capacity", s.queue_capacity);
  w.kv("queued", s.queued);
  w.kv("running", s.running);
  w.kv("submitted", s.submitted);
  w.kv("rejected", s.rejected);
  w.kv("finished", s.finished);
  w.key("queue_depth_by_priority").beginObject();
  for (const auto& [prio, n] : s.queue_depth_by_priority)
    w.kv(std::to_string(prio), std::int64_t(n));
  w.endObject();
  w.key("devices").beginArray();
  for (const LiveDevice& d : s.devices) {
    w.beginObject();
    w.kv("device", d.device);
    w.kv("busy", d.busy);
    w.kv("failed", d.failed);
    w.kv("running_job", d.running_job);
    w.kv("modeled_s", d.modeled_s);
    w.kv("det_lane_depth", d.det_lane_depth);
    w.endObject();
  }
  w.endArray();
  w.key("in_flight").beginArray();
  for (const LiveJob& j : s.in_flight) {
    w.beginObject();
    w.kv("job_id", j.job_id);
    w.kv("state", jobStateName(j.state));
    w.kv("name", j.name);
    if (!j.tenant.empty()) w.kv("tenant", j.tenant);
    w.kv("priority", j.priority);
    w.kv("deterministic", j.deterministic);
    w.kv("device", j.device);
    w.kv("age_host_s", j.age_host_s);
    if (j.has_deadline) w.kv("deadline_remaining_ms", j.deadline_remaining_ms);
    w.endObject();
  }
  w.endArray();
  w.key("flight").beginObject();
  w.kv("events_recorded", s.flight_events);
  w.kv("dumps", s.flight_dumps);
  w.endObject();
  w.key("chaos").beginObject();
  w.kv("enabled", s.chaos_enabled);
  w.kv("watchdog_ms", s.watchdog_ms);
  w.kv("devices_failed", std::int64_t(s.devices_failed));
  w.kv("jobs_migrated", std::int64_t(s.jobs_migrated));
  w.key("plan").raw(faultPlan().toJson());
  w.endObject();
  w.key("store").beginObject();
  w.kv("cache_hits", std::int64_t(s.cache_hits));
  w.kv("warm_starts", std::int64_t(s.warm_starts));
  w.kv("jobs_recovered", std::int64_t(s.jobs_recovered));
  w.key("tenants").beginArray();
  for (const store::FairQueue::Share& sh : s.tenant_shares) {
    w.beginObject();
    w.kv("tenant", sh.tenant);
    w.kv("weight", sh.weight);
    w.kv("vtime", sh.vtime);
    w.kv("served_cost", sh.served_cost);
    w.kv("picks", std::int64_t(sh.picks));
    w.endObject();
  }
  w.endArray();
  w.endObject();
  const obs::Recorder* rec = opt_.recorder;
  if (rec && rec->metricsOn()) {
    w.key("metrics");
    rec->metrics().writeJson(w);
  }
  w.endObject();
  return w.str();
}

std::uint64_t Dispatcher::flightDumpCount() const {
  std::lock_guard lock(mu_);
  return flight_dumps_;
}

const SvcReport& Dispatcher::drain() {
  std::lock_guard drain_lock(drain_mu_);
  if (joined_) return report_;  // idempotent: repeat callers share the report
  {
    std::lock_guard lock(mu_);
    accepting_ = false;
    draining_ = true;
    cv_work_.notify_all();
  }
  {
    std::unique_lock lock(mu_);
    cv_done_.wait(lock, [&] { return queued_ == 0 && running_ == 0; });
  }
  for (std::thread& t : devices_) t.join();
  joined_ = true;
  stopWatchdog();
  flushFlightDumps();  // anything the device threads did not get to

  // Threads are gone; every job is terminal and fully published.
  SvcReport& rep = report_;
  rep.num_devices = opt_.num_devices;
  rep.queue_capacity = opt_.queue_capacity;
  rep.jobs_submitted = accepted_;
  rep.admission_rejected = rejected_;
  rep.queue_depth_max = queue_depth_max_;
  rep.devices_failed = devices_failed_;
  rep.jobs_migrated = jobs_migrated_;
  rep.cache_hits = cache_hits_;
  rep.warm_starts = warm_starts_;
  rep.jobs_recovered = jobs_recovered_;
  for (int d = 0; d < opt_.num_devices; ++d)
    if (device_failed_[std::size_t(d)]) rep.failed_devices.push_back(d);
  rep.device_modeled_s = device_clock_;
  rep.makespan_modeled_s =
      device_clock_.empty()
          ? 0.0
          : *std::max_element(device_clock_.begin(), device_clock_.end());
  std::vector<double> queue_wait, service, e2e;
  struct TenantAgg {
    std::uint64_t submitted = 0, done = 0, cache_hits = 0, warm_starts = 0;
    std::vector<double> queue_wait, e2e;
  };
  std::map<std::string, TenantAgg> by_tenant;
  for (const Job& job : jobs_) {
    rep.jobs.push_back(snapshotLocked(job));
    const JobStatus& s = rep.jobs.back();
    switch (s.state) {
      case JobState::kDone:
        ++rep.jobs_done;
        if (s.converged) ++rep.jobs_converged;
        break;
      case JobState::kCancelled: ++rep.jobs_cancelled; break;
      case JobState::kFailed: ++rep.jobs_failed; break;
      case JobState::kDeadlineMissed: ++rep.jobs_deadline_missed; break;
      default: break;
    }
    queue_wait.push_back(s.queue_wait_host_s);
    e2e.push_back(s.e2e_host_s);
    if (s.dispatch_seq >= 0) {
      service.push_back(s.service_host_s);
      rep.modeled_device_seconds_total += s.modeled_seconds;
    }
    TenantAgg& agg = by_tenant[tenantLabel(s.tenant)];
    ++agg.submitted;
    if (s.state == JobState::kDone) ++agg.done;
    if (s.cache_hit) ++agg.cache_hits;
    if (s.warm_start && s.dispatch_seq >= 0) ++agg.warm_starts;
    agg.queue_wait.push_back(s.queue_wait_host_s);
    agg.e2e.push_back(s.e2e_host_s);
  }
  rep.queue_wait_host_s = summarize(std::move(queue_wait));
  rep.service_host_s = summarize(std::move(service));
  rep.e2e_host_s = summarize(std::move(e2e));
  rep.host_seconds = lifetime_.seconds();
  rep.jobs_per_host_second =
      rep.host_seconds > 0.0 ? double(rep.jobs_done) / rep.host_seconds : 0.0;
  // Per-tenant summary (sorted by label via the map): the WFQ acceptance
  // surface — per-tenant p99s and goodput next to the configured weight.
  for (auto& [tenant, agg] : by_tenant) {
    SvcReport::TenantSummary t;
    t.tenant = tenant;
    t.weight = fq_.weight(tenant);
    t.jobs_submitted = agg.submitted;
    t.jobs_done = agg.done;
    t.cache_hits = agg.cache_hits;
    t.warm_starts = agg.warm_starts;
    t.goodput_jobs_per_s =
        rep.host_seconds > 0.0 ? double(agg.done) / rep.host_seconds : 0.0;
    t.queue_wait_host_s = summarize(std::move(agg.queue_wait));
    t.e2e_host_s = summarize(std::move(agg.e2e));
    rep.tenants.push_back(std::move(t));
  }

  drained_.store(true, std::memory_order_release);
  return report_;
}

std::string Dispatcher::reportJson() const {
  MBIR_CHECK_MSG(drained(), "reportJson() before drain()");
  const SvcReport& rep = report_;
  obs::JsonWriter w;
  w.beginObject();
  w.kv("schema", kReportSchema);
  w.kv("simd", resolveSimdOps(SimdMode::kDefault).name);
  w.kv("num_devices", rep.num_devices);
  w.kv("queue_capacity", rep.queue_capacity);
  w.kv("jobs_submitted", std::int64_t(rep.jobs_submitted));
  w.kv("admission_rejected", std::int64_t(rep.admission_rejected));
  w.kv("jobs_done", std::int64_t(rep.jobs_done));
  w.kv("jobs_converged", std::int64_t(rep.jobs_converged));
  w.kv("jobs_cancelled", std::int64_t(rep.jobs_cancelled));
  w.kv("jobs_failed", std::int64_t(rep.jobs_failed));
  w.kv("jobs_deadline_missed", std::int64_t(rep.jobs_deadline_missed));
  w.kv("devices_failed", std::int64_t(rep.devices_failed));
  w.kv("jobs_migrated", std::int64_t(rep.jobs_migrated));
  w.kv("cache_hits", std::int64_t(rep.cache_hits));
  w.kv("warm_starts", std::int64_t(rep.warm_starts));
  w.kv("jobs_recovered", std::int64_t(rep.jobs_recovered));
  w.key("failed_devices").beginArray();
  for (int d : rep.failed_devices) w.value(d);
  w.endArray();
  const chaos::FaultPlan plan = faultPlan();
  w.key("chaos").beginObject();
  w.kv("enabled", plan.enabled());
  w.kv("watchdog_ms", watchdogMs());
  w.key("plan").raw(plan.toJson());
  w.endObject();
  w.kv("queue_depth_max", rep.queue_depth_max);
  w.kv("host_seconds", rep.host_seconds);
  w.kv("jobs_per_host_second", rep.jobs_per_host_second);
  w.key("queue_wait_host_s");
  writeDistSummary(w, rep.queue_wait_host_s);
  w.key("service_host_s");
  writeDistSummary(w, rep.service_host_s);
  w.key("e2e_host_s");
  writeDistSummary(w, rep.e2e_host_s);
  w.kv("modeled_device_seconds_total", rep.modeled_device_seconds_total);
  w.kv("makespan_modeled_s", rep.makespan_modeled_s);
  w.key("device_modeled_s").beginArray();
  for (double s : rep.device_modeled_s) w.value(s);
  w.endArray();
  w.key("tenants").beginArray();
  for (const SvcReport::TenantSummary& t : rep.tenants) {
    w.beginObject();
    w.kv("tenant", t.tenant);
    w.kv("weight", t.weight);
    w.kv("jobs_submitted", std::int64_t(t.jobs_submitted));
    w.kv("jobs_done", std::int64_t(t.jobs_done));
    w.kv("cache_hits", std::int64_t(t.cache_hits));
    w.kv("warm_starts", std::int64_t(t.warm_starts));
    w.kv("goodput_jobs_per_s", t.goodput_jobs_per_s);
    w.key("queue_wait_host_s");
    writeDistSummary(w, t.queue_wait_host_s);
    w.key("e2e_host_s");
    writeDistSummary(w, t.e2e_host_s);
    w.endObject();
  }
  w.endArray();
  w.key("jobs").beginArray();
  for (const JobStatus& s : rep.jobs) {
    w.beginObject();
    w.kv("job_id", s.job_id);
    w.kv("name", s.name);
    if (!s.tenant.empty()) w.kv("tenant", s.tenant);
    w.kv("state", jobStateName(s.state));
    w.kv("priority", s.priority);
    w.kv("deterministic", s.deterministic);
    if (s.deadline_ms >= 0.0) w.kv("deadline_ms", s.deadline_ms);
    if (s.shards > 1) w.kv("shards", s.shards);
    w.kv("device", s.device);
    w.kv("dispatch_seq", s.dispatch_seq);
    w.kv("queue_wait_host_s", s.queue_wait_host_s);
    w.kv("service_host_s", s.service_host_s);
    w.kv("e2e_host_s", s.e2e_host_s);
    if (s.dispatch_seq >= 0 || s.cache_hit) {
      w.kv("converged", s.converged);
      w.kv("equits", s.equits);
      w.kv("final_rmse_hu", s.final_rmse_hu);
      w.kv("modeled_seconds", s.modeled_seconds);
      w.kv("queue_wait_modeled_s", s.queue_wait_modeled_s);
    }
    if (s.cache_hit) w.kv("cache_hit", true);
    if (s.warm_start) w.kv("warm_start", true);
    if (s.recoveries > 0) w.kv("recoveries", s.recoveries);
    if (s.migrations > 0) w.kv("migrations", s.migrations);
    if (!s.error.empty()) w.kv("error", s.error);
    // uint64 hashes cross the wire as hex strings: a JSON number (double)
    // only carries 53 bits exactly.
    if (s.has_image) w.kv("image_hash", hashToHex(s.image_hash));
    w.endObject();
  }
  w.endArray();
  const obs::Recorder* rec = opt_.recorder;
  if (rec && rec->metricsOn()) {
    w.key("metrics");
    rec->metrics().writeJson(w);
  }
  w.endObject();
  return w.str();
}

void Dispatcher::writeReportJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  MBIR_CHECK_MSG(out.good(), "cannot open svc report file: " + path);
  out << reportJson() << '\n';
  MBIR_CHECK_MSG(out.good(), "failed writing svc report: " + path);
}

}  // namespace mbir::svc
