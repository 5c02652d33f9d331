#include "serve/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string_view>

#include "io/blif_io.hpp"
#include "io/netlist_io.hpp"
#include "io/verilog_io.hpp"
#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/ipc.hpp"
#include "util/journal.hpp"

namespace syseco::serve {

double caseRedispatchBackoffSeconds(double backoffBaseMs, std::uint64_t seed,
                                    std::uint32_t caseOrdinal,
                                    int failedAttempts) {
  // The per-output transports' deterministic contract, re-keyed: the case
  // ordinal stands in for the output index, so every process life paces
  // the same job on the same schedule from (seed, ordinal) alone.
  SysecoOptions opt;
  opt.isolateBackoffMs = backoffBaseMs;
  opt.seed = seed;
  return retryBackoffSeconds(opt, caseOrdinal, failedAttempts);
}

namespace {

/// Parses netlist text in one of the job formats with the checked parsers.
Result<Netlist> parseNetlistText(const std::string& format,
                                 const std::string& text) {
  std::istringstream is(text);
  return format == "blif" ? readBlifChecked(is)
         : format == "v"  ? readVerilogChecked(is)
                          : readNetlistChecked(is);
}

}  // namespace

Status validatePayload(const SubmitRequest& r) {
  const std::pair<const char*, const std::string*> texts[] = {
      {"impl", &r.implText}, {"spec", &r.specText}};
  for (const auto& [name, text] : texts) {
    Result<Netlist> parsed = parseNetlistText(r.format, *text);
    if (!parsed.isOk())
      return Status::invalidInput(std::string(name) + " netlist: " +
                                  parsed.status().message());
  }
  return Status::ok();
}

// --- Scheduler ------------------------------------------------------------

namespace {

constexpr double kTerminateGraceSeconds = 1.0;

std::string netlistText(const std::string& format, const Netlist& nl) {
  std::ostringstream os;
  if (format == "blif")
    writeBlif(os, nl);
  else if (format == "v")
    writeVerilog(os, nl);
  else
    writeNetlist(os, nl);
  return os.str();
}

/// verdicts.txt content: the oracle's verdicts record as one line, or an
/// empty file when the run had none. The record is timing-free by design,
/// which makes it the bit-comparison anchor across local, remote and
/// resumed executions.
std::string verdictsFileText(const std::string& record) {
  return record.empty() ? std::string() : record + "\n";
}

/// The last verdicts record a finished local worker left in its engine
/// journal (empty when the run had no oracle or died early).
std::string verdictsRecordFromJournal(const std::string& journalDir) {
  Result<JournalScan> scan = scanJournal(journalDir);
  if (!scan.isOk()) return {};
  std::string last;
  for (const JournalFrame& f : scan.value().frames)
    if (f.payload.rfind("{\"type\":\"verdicts\"", 0) == 0) last = f.payload;
  return last;
}

/// A remote whole-case result: the envelope and its re-validated netlist.
struct CaseResult {
  FleetCaseResult envelope;
  Netlist netlist;
};

Result<CaseResult> decodeCaseResult(std::string_view payload) {
  Result<FleetCaseResult> res = decodeFleetCaseResult(payload);
  if (!res.isOk())
    return Status::invalidInput("undecodable case result: " +
                                res.status().message());
  Result<Netlist> nl = Netlist::restoreRawString(res.value().netlist);
  if (!nl.isOk())
    return Status::invalidInput("result netlist failed validation: " +
                                nl.status().message());
  return CaseResult{res.take(), nl.take()};
}

}  // namespace

Scheduler::Scheduler(const SchedulerOptions& opt, JobQueue queue)
    : opt_(opt),
      queue_(std::move(queue)),
      watchdog_(PoolWatchdog::Options{opt.poolSize}),
      pool_(AgentPool::Options{opt.workers, opt.fleetLeaseSeconds,
                               opt.fleetConnectTimeoutMs,
                               opt.fleetMinWorkers}) {
  for (const std::string& n : queue_.recoveryNotes()) {
    log("recovery: " + n);
    (void)queue_.note("recovery: " + n);
  }
}

void Scheduler::log(const std::string& msg) const {
  if (opt_.verbose) std::fprintf(stderr, "[syseco-serve] %s\n", msg.c_str());
}

void Scheduler::warn(const std::string& msg) {
  std::fprintf(stderr, "[syseco-serve] warning: %s\n", msg.c_str());
  (void)queue_.note("warning: " + msg);
}

void Scheduler::tick() {
  serviceFleet();
  reapExits(clock_.seconds());
  dispatchQueued();
}

void Scheduler::cancel(Job& job, const std::string& cause,
                       const std::string& detail) {
  if (job.state == QueueState::kRunning) {
    // A remote assignment is left to finish; its result no longer matches
    // a running job and is dropped when it settles.
    watchdog_.terminate(job.id, kTerminateGraceSeconds);
    (void)queue_.markCancelled(job, cause, detail);
    log("job " + job.id + " terminated and cancelled (" + cause + ")");
  } else if (job.state == QueueState::kQueued) {
    (void)queue_.markCancelled(job, cause, detail);
    log("job " + job.id + " cancelled while queued (" + cause + ")");
  }
  // Terminal states are left alone: cancel is idempotent and never
  // rewrites history.
}

void Scheduler::shutdown() {
  watchdog_.terminateAll(kTerminateGraceSeconds);
  pool_.closeAll();
}

// Transition statuses are not re-checked at each call: a failed WAL append
// poisons the queue, and the driving loop checks walPoisoned() every tick
// and fails closed.
void Scheduler::retryOrQuarantine(Job& job, const std::string& cause,
                                  const std::string& detail, double now) {
  if (job.attempt >= opt_.maxAttempts) {
    (void)queue_.markFailed(job, cause,
                            "quarantined after " +
                                std::to_string(job.attempt) +
                                " attempt(s); last failure: " + detail);
    log("job " + job.id + " quarantined (" + cause + "): " + detail);
    return;
  }
  (void)queue_.markRequeued(job, cause, detail);
  notBefore_[job.id] =
      now + caseRedispatchBackoffSeconds(opt_.backoffBaseMs, job.seed,
                                         crc32(job.id),
                                         static_cast<int>(job.attempt));
  log("job " + job.id + " re-queued with resume (" + cause + "): " + detail);
}

void Scheduler::dispatchQueued() {
  const double now = clock_.seconds();
  for (Job* job : queue_.all()) {
    if (job->state != QueueState::kQueued) continue;
    if (auto it = notBefore_.find(job->id);
        it != notBefore_.end() && now < it->second)
      continue;  // still backing off; later queued jobs may proceed
    const bool agentIdle = pool_.size() > 0 && !fleetDegraded_ &&
                           pool_.degraded().empty() && pool_.hasIdlePeer();
    if (!agentIdle && !watchdog_.hasIdleSlot()) return;
    // An idle usable agent first, an idle local slot otherwise. --isolate
    // and fault-inject jobs are local by construction.
    if (agentIdle && !job->isolate && job->faultInject.empty() &&
        dispatchRemote(*job))
      continue;
    if (watchdog_.hasIdleSlot()) dispatchLocal(*job);
  }
}

bool Scheduler::dispatchRemote(Job& job) {
  // Rebuild the case upload from the job's payload files; any hiccup here
  // falls back to the local pool rather than failing the job.
  Result<Netlist> base =
      parseNetlistText(job.format, readFileOrEmpty(queue_.implPath(job)));
  Result<Netlist> spec =
      parseNetlistText(job.format, readFileOrEmpty(queue_.specPath(job)));
  if (!base.isOk() || !spec.isOk()) {
    warn("job " + job.id + ": payload re-parse failed; using the local pool");
    return false;
  }
  SysecoOptions eopt;
  eopt.seed = job.seed;
  const auto upload = std::make_shared<const AgentPool::Case>(
      encodeFleetCase(base.value(), spec.value(), eopt, {}));
  const std::int64_t attempt = job.attempt + 1;
  const auto encode = [&](std::uint64_t epoch) {
    FleetCaseTask task;
    task.name = job.id;
    task.caseCrc = upload->crc;
    task.epoch = epoch;
    task.leaseSeconds = opt_.fleetLeaseSeconds;
    task.jobs = static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(job.jobs, 1, kMaxCaseJobs));
    task.attempt = attempt;
    return encodeFleetCaseTask(task);
  };
  Result<AgentPool::Assignment> a =
      pool_.assign(job.id, ipc::kTypeFleetCaseTask, encode, upload);
  // Every idle agent refused: the refusals struck the agents, and the job
  // has not used up an attempt.
  if (!a.isOk()) return false;
  log("case " + job.id + " -> " + a.value().worker + " (epoch " +
      std::to_string(a.value().epoch) + ", attempt " +
      std::to_string(attempt) + ")");
  if (Status s = queue_.markRunning(job, attempt, a.value().worker);
      !s.isOk()) {
    // Still queued; the agent's result will not match a running job.
    warn("cannot journal dispatch of " + job.id + ": " + s.message());
  }
  return true;
}

void Scheduler::dispatchLocal(Job& job) {
  const std::int64_t attempt = job.attempt + 1;
  const bool resume = job.resume;
  if (Status s = queue_.markRunning(job, attempt); !s.isOk()) {
    warn("cannot journal dispatch of " + job.id + ": " + s.message());
    return;
  }
  std::vector<std::string> argv = {
      opt_.selfExe,
      "--impl", queue_.implPath(job),
      "--spec", queue_.specPath(job),
      resume ? "--resume" : "--journal", queue_.engineJournalDir(job),
      "--report", queue_.reportPath(job),
      "--out", queue_.outPath(job),
      "--seed", std::to_string(job.seed),
      "--jobs", std::to_string(job.jobs),
  };
  if (job.isolate) argv.push_back("--isolate");
  std::vector<std::string> env;
  if (!job.faultInject.empty())
    env.push_back("SYSECO_FAULT_INJECT=" + job.faultInject);
  Status spawned = watchdog_.spawn(job.id, attempt, argv,
                                   queue_.workerLogPath(job), env);
  if (!spawned.isOk()) {
    warn("cannot spawn worker for " + job.id + ": " + spawned.message());
    retryOrQuarantine(job, "crash", "spawn failed: " + spawned.message(),
                      clock_.seconds());
    return;
  }
  log("dispatched job " + job.id + " to the local pool (attempt " +
      std::to_string(attempt) + (resume ? ", resume)" : ")"));
}

void Scheduler::finish(
    Job& job, std::int64_t exitCode, const CacheCounters& cache,
    const std::vector<std::pair<std::string, std::string>>& files,
    double now) {
  for (const auto& [path, content] : files) {
    if (Status s = writeFileAtomic(path, content); !s.isOk()) {
      warn("cannot write artifact for " + job.id + ": " + s.message());
      retryOrQuarantine(job, "artifact-write", s.message(), now);
      return;
    }
  }
  (void)queue_.markDone(job, exitCode, cache);
  log("job " + job.id + " done" +
      (job.worker.empty() ? std::string(" locally") : " on " + job.worker) +
      " (exit " + std::to_string(exitCode) + ", attempt " +
      std::to_string(job.attempt) + ")");
}

void Scheduler::serviceFleet() {
  if (pool_.size() == 0) return;
  if (!fleetDegraded_) {
    if (const std::string why = pool_.degraded(); !why.empty()) {
      fleetDegraded_ = true;
      warn("fleet degraded (" + why + "); continuing with the local pool");
      // closeAll reclaims in-flight remote cases; poll() below surfaces
      // them as failures that re-queue onto the local pool.
      pool_.closeAll();
    }
  }
  const double now = clock_.seconds();
  for (const AgentPool::Event& ev : pool_.poll()) settle(ev, now);
}

void Scheduler::settle(const AgentPool::Event& ev, double now) {
  switch (ev.kind) {
    case AgentPool::EventKind::kResult: {
      Result<CaseResult> res = decodeCaseResult(ev.payload);
      if (!res.isOk())
        pool_.reject(ev.peer, "garbage-ipc", res.status().message());
      Job* job = queue_.find(ev.name);
      if (job == nullptr || job->state != QueueState::kRunning)
        return;  // cancelled while the result was in flight
      if (!res.isOk()) {
        retryOrQuarantine(*job, "garbage-ipc", res.status().message(), now);
        return;
      }
      const FleetCaseResult& r = res.value().envelope;
      finish(*job, r.exitCode,
             CacheCounters{r.cacheHits, r.cacheMisses, r.cacheEvictions},
             {{queue_.reportPath(*job), r.report},
              {queue_.outPath(*job),
               netlistText(job->format, res.value().netlist)},
              {queue_.verdictsPath(*job), verdictsFileText(r.verdicts)}},
             now);
      return;
    }
    case AgentPool::EventKind::kFailure: {
      Job* job = queue_.find(ev.name);
      if (job == nullptr || job->state != QueueState::kRunning) return;
      retryOrQuarantine(*job, ev.cause, ev.detail, now);
      return;
    }
    case AgentPool::EventKind::kStale:
      (void)queue_.note("stale-epoch duplicate from " + ev.worker +
                        " discarded (job " + ev.name + "): " + ev.detail);
      return;
    case AgentPool::EventKind::kStrike:
      log("worker " + ev.worker + " struck (" + ev.cause + "): " + ev.detail);
      return;
    case AgentPool::EventKind::kDead:
      log("worker " + ev.worker + " marked dead: " + ev.detail);
      (void)queue_.note("worker " + ev.worker + " marked dead (" +
                        ev.cause + "): " + ev.detail);
      return;
    case AgentPool::EventKind::kUpload:
      log("case upload to " + ev.worker + " (" + ev.detail + ")");
      return;
  }
}

void Scheduler::reapExits(double now) {
  for (const WorkerExit& e : watchdog_.reap()) {
    Job* job = queue_.find(e.job);
    if (job == nullptr || job->state != QueueState::kRunning)
      continue;  // cancelled while the exit was in flight
    if (e.retryable) {
      const std::string how =
          e.signaled ? "signal " + std::to_string(e.signal)
                     : "exit " + std::to_string(e.exitCode);
      retryOrQuarantine(*job, e.cause, "worker died (" + how + ")", now);
      continue;
    }
    // The worker wrote its report and netlist itself; its verdicts live in
    // its engine journal and are mirrored to the artifact a remote result
    // writes, so every job directory compares the same way.
    finish(*job, e.exitCode, {},
           {{queue_.verdictsPath(*job),
             verdictsFileText(verdictsRecordFromJournal(
                 queue_.engineJournalDir(*job)))}},
           now);
  }
}

}  // namespace syseco::serve
