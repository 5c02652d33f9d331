#include "serve/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "io/blif_io.hpp"
#include "io/netlist_io.hpp"
#include "io/verilog_io.hpp"
#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/io_retry.hpp"
#include "util/journal.hpp"
#include "util/socket.hpp"

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

// --- CaseDispatcher -------------------------------------------------------

namespace {

constexpr int kPeerMaxStrikes = 2;

const char* recvBreakCause(net::RecvStatus st) {
  switch (st) {
    case net::RecvStatus::kTruncated: return "frame-truncated";
    case net::RecvStatus::kGarbage: return "garbage-ipc";
    default: return "conn-reset";
  }
}

}  // namespace

CaseDispatcher::CaseDispatcher(Options opt) : opt_(std::move(opt)) {
  for (const std::string& spec : opt_.workers) {
    Peer p;
    p.spec = spec;
    Result<std::pair<std::string, std::uint16_t>> hp = net::parseHostPort(spec);
    if (!hp.isOk()) {
      // A malformed spec can never serve; it is born dead (and reported so
      // the caller's ledger shows why the fleet is smaller than configured).
      p.dead = true;
      Event ev;
      ev.kind = EventKind::kPeerDead;
      ev.worker = spec;
      ev.cause = "conn-refused";
      ev.detail = "bad worker spec: " + hp.status().message();
      pending_.push_back(std::move(ev));
    } else {
      p.host = hp.value().first;
      p.port = hp.value().second;
    }
    peers_.push_back(std::move(p));
  }
}

CaseDispatcher::~CaseDispatcher() {
  for (Peer& p : peers_) net::closeSocket(p.fd);
}

void CaseDispatcher::log(const std::string& msg) const {
  if (opt_.verbose) std::fprintf(stderr, "[syseco-serve] %s\n", msg.c_str());
}

std::size_t CaseDispatcher::usableWorkers() const {
  std::size_t n = 0;
  for (const Peer& p : peers_)
    if (!p.dead && !p.lagging) ++n;
  return n;
}

bool CaseDispatcher::fleetUsable() const {
  return usableWorkers() >= static_cast<std::size_t>(std::max(1, opt_.minWorkers));
}

bool CaseDispatcher::hasIdlePeer() const {
  for (const Peer& p : peers_)
    if (!p.dead && !p.lagging && !p.busy) return true;
  return false;
}

std::vector<int> CaseDispatcher::pollFds() const {
  std::vector<int> fds;
  for (const Peer& p : peers_)
    if (p.fd >= 0) fds.push_back(p.fd);
  return fds;
}

CaseDispatcher::Event CaseDispatcher::reclaim(Peer& p, const std::string& cause,
                                              const std::string& why) {
  Event ev;
  ev.kind = EventKind::kFailure;
  ev.name = p.caseName;
  ev.worker = p.spec;
  ev.attempt = p.attempt;
  ev.cause = cause;
  ev.detail = why;
  p.busy = false;
  p.casePayload.clear();
  p.casePayload.shrink_to_fit();
  return ev;
}

void CaseDispatcher::breakPeer(Peer& p, const std::string& cause,
                               const std::string& why,
                               std::vector<Event>& out) {
  if (p.busy) out.push_back(reclaim(p, cause, why));
  net::closeSocket(p.fd);
  p.rx.clear();
  p.lagging = false;
  ++p.strikes;
  if (p.strikes >= kPeerMaxStrikes && !p.dead) {
    p.dead = true;
    Event ev;
    ev.kind = EventKind::kPeerDead;
    ev.worker = p.spec;
    ev.cause = cause;
    ev.detail = why;
    out.push_back(std::move(ev));
    log("worker " + p.spec + " marked dead: " + why);
  }
}

Result<CaseDispatcher::Assignment> CaseDispatcher::assign(
    const std::string& name, std::string casePayload, std::int64_t jobs,
    std::int64_t attempt, double nowSeconds) {
  const std::uint32_t crc = crc32(casePayload);
  for (Peer& p : peers_) {
    if (p.dead || p.lagging || p.busy) continue;
    if (p.fd < 0) {
      Result<int> fd = net::connectTo(p.host, p.port, opt_.connectTimeoutMs);
      if (!fd.isOk()) {
        // The case never reached the agent: the refusal strikes the peer,
        // not the case's retry budget.
        breakPeer(p, "conn-refused", fd.status().message(), pending_);
        continue;
      }
      p.fd = fd.take();
      p.rx.clear();
    }
    FleetCaseTask task;
    task.name = name;
    task.caseCrc = crc;
    task.epoch = ++epochCounter_;
    task.leaseSeconds = opt_.leaseSeconds;
    task.jobs = static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(jobs, 1, kMaxCaseJobs));
    task.attempt = attempt;
    if (!net::sendFrame(p.fd, ipc::kTypeFleetCaseTask,
                        encodeFleetCaseTask(task))
             .isOk()) {
      breakPeer(p, "conn-reset", "case task send failed", pending_);
      continue;
    }
    p.busy = true;
    p.caseName = name;
    p.casePayload = std::move(casePayload);
    p.caseCrc = crc;
    p.epoch = task.epoch;
    p.attempt = attempt;
    p.deadline = nowSeconds + opt_.leaseSeconds;
    log("case " + name + " -> " + p.spec + " (epoch " +
        std::to_string(task.epoch) + ", attempt " + std::to_string(attempt) +
        ")");
    Assignment a;
    a.worker = p.spec;
    a.epoch = task.epoch;
    return a;
  }
  return Status::internal("no idle usable agent accepted the case");
}

void CaseDispatcher::handleFrame(Peer& p, const ipc::Frame& frame,
                                 double nowSeconds, std::vector<Event>& out) {
  switch (frame.type) {
    case ipc::kTypeFleetNeedCase: {
      Result<std::uint32_t> crc = decodeFleetNeedCase(frame.payload);
      if (!crc.isOk() || !p.busy || crc.value() != p.caseCrc) {
        breakPeer(p, "garbage-ipc", "bad need-case frame", out);
        return;
      }
      log("case upload to " + p.spec + " (" +
          std::to_string(p.casePayload.size()) + " bytes)");
      if (!net::sendFrame(p.fd, ipc::kTypeFleetCase, p.casePayload).isOk())
        breakPeer(p, "conn-reset", "case upload failed", out);
      return;
    }
    case ipc::kTypeFleetHeartbeat: {
      Result<std::uint64_t> ep = decodeFleetHeartbeat(frame.payload);
      if (!ep.isOk()) {
        breakPeer(p, "garbage-ipc", "bad heartbeat frame", out);
        return;
      }
      // Heartbeats for reclaimed epochs are ignored: the peer stays
      // lagging until its stale result lands.
      if (p.busy && ep.value() == p.epoch)
        p.deadline = nowSeconds + opt_.leaseSeconds;
      return;
    }
    case ipc::kTypeFleetCaseResult: {
      Result<FleetCaseResult> res = decodeFleetCaseResult(frame.payload);
      if (!res.isOk()) {
        breakPeer(p, "garbage-ipc",
                  "undecodable case result: " + res.status().message(), out);
        return;
      }
      if (!p.busy || res.value().epoch != p.epoch) {
        // The duplicate from a reclaimed assignment: discarded by epoch,
        // and the agent - alive, honest, just too late - rejoins the pool.
        Event ev;
        ev.kind = EventKind::kStaleDiscard;
        ev.name = p.caseName;
        ev.worker = p.spec;
        ev.cause = "stale-epoch";
        ev.detail = "discarded duplicate result for epoch " +
                    std::to_string(res.value().epoch);
        out.push_back(std::move(ev));
        p.lagging = false;
        p.strikes = 0;
        return;
      }
      Event ev;
      ev.kind = EventKind::kResult;
      ev.name = p.caseName;
      ev.worker = p.spec;
      ev.attempt = p.attempt;
      ev.result = res.take();
      out.push_back(std::move(ev));
      p.busy = false;
      p.strikes = 0;
      p.casePayload.clear();
      p.casePayload.shrink_to_fit();
      return;
    }
    case ipc::kTypeFleetFailure: {
      Result<FleetFailure> fail = decodeFleetFailure(frame.payload);
      if (!fail.isOk()) {
        breakPeer(p, "garbage-ipc", "bad failure frame", out);
        return;
      }
      if (!p.busy || fail.value().epoch != p.epoch) {
        Event ev;
        ev.kind = EventKind::kStaleDiscard;
        ev.name = p.caseName;
        ev.worker = p.spec;
        ev.cause = "stale-epoch";
        ev.detail = "discarded duplicate failure for epoch " +
                    std::to_string(fail.value().epoch);
        out.push_back(std::move(ev));
        p.lagging = false;
        p.strikes = 0;
        return;
      }
      // A contained failure report proves the agent itself is healthy.
      Event ev = reclaim(p, fail.value().cause, fail.value().detail);
      out.push_back(std::move(ev));
      p.strikes = 0;
      return;
    }
    default:
      breakPeer(p, "garbage-ipc",
                "unexpected frame type " + std::to_string(frame.type), out);
      return;
  }
}

void CaseDispatcher::servicePeer(Peer& p, double nowSeconds,
                                 std::vector<Event>& out) {
  if (p.fd < 0) return;
  const ioretry::DrainOutcome dr = ioretry::drainNonblockingRaw(p.fd, &p.rx);
  const bool eof = dr.state == ioretry::DrainState::kEof;
  const int derr = dr.state == ioretry::DrainState::kError ? dr.err : 0;
  while (p.fd >= 0) {
    net::RecvOutcome o = net::takeFrame(&p.rx, eof, derr);
    if (o.status == net::RecvStatus::kFrame) {
      handleFrame(p, o.frame, nowSeconds, out);
      continue;
    }
    if (o.status == net::RecvStatus::kTimeout) break;  // stream intact
    const char* cause = recvBreakCause(o.status);
    breakPeer(p, cause, o.detail.empty() ? cause : o.detail, out);
    break;
  }
}

std::vector<CaseDispatcher::Event> CaseDispatcher::poll(double nowSeconds) {
  std::vector<Event> out;
  out.swap(pending_);
  for (Peer& p : peers_) servicePeer(p, nowSeconds, out);

  // Lease enforcement: a case with no heartbeat inside its lease is
  // reclaimed. The connection is kept - the agent may still deliver a
  // now-stale result, and discarding it by epoch is cheaper than
  // resynchronizing a torn stream - but the peer stops counting toward
  // fleet health until that happens.
  for (Peer& p : peers_) {
    if (!p.busy || p.fd < 0 || nowSeconds <= p.deadline) continue;
    out.push_back(reclaim(p, "lease-expired", "no heartbeat within the lease"));
    ++p.strikes;
    if (p.strikes >= kPeerMaxStrikes) {
      net::closeSocket(p.fd);
      p.rx.clear();
      p.dead = true;
      Event ev;
      ev.kind = EventKind::kPeerDead;
      ev.worker = p.spec;
      ev.cause = "lease-expired";
      ev.detail = "strike limit after repeated lease expiries";
      out.push_back(std::move(ev));
      log("worker " + p.spec + " marked dead after repeated lease expiries");
    } else {
      p.lagging = true;
      log("case " + p.caseName + " lease expired on " + p.spec +
          "; reclaimed (peer lagging)");
    }
  }
  return out;
}

void CaseDispatcher::closeAll() {
  for (Peer& p : peers_) {
    if (p.busy)
      pending_.push_back(
          reclaim(p, "conn-reset", "fleet closed; case reclaimed"));
    net::closeSocket(p.fd);
    p.rx.clear();
    p.lagging = false;
    p.dead = true;
  }
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

}  // namespace

Scheduler::Scheduler(const SchedulerOptions& opt, JobQueue queue)
    : opt_(opt),
      queue_(std::move(queue)),
      watchdog_(PoolWatchdog::Options{opt.poolSize}),
      dispatcher_(CaseDispatcher::Options{opt.workers, opt.fleetLeaseSeconds,
                                          opt.fleetConnectTimeoutMs,
                                          opt.fleetMinWorkers, opt.verbose}) {
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
  dispatcher_.closeAll();
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
    const bool agentIdle = dispatcher_.enabled() && !fleetDegraded_ &&
                           dispatcher_.fleetUsable() &&
                           dispatcher_.hasIdlePeer();
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
  const std::int64_t attempt = job.attempt + 1;
  Result<CaseDispatcher::Assignment> a = dispatcher_.assign(
      job.id, encodeFleetCase(base.value(), spec.value(), eopt, {}), job.jobs,
      attempt, clock_.seconds());
  // Every idle agent refused: the refusals struck the agents, and the job
  // has not used up an attempt.
  if (!a.isOk()) return false;
  if (Status s = queue_.markRunning(job, attempt, a.value().worker);
      !s.isOk()) {
    // Still queued; the agent's result will not match a running job.
    warn("cannot journal dispatch of " + job.id + ": " + s.message());
    return true;
  }
  log("dispatched job " + job.id + " to " + a.value().worker + " (epoch " +
      std::to_string(a.value().epoch) + ", attempt " +
      std::to_string(attempt) + ")");
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
  if (!dispatcher_.enabled()) return;
  if (!fleetDegraded_ && !dispatcher_.fleetUsable()) {
    fleetDegraded_ = true;
    warn("fleet degraded (" + std::to_string(dispatcher_.usableWorkers()) +
         " usable worker(s), minimum " + std::to_string(opt_.fleetMinWorkers) +
         "); continuing with the local pool");
    // closeAll reclaims in-flight remote cases; poll() below surfaces them
    // as failure events that re-queue onto the local pool.
    dispatcher_.closeAll();
  }
  const double now = clock_.seconds();
  for (const CaseDispatcher::Event& ev : dispatcher_.poll(now))
    settle(ev, now);
}

void Scheduler::settle(const CaseDispatcher::Event& ev, double now) {
  switch (ev.kind) {
    case CaseDispatcher::EventKind::kResult: {
      Job* job = queue_.find(ev.name);
      if (job == nullptr || job->state != QueueState::kRunning)
        return;  // cancelled while the result was in flight
      Result<Netlist> nl = Netlist::restoreRawString(ev.result.netlist);
      if (!nl.isOk()) {
        retryOrQuarantine(*job, "garbage-ipc",
                          "result netlist failed validation: " +
                              nl.status().message(),
                          now);
        return;
      }
      finish(*job, ev.result.exitCode,
             CacheCounters{ev.result.cacheHits, ev.result.cacheMisses,
                           ev.result.cacheEvictions},
             {{queue_.reportPath(*job), ev.result.report},
              {queue_.outPath(*job), netlistText(job->format, nl.value())},
              {queue_.verdictsPath(*job),
               verdictsFileText(ev.result.verdicts)}},
             now);
      return;
    }
    case CaseDispatcher::EventKind::kFailure: {
      Job* job = queue_.find(ev.name);
      if (job == nullptr || job->state != QueueState::kRunning) return;
      retryOrQuarantine(*job, ev.cause, ev.detail, now);
      return;
    }
    case CaseDispatcher::EventKind::kStaleDiscard:
      (void)queue_.note("stale-epoch duplicate from " + ev.worker +
                        " discarded (job " + ev.name + "): " + ev.detail);
      return;
    case CaseDispatcher::EventKind::kPeerDead:
      (void)queue_.note("worker " + ev.worker + " marked dead (" +
                        ev.cause + "): " + ev.detail);
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
