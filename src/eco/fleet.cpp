#include "eco/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "eco/isolate.hpp"
#include "eco/report.hpp"
#include "eco/resume.hpp"
#include "eco/syseco.hpp"
#include "io/journal_io.hpp"
#include "netlist/analysis.hpp"
#include "util/crc32.hpp"
#include "util/fault.hpp"
#include "util/io_retry.hpp"
#include "util/ipc.hpp"
#include "util/socket.hpp"
#include "util/status.hpp"
#include "util/subprocess.hpp"

namespace syseco {
namespace {

bool stopped(const FleetAgentOptions& opt) {
  return opt.stop && opt.stop->load(std::memory_order_relaxed);
}

/// Makes sure the cache holds the case `caseCrc` names, fetching it from
/// the supervisor on a miss. Shared by the per-output and whole-case task
/// paths. Returns the resident entry, or null when the connection should be
/// dropped (transport break, bad payload, shutdown).
CaseCacheLru::Entry* ensureCase(int fd, std::string& rx,
                                std::uint32_t caseCrc, CaseCacheLru& cache,
                                const FleetAgentOptions& opt) {
  if (CaseCacheLru::Entry* hit = cache.find(caseCrc)) return hit;
  if (!net::sendFrame(fd, ipc::kTypeFleetNeedCase,
                      encodeFleetNeedCase(caseCrc))
           .isOk())
    return nullptr;
  // The upload can be megabytes of netlist; wait generously but keep the
  // stop flag responsive.
  for (int waited = 0; waited < 60000 && !stopped(opt); waited += 200) {
    net::RecvOutcome out = net::recvFrame(fd, &rx, 200);
    if (out.status == net::RecvStatus::kTimeout) continue;
    if (out.status != net::RecvStatus::kFrame) return nullptr;
    if (out.frame.type != ipc::kTypeFleetCase) return nullptr;
    if (crc32(out.frame.payload) != caseCrc) return nullptr;
    Result<FleetCase> decoded = decodeFleetCase(out.frame.payload);
    if (!decoded.isOk()) {
      std::fprintf(stderr, "[syseco-agent] rejected case payload: %s\n",
                   decoded.status().toString().c_str());
      return nullptr;
    }
    CaseCacheLru::Entry* entry = cache.insert(caseCrc, decoded.take());
    if (opt.verbose) {
      const CaseCacheLru::Stats& cs = cache.stats();
      std::fprintf(stderr,
                   "[syseco-agent] cached case crc=%u (%zu bytes, %zu/%zu "
                   "slots, hits=%llu misses=%llu evictions=%llu)\n",
                   entry->crc, out.frame.payload.size(), cache.size(),
                   cache.slots(), static_cast<unsigned long long>(cs.hits),
                   static_cast<unsigned long long>(cs.misses),
                   static_cast<unsigned long long>(cs.evictions));
    }
    return entry;
  }
  return nullptr;
}

bool sendFailure(int fd, std::uint64_t epoch, WorkerExitCause cause,
                 std::string detail) {
  FleetFailure f;
  f.epoch = epoch;
  f.cause = workerExitCauseName(cause);
  f.detail = std::move(detail);
  return net::sendFrame(fd, ipc::kTypeFleetFailure, encodeFleetFailure(f))
      .isOk();
}

/// No heartbeats, no result, no close: the honest simulation of an agent
/// that accepted work and then wedged. Returns once the supervisor gives
/// up on the connection (or the agent is asked to stop).
bool hangUntilPeerCloses(int fd, std::string& rx,
                         const FleetAgentOptions& opt) {
  while (!stopped(opt)) {
    subprocess::pollReadable({fd}, 200);
    const ioretry::DrainOutcome dr = ioretry::drainNonblockingRaw(fd, &rx);
    if (dr.state != ioretry::DrainState::kOpen) break;
  }
  return false;
}

/// Runs `compute` on a worker thread while this one heartbeats every
/// quarter-lease, so a long search never starves the supervisor's deadline.
/// Returns false when the peer went away mid-compute (the caller finishes,
/// drops the result and takes the next connection - the work cannot be
/// cancelled mid-flight).
bool computeWithHeartbeats(int fd, std::string& rx, std::uint64_t epoch,
                           double leaseSeconds, bool suppressHeartbeats,
                           const std::function<void()>& compute) {
  std::atomic<bool> done{false};
  std::thread worker([&] {
    compute();
    done.store(true, std::memory_order_release);
  });
  const int hbMs =
      std::clamp(static_cast<int>(leaseSeconds * 1000.0 / 4.0), 50, 1000);
  bool peerOpen = true;
  while (!done.load(std::memory_order_acquire)) {
    if (peerOpen) {
      subprocess::pollReadable({fd}, hbMs);
      const ioretry::DrainOutcome dr = ioretry::drainNonblockingRaw(fd, &rx);
      if (dr.state != ioretry::DrainState::kOpen)
        peerOpen = false;
      else if (!suppressHeartbeats)
        (void)net::sendFrame(fd, ipc::kTypeFleetHeartbeat,
                             encodeFleetHeartbeat(epoch));
    } else {
      subprocess::pollReadable({}, hbMs);
    }
  }
  worker.join();
  return peerOpen;
}

/// One assignment as the agent serves it. Per-output and whole-case tasks
/// differ only in how they compute, which result frame a wire fault forges,
/// and their fault-site names.
struct AgentTask {
  std::uint32_t caseCrc = 0;
  std::uint64_t epoch = 0;
  double leaseSeconds = 10.0;
  std::uint32_t resultType = 0;  ///< kTypeFleetResult / kTypeFleetCaseResult
  std::string site;  ///< hits every task of the kind
  std::string pin;   ///< "<site>.<pin>" hits one output or case only
  /// Runs on the compute thread against the resident case: the encoded
  /// result payload, or the failure to report.
  std::function<Result<std::string>(const CaseCacheLru::Entry&)> compute;
};

/// Serves one assignment end to end. Returns false when the connection
/// should be dropped afterwards.
bool serveAssignment(int fd, std::string& rx, const AgentTask& task,
                     CaseCacheLru& cache, const FleetAgentOptions& opt) {
  const CaseCacheLru::Entry* entry =
      ensureCase(fd, rx, task.caseCrc, cache, opt);
  if (entry == nullptr) return false;

  // Agent-side fault sites: the plain site hits every task of its kind; the
  // pinned variant limits the blast radius to one output or case in tests
  // and CI. (kCrash fires centrally inside fault::fire - std::_Exit(137).)
  bool suppressHeartbeats = false;
  const std::string pinned = task.site + "." + task.pin;
  for (const std::string* site : {&task.site, &pinned}) {
    const auto kind = fault::fire(site->c_str());
    if (!kind) continue;
    // A well-formed frame of the kind the supervisor awaits, to sabotage.
    std::string forged =
        ipc::encodeFrame(task.resultType, std::string(256, 'x'));
    switch (*kind) {
      case fault::Kind::kNetReset:
        // Drop the connection between request and result.
        return false;
      case fault::Kind::kNetTruncate:
        // A complete header promising a payload that never fully arrives,
        // then EOF: the supervisor must classify frame-truncated, not
        // garbage-ipc (the prefix is a perfectly valid frame start).
        (void)ioretry::writeAllRaw(
            fd, std::string_view(forged).substr(0, forged.size() / 2), true);
        return false;
      case fault::Kind::kHang:
        return hangUntilPeerCloses(fd, rx, opt);
      case fault::Kind::kGarbageIpc:
        forged[forged.size() / 2] =
            static_cast<char>(forged[forged.size() / 2] ^ 0x40);
        (void)ioretry::writeAllRaw(fd, forged, true);
        return true;  // keep serving; the supervisor will drop us
      case fault::Kind::kOom:
        return sendFailure(fd, task.epoch, WorkerExitCause::kOom,
                           "injected allocation failure");
      case fault::Kind::kNetDelay: {
        // Outlive the lease with no heartbeats, then answer anyway: the
        // supervisor must have reclaimed the assignment by then and must
        // discard this duplicate by epoch.
        const int totalMs =
            static_cast<int>(task.leaseSeconds * 1500.0) + 200;
        for (int waited = 0; waited < totalMs && !stopped(opt); waited += 100)
          subprocess::pollReadable({}, 100);
        suppressHeartbeats = true;
        break;
      }
      default:
        // Engine-internal kinds have no meaning at this site; report a
        // cleanly contained injection.
        return sendFailure(fd, task.epoch, WorkerExitCause::kFaultInjected,
                           "injected fault");
    }
    break;  // a fired fault is handled once
  }

  std::optional<Result<std::string>> outcome;
  const bool peerOpen = computeWithHeartbeats(
      fd, rx, task.epoch, task.leaseSeconds, suppressHeartbeats,
      [&] { outcome.emplace(task.compute(*entry)); });
  if (!peerOpen) return false;
  if (!outcome->isOk())
    return sendFailure(fd, task.epoch, workerExitCauseOf(outcome->status()),
                       outcome->status().message());
  return net::sendFrame(fd, task.resultType, outcome->value()).isOk();
}

/// A per-output task: the pure per-output search, answered with an
/// epoch-stamped WorkerPatch.
AgentTask outputTask(const FleetTaskRequest& req,
                     const FleetAgentOptions& opt) {
  if (opt.verbose)
    std::fprintf(stderr,
                 "[syseco-agent] task out=%u attempt=%lld epoch=%llu\n",
                 req.output, static_cast<long long>(req.attempt),
                 static_cast<unsigned long long>(req.epoch));
  AgentTask t;
  t.caseCrc = req.caseCrc;
  t.epoch = req.epoch;
  t.leaseSeconds = req.leaseSeconds;
  t.resultType = ipc::kTypeFleetResult;
  t.site = "fleet.agent";
  t.pin = "o" + std::to_string(req.output);
  t.compute = [req, &opt](const CaseCacheLru::Entry& e) -> Result<std::string> {
    Result<WorkerPatch> r = runFleetTask(
        e.c.base, e.c.spec, e.c.options, req.limits, req.output, e.c.protect,
        e.baseAnalysis.get(), e.specAnalysis.get());
    if (!r.isOk()) return r.status();
    if (opt.verbose)
      std::fprintf(stderr, "[syseco-agent] out=%u done (produced=%d)\n",
                   req.output, r.value().produced ? 1 : 0);
    return encodeFleetResult(req.epoch, r.value());
  };
  return t;
}

/// A whole-case task: the full engine on the resident case, answered with
/// one envelope carrying the report, the verdicts record and the patched
/// netlist.
AgentTask caseTask(const FleetCaseTask& req, const CaseCacheLru& cache,
                   const FleetAgentOptions& opt) {
  if (opt.verbose)
    std::fprintf(stderr,
                 "[syseco-agent] case task name=%s jobs=%u attempt=%lld "
                 "epoch=%llu\n",
                 req.name.c_str(), req.jobs,
                 static_cast<long long>(req.attempt),
                 static_cast<unsigned long long>(req.epoch));
  AgentTask t;
  t.caseCrc = req.caseCrc;
  t.epoch = req.epoch;
  t.leaseSeconds = req.leaseSeconds;
  t.resultType = ipc::kTypeFleetCaseResult;
  t.site = "fleet.agent.case";
  t.pin = req.name;
  t.compute = [req, &cache,
               &opt](const CaseCacheLru::Entry& e) -> Result<std::string> {
    // The whole-case run is the exact function a local `--jobs N` CLI run
    // computes: the wire options carry only the deterministic
    // search-shaping fields, and `jobs` arrives with the task (bit-identity
    // holds for every jobs value).
    SysecoOptions wopt = e.c.options;
    wopt.jobs = req.jobs;
    SysecoDiagnostics diag;
    Result<EcoResult> r = runSysecoChecked(e.c.base, e.c.spec, wopt, &diag);
    if (!r.isOk()) return r.status();
    const EcoResult& result = r.value();
    FleetCaseResult res;
    res.epoch = req.epoch;
    res.exitCode = result.success ? (diag.resourceDegraded() ? 4 : 0) : 1;
    res.report = runReportText("syseco", result, diag, wopt.audit,
                               res.exitCode);
    res.verdicts = serializeVerdicts(makeVerdictsRecord(diag));
    res.netlist = result.rectified.dumpRawString();
    const CaseCacheLru::Stats& cs = cache.stats();
    res.cacheHits = cs.hits;
    res.cacheMisses = cs.misses;
    res.cacheEvictions = cs.evictions;
    if (opt.verbose)
      std::fprintf(stderr,
                   "[syseco-agent] case %s done exit=%d (cache hits=%llu "
                   "misses=%llu evictions=%llu)\n",
                   req.name.c_str(), res.exitCode,
                   static_cast<unsigned long long>(cs.hits),
                   static_cast<unsigned long long>(cs.misses),
                   static_cast<unsigned long long>(cs.evictions));
    return encodeFleetCaseResult(res);
  };
  return t;
}

void serveConnection(int fd, CaseCacheLru& cache,
                     const FleetAgentOptions& opt) {
  std::string rx;
  while (!stopped(opt)) {
    net::RecvOutcome out = net::recvFrame(fd, &rx, 200);
    if (out.status == net::RecvStatus::kTimeout) continue;
    if (out.status != net::RecvStatus::kFrame) return;
    AgentTask task;
    if (out.frame.type == ipc::kTypeFleetTask) {
      Result<FleetTaskRequest> req =
          decodeFleetTaskRequest(out.frame.payload);
      if (!req.isOk()) return;
      task = outputTask(req.value(), opt);
    } else if (out.frame.type == ipc::kTypeFleetCaseTask) {
      Result<FleetCaseTask> req = decodeFleetCaseTask(out.frame.payload);
      if (!req.isOk()) return;
      task = caseTask(req.value(), cache, opt);
    } else {
      return;
    }
    if (!serveAssignment(fd, rx, task, cache, opt)) return;
  }
}

}  // namespace

CaseCacheLru::Entry* CaseCacheLru::lookup(std::uint32_t crc) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->crc != crc) continue;
    entries_.splice(entries_.begin(), entries_, it);
    return &entries_.front();
  }
  return nullptr;
}

CaseCacheLru::Entry* CaseCacheLru::find(std::uint32_t crc) {
  Entry* hit = lookup(crc);
  if (hit)
    ++stats_.hits;
  else
    ++stats_.misses;
  return hit;
}

CaseCacheLru::Entry* CaseCacheLru::insert(std::uint32_t crc, FleetCase c) {
  if (Entry* hit = lookup(crc)) {
    // Same key re-uploaded (e.g. after a supervisor reconnect): refresh the
    // payload in place rather than holding two copies of one family.
    hit->c = std::move(c);
    hit->baseAnalysis = std::make_unique<NetlistAnalysis>(hit->c.base);
    hit->specAnalysis = std::make_unique<NetlistAnalysis>(hit->c.spec);
    return hit;
  }
  while (entries_.size() >= slots_) {
    entries_.pop_back();
    ++stats_.evictions;
  }
  entries_.emplace_front();
  Entry& e = entries_.front();
  e.crc = crc;
  e.c = std::move(c);
  e.baseAnalysis = std::make_unique<NetlistAnalysis>(e.c.base);
  e.specAnalysis = std::make_unique<NetlistAnalysis>(e.c.spec);
  return &e;
}

std::vector<std::uint32_t> CaseCacheLru::keysMruFirst() const {
  std::vector<std::uint32_t> keys;
  keys.reserve(entries_.size());
  for (const Entry& e : entries_) keys.push_back(e.crc);
  return keys;
}

Status runWorkerAgent(const FleetAgentOptions& opt) {
  ioretry::ignoreSigpipeOnce();
  std::uint16_t bound = 0;
  Result<int> listening = net::listenOn(opt.port, &bound);
  if (!listening.isOk()) return listening.status();
  int listenFd = listening.take();
  if (opt.boundHook) opt.boundHook(bound);
  if (opt.verbose)
    std::fprintf(stderr, "[syseco-agent] listening on port %u\n",
                 static_cast<unsigned>(bound));
  // The case cache outlives connections on purpose: a supervisor that
  // reconnects after a transport hiccup skips the netlist re-upload, and a
  // --serve daemon fanning jobs across a few netlist families keeps each
  // family resident (LRU eviction beyond cacheSlots).
  CaseCacheLru cache(opt.cacheSlots);
  while (!stopped(opt)) {
    int softErr = 0;
    Result<int> client = net::acceptClient(listenFd, 200, &softErr);
    if (!client.isOk()) {
      net::closeSocket(listenFd);
      return client.status();
    }
    int fd = client.take();
    if (fd < 0) {
      if (softErr != 0) {
        // fd exhaustion (EMFILE/ENFILE) or a peer-aborted connect: back off
        // briefly so the fd table can drain, then keep serving. Dying here
        // would turn a load spike into a fleet-wide outage.
        std::fprintf(stderr,
                     "[syseco-agent] accept backoff: errno %d (%s); "
                     "retrying\n",
                     softErr, std::strerror(softErr));
        subprocess::pollReadable({}, 200);
      }
      continue;  // accept timeout or soft failure; re-check the stop flag
    }
    if (opt.verbose)
      std::fprintf(stderr, "[syseco-agent] supervisor connected\n");
    serveConnection(fd, cache, opt);
    net::closeSocket(fd);
    if (opt.verbose)
      std::fprintf(stderr, "[syseco-agent] supervisor disconnected\n");
    if (opt.serveOnce) break;
  }
  net::closeSocket(listenFd);
  return Status::ok();
}

// --- AgentPool: the supervisor side ---------------------------------------

namespace {

constexpr int kPeerMaxStrikes = 2;

}  // namespace

AgentPool::Case::Case(std::string p)
    : payload(std::move(p)), crc(crc32(payload)) {}

AgentPool::AgentPool(Options opt) : opt_(std::move(opt)) {
  peers_.resize(opt_.workers.size());
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    Peer& p = peers_[i];
    p.spec = opt_.workers[i];
    Result<std::pair<std::string, std::uint16_t>> hp =
        net::parseHostPort(p.spec);
    if (hp.isOk()) {
      p.host = hp.value().first;
      p.port = hp.value().second;
      continue;
    }
    // A malformed spec can never serve; it is born dead (and reported so
    // the caller's ledger shows why the fleet is smaller than configured).
    p.dead = true;
    pending_.push_back(
        event(EventKind::kDead, p,
              workerExitCauseName(WorkerExitCause::kConnRefused),
              "bad worker spec: " + hp.status().message()));
  }
}

AgentPool::~AgentPool() {
  for (Peer& p : peers_) net::closeSocket(p.fd);
}

std::size_t AgentPool::usableWorkers() const {
  std::size_t n = 0;
  for (const Peer& p : peers_)
    if (!p.dead && !p.lagging) ++n;
  return n;
}

std::string AgentPool::degraded() const {
  const std::size_t floor =
      static_cast<std::size_t>(std::max(1, opt_.minWorkers));
  const std::size_t usable = usableWorkers();
  if (usable >= floor) return {};
  return std::to_string(usable) + " usable worker(s), minimum " +
         std::to_string(floor);
}

bool AgentPool::hasIdlePeer() const {
  for (const Peer& p : peers_)
    if (!p.dead && !p.lagging && !p.busy) return true;
  return false;
}

std::vector<int> AgentPool::pollFds() const {
  std::vector<int> fds;
  for (const Peer& p : peers_)
    if (p.fd >= 0) fds.push_back(p.fd);
  return fds;
}

AgentPool::Event AgentPool::event(EventKind kind, const Peer& p,
                                  std::string cause,
                                  std::string detail) const {
  Event ev;
  ev.kind = kind;
  ev.peer = static_cast<std::size_t>(&p - peers_.data());
  ev.worker = p.spec;
  ev.name = p.name;
  ev.epoch = p.epoch;
  ev.cause = std::move(cause);
  ev.detail = std::move(detail);
  return ev;
}

void AgentPool::failAssignment(Peer& p, const std::string& cause,
                               const std::string& why,
                               std::vector<Event>& out) {
  if (!p.busy) return;
  p.busy = false;
  out.push_back(event(EventKind::kFailure, p, cause, why));
}

void AgentPool::disconnect(Peer& p) {
  net::closeSocket(p.fd);
  p.rx.clear();
  p.lagging = false;
  p.upload.reset();
}

void AgentPool::strike(Peer& p, const std::string& cause,
                       const std::string& why, std::vector<Event>& out) {
  p.answered = false;
  if (++p.strikes < kPeerMaxStrikes || p.dead) return;
  p.dead = true;
  disconnect(p);
  out.push_back(event(EventKind::kDead, p, cause, why));
}

void AgentPool::breakPeer(Peer& p, const std::string& cause,
                          const std::string& why, std::vector<Event>& out) {
  if (p.busy)
    failAssignment(p, cause, why, out);
  else
    out.push_back(event(EventKind::kStrike, p, cause, why));
  disconnect(p);
  strike(p, cause, why, out);
}

void AgentPool::discardStale(Peer& p, std::uint64_t epoch, const char* what,
                             std::vector<Event>& out) {
  Event ev = event(EventKind::kStale, p, "stale-epoch",
                   std::string("discarded duplicate ") + what +
                       " for epoch " + std::to_string(epoch));
  ev.epoch = epoch;
  out.push_back(std::move(ev));
  if (p.lagging) {
    p.lagging = false;
    p.upload.reset();
  }
  p.strikes = 0;
}

Result<AgentPool::Assignment> AgentPool::assign(
    const std::string& name, std::uint32_t taskType, const EncodeTask& encode,
    std::shared_ptr<const Case> upload) {
  for (Peer& p : peers_) {
    if (p.dead || p.lagging || p.busy) continue;
    if (p.fd < 0) {
      Result<int> fd = net::connectTo(p.host, p.port, opt_.connectTimeoutMs);
      if (!fd.isOk()) {
        breakPeer(p, workerExitCauseName(WorkerExitCause::kConnRefused),
                  fd.status().message(), pending_);
        continue;
      }
      p.fd = fd.take();
      p.rx.clear();
    }
    const std::uint64_t epoch = ++epochCounter_;
    if (!net::sendFrame(p.fd, taskType, encode(epoch)).isOk()) {
      breakPeer(p, workerExitCauseName(WorkerExitCause::kConnReset),
                "task request send failed", pending_);
      continue;
    }
    p.busy = true;
    p.name = name;
    p.epoch = epoch;
    p.deadline = clock_.seconds() + opt_.leaseSeconds;
    p.upload = std::move(upload);
    return Assignment{p.spec, epoch};
  }
  return Status::internal("no idle usable agent took the assignment");
}

void AgentPool::reject(std::size_t peer, const std::string& cause,
                       const std::string& why) {
  Peer& p = peers_[peer];
  failAssignment(p, cause, why, pending_);
  disconnect(p);
  strike(p, cause, why, pending_);
}

void AgentPool::handleFrame(Peer& p, ipc::Frame& frame,
                            std::vector<Event>& out) {
  const char* garbage = workerExitCauseName(WorkerExitCause::kGarbageIpc);
  if (frame.type == ipc::kTypeFleetNeedCase) {
    Result<std::uint32_t> crc = decodeFleetNeedCase(frame.payload);
    if (!crc.isOk() || !p.upload || crc.value() != p.upload->crc) {
      breakPeer(p, garbage, "bad need-case frame", out);
      return;
    }
    out.push_back(event(EventKind::kUpload, p, {},
                        std::to_string(p.upload->payload.size()) + " bytes"));
    if (!net::sendFrame(p.fd, ipc::kTypeFleetCase, p.upload->payload).isOk())
      breakPeer(p, workerExitCauseName(WorkerExitCause::kConnReset),
                "case upload failed", out);
  } else if (frame.type == ipc::kTypeFleetHeartbeat) {
    Result<std::uint64_t> ep = decodeFleetHeartbeat(frame.payload);
    if (!ep.isOk()) {
      breakPeer(p, garbage, "bad heartbeat frame", out);
      return;
    }
    // Heartbeats for reclaimed epochs are ignored: the peer stays lagging
    // until its stale answer lands.
    if (p.busy && ep.value() == p.epoch)
      p.deadline = clock_.seconds() + opt_.leaseSeconds;
  } else if (frame.type == ipc::kTypeFleetResult ||
             frame.type == ipc::kTypeFleetCaseResult) {
    Result<std::uint64_t> ep = peekFleetEpoch(frame.payload);
    if (!ep.isOk()) {
      breakPeer(p, garbage, "bad result envelope", out);
      return;
    }
    if (!p.busy || ep.value() != p.epoch) {
      discardStale(p, ep.value(), "result", out);
      return;
    }
    Event ev = event(EventKind::kResult, p);
    ev.payload = std::move(frame.payload);
    out.push_back(std::move(ev));
    p.busy = false;
    p.upload.reset();
    p.answered = true;
  } else if (frame.type == ipc::kTypeFleetFailure) {
    Result<FleetFailure> failure = decodeFleetFailure(frame.payload);
    if (!failure.isOk()) {
      breakPeer(p, garbage, "bad failure frame", out);
      return;
    }
    if (!p.busy || failure.value().epoch != p.epoch) {
      discardStale(p, failure.value().epoch, "failure", out);
      return;
    }
    // A contained failure report proves the agent itself is healthy.
    failAssignment(p, failure.value().cause, failure.value().detail, out);
    p.upload.reset();
    p.strikes = 0;
  } else {
    breakPeer(p, garbage,
              "unexpected fleet frame type " + std::to_string(frame.type),
              out);
  }
}

void AgentPool::servicePeer(Peer& p, std::vector<Event>& out) {
  if (p.fd < 0) return;
  const ioretry::DrainOutcome dr = ioretry::drainNonblockingRaw(p.fd, &p.rx);
  const bool eof = dr.state == ioretry::DrainState::kEof;
  const int derr = dr.state == ioretry::DrainState::kError ? dr.err : 0;
  while (p.fd >= 0) {
    net::RecvOutcome o = net::takeFrame(&p.rx, eof, derr);
    if (o.status == net::RecvStatus::kFrame) {
      handleFrame(p, o.frame, out);
      continue;
    }
    if (o.status == net::RecvStatus::kTimeout) break;  // stream intact
    WorkerExitCause cause = WorkerExitCause::kConnReset;
    if (o.status == net::RecvStatus::kTruncated)
      cause = WorkerExitCause::kFrameTruncated;
    else if (o.status == net::RecvStatus::kGarbage)
      cause = WorkerExitCause::kGarbageIpc;
    breakPeer(p, workerExitCauseName(cause),
              o.detail.empty() ? workerExitCauseName(cause) : o.detail, out);
    break;
  }
}

std::vector<AgentPool::Event> AgentPool::poll() {
  std::vector<Event> out;
  out.swap(pending_);
  for (Peer& p : peers_) {
    if (p.answered) p.strikes = 0;
    p.answered = false;
  }
  for (Peer& p : peers_) servicePeer(p, out);

  // Lease enforcement: an assignment with no heartbeat inside its lease is
  // reclaimed and the peer struck. The connection is kept - the agent may
  // still deliver a now-stale answer, and discarding it by epoch is cheaper
  // than resynchronizing a torn stream - but the peer stops counting as
  // usable until it answers.
  const double now = clock_.seconds();
  const char* expired = workerExitCauseName(WorkerExitCause::kLeaseExpired);
  for (Peer& p : peers_) {
    if (!p.busy || now <= p.deadline) continue;
    failAssignment(p, expired, "no heartbeat within the lease", out);
    p.lagging = true;
    strike(p, expired, "no heartbeat within the lease", out);
  }
  return out;
}

void AgentPool::closeAll() {
  for (Peer& p : peers_) {
    failAssignment(p, workerExitCauseName(WorkerExitCause::kConnReset),
                   "fleet closed; assignment reclaimed", pending_);
    disconnect(p);
    p.dead = true;
  }
}

}  // namespace syseco
