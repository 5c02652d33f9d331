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

/// Serves one task request end to end. Returns false when the connection
/// should be dropped afterwards.
bool serveTask(int fd, std::string& rx, const FleetTaskRequest& req,
               CaseCacheLru& cache, const FleetAgentOptions& opt) {
  if (opt.verbose)
    std::fprintf(stderr,
                 "[syseco-agent] task out=%u attempt=%lld epoch=%llu\n",
                 req.output, static_cast<long long>(req.attempt),
                 static_cast<unsigned long long>(req.epoch));
  CaseCacheLru::Entry* entry = ensureCase(fd, rx, req.caseCrc, cache, opt);
  if (entry == nullptr) return false;
  if (req.output >= entry->c.base.numOutputs())
    return sendFailure(fd, req.epoch, WorkerExitCause::kGarbageIpc,
                       "task output out of range");

  // Agent-side fault sites: "fleet.agent" hits every task; the per-output
  // variant pins the blast radius to one output in tests and CI. (kCrash
  // fires centrally inside fault::fire - std::_Exit(137).)
  bool suppressHeartbeats = false;
  const std::string persite = "fleet.agent.o" + std::to_string(req.output);
  const char* sites[2] = {"fleet.agent", persite.c_str()};
  for (const char* site : sites) {
    const auto kind = fault::fire(site);
    if (!kind) continue;
    switch (*kind) {
      case fault::Kind::kNetReset:
        // Drop the connection between request and result.
        return false;
      case fault::Kind::kNetTruncate: {
        // A complete header promising a payload that never fully arrives,
        // then EOF: the supervisor must classify frame-truncated, not
        // garbage-ipc (the prefix is a perfectly valid frame start).
        const std::string full =
            ipc::encodeFrame(ipc::kTypeFleetResult, std::string(256, 'x'));
        (void)ioretry::writeAllRaw(
            fd, std::string_view(full).substr(0, full.size() / 2), true);
        return false;
      }
      case fault::Kind::kHang:
        return hangUntilPeerCloses(fd, rx, opt);
      case fault::Kind::kGarbageIpc: {
        std::string garbled =
            ipc::encodeFrame(ipc::kTypeFleetResult, "{\"produced\":true}");
        garbled[garbled.size() / 2] =
            static_cast<char>(garbled[garbled.size() / 2] ^ 0x40);
        (void)ioretry::writeAllRaw(fd, garbled, true);
        return true;  // keep serving; the supervisor will drop us
      }
      case fault::Kind::kOom:
        return sendFailure(fd, req.epoch, WorkerExitCause::kOom,
                           "injected allocation failure");
      case fault::Kind::kNetDelay: {
        // Outlive the lease with no heartbeats, then answer anyway: the
        // supervisor must have reclaimed the task by then and must discard
        // this duplicate by epoch.
        const int totalMs =
            static_cast<int>(req.leaseSeconds * 1500.0) + 200;
        for (int waited = 0; waited < totalMs && !stopped(opt); waited += 100)
          subprocess::pollReadable({}, 100);
        suppressHeartbeats = true;
        break;
      }
      default:
        // Engine-internal kinds have no meaning at this site; report a
        // cleanly contained injection.
        return sendFailure(fd, req.epoch, WorkerExitCause::kFaultInjected,
                           "injected fault");
    }
    break;  // a fired fault is handled once
  }

  std::optional<Result<WorkerPatch>> outcome;
  const bool peerOpen = computeWithHeartbeats(
      fd, rx, req.epoch, req.leaseSeconds, suppressHeartbeats, [&] {
        outcome.emplace(runFleetTask(
            entry->c.base, entry->c.spec, entry->c.options, req.output,
            entry->c.protect, entry->baseAnalysis.get(),
            entry->specAnalysis.get()));
      });
  if (!peerOpen) return false;

  Result<WorkerPatch> r = std::move(*outcome);
  if (!r.isOk())
    return sendFailure(fd, req.epoch, workerExitCauseOf(r.status()),
                       r.status().message());
  const WorkerPatch patch = r.take();
  if (opt.verbose)
    std::fprintf(stderr, "[syseco-agent] out=%u done (produced=%d)\n",
                 req.output, patch.produced ? 1 : 0);
  return net::sendFrame(fd, ipc::kTypeFleetResult,
                        encodeFleetResult(req.epoch, patch))
      .isOk();
}

/// Serves one whole-case batch task end to end: runs the full engine on the
/// resident case (same seed and options, agent-local --jobs) and ships back
/// one envelope with the report, the verdicts record and the patched
/// netlist. Returns false when the connection should be dropped afterwards.
bool serveCaseTask(int fd, std::string& rx, const FleetCaseTask& req,
                   CaseCacheLru& cache, const FleetAgentOptions& opt) {
  if (opt.verbose)
    std::fprintf(stderr,
                 "[syseco-agent] case task name=%s jobs=%u attempt=%lld "
                 "epoch=%llu\n",
                 req.name.c_str(), req.jobs,
                 static_cast<long long>(req.attempt),
                 static_cast<unsigned long long>(req.epoch));
  CaseCacheLru::Entry* entry = ensureCase(fd, rx, req.caseCrc, cache, opt);
  if (entry == nullptr) return false;

  // Agent-side fault sites: "fleet.agent.case" hits every case task; the
  // named variant pins the blast radius to one case in tests and CI.
  bool suppressHeartbeats = false;
  const std::string persite = "fleet.agent.case." + req.name;
  const char* sites[2] = {"fleet.agent.case", persite.c_str()};
  for (const char* site : sites) {
    const auto kind = fault::fire(site);
    if (!kind) continue;
    switch (*kind) {
      case fault::Kind::kNetReset:
        return false;
      case fault::Kind::kNetTruncate: {
        const std::string full = ipc::encodeFrame(ipc::kTypeFleetCaseResult,
                                                  std::string(256, 'x'));
        (void)ioretry::writeAllRaw(
            fd, std::string_view(full).substr(0, full.size() / 2), true);
        return false;
      }
      case fault::Kind::kHang:
        return hangUntilPeerCloses(fd, rx, opt);
      case fault::Kind::kGarbageIpc: {
        std::string garbled = ipc::encodeFrame(ipc::kTypeFleetCaseResult,
                                               "{\"epoch\":\"0\"}");
        garbled[garbled.size() / 2] =
            static_cast<char>(garbled[garbled.size() / 2] ^ 0x40);
        (void)ioretry::writeAllRaw(fd, garbled, true);
        return true;  // keep serving; the supervisor will drop us
      }
      case fault::Kind::kOom:
        return sendFailure(fd, req.epoch, WorkerExitCause::kOom,
                           "injected allocation failure");
      case fault::Kind::kNetDelay: {
        // Outlive the lease with no heartbeats, then answer anyway: the
        // supervisor must have reclaimed the case by then and must discard
        // this duplicate by epoch.
        const int totalMs =
            static_cast<int>(req.leaseSeconds * 1500.0) + 200;
        for (int waited = 0; waited < totalMs && !stopped(opt); waited += 100)
          subprocess::pollReadable({}, 100);
        suppressHeartbeats = true;
        break;
      }
      default:
        return sendFailure(fd, req.epoch, WorkerExitCause::kFaultInjected,
                           "injected fault");
    }
    break;  // a fired fault is handled once
  }

  // The whole-case run is the exact function a local `--jobs N` CLI run
  // computes: the wire options carry only the deterministic search-shaping
  // fields, and `jobs` arrives with the task (bit-identity holds for every
  // jobs value).
  SysecoOptions wopt = entry->c.options;
  wopt.jobs = req.jobs;
  std::optional<Result<EcoResult>> outcome;
  SysecoDiagnostics diag;
  const bool peerOpen = computeWithHeartbeats(
      fd, rx, req.epoch, req.leaseSeconds, suppressHeartbeats, [&] {
        outcome.emplace(
            runSysecoChecked(entry->c.base, entry->c.spec, wopt, &diag));
      });
  if (!peerOpen) return false;

  Result<EcoResult> r = std::move(*outcome);
  if (!r.isOk())
    return sendFailure(fd, req.epoch, workerExitCauseOf(r.status()),
                       r.status().message());
  EcoResult result = r.take();
  FleetCaseResult res;
  res.epoch = req.epoch;
  res.exitCode =
      result.success ? (diag.resourceDegraded() ? 4 : 0) : 1;
  res.report = runReportText("syseco", result, diag, wopt.audit,
                             wopt.oracle.enabled, res.exitCode);
  if (wopt.oracle.enabled)
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
  return net::sendFrame(fd, ipc::kTypeFleetCaseResult,
                        encodeFleetCaseResult(res))
      .isOk();
}

void serveConnection(int fd, CaseCacheLru& cache,
                     const FleetAgentOptions& opt) {
  std::string rx;
  while (!stopped(opt)) {
    net::RecvOutcome out = net::recvFrame(fd, &rx, 200);
    if (out.status == net::RecvStatus::kTimeout) continue;
    if (out.status != net::RecvStatus::kFrame) return;
    if (out.frame.type == ipc::kTypeFleetTask) {
      Result<FleetTaskRequest> req =
          decodeFleetTaskRequest(out.frame.payload);
      if (!req.isOk()) return;
      if (!serveTask(fd, rx, req.value(), cache, opt)) return;
    } else if (out.frame.type == ipc::kTypeFleetCaseTask) {
      Result<FleetCaseTask> req = decodeFleetCaseTask(out.frame.payload);
      if (!req.isOk()) return;
      if (!serveCaseTask(fd, rx, req.value(), cache, opt)) return;
    } else {
      return;
    }
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

}  // namespace syseco
