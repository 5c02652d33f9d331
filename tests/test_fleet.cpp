// Fault-tolerant distributed worker fleet: the framed TCP transport's
// stream classification, the fleet codecs (task lease/epoch envelopes and
// the content-addressed case upload), the transport-independent retry
// backoff, and the supervisor's network failure taxonomy - scripted rogue
// peers inject each fault deterministically and every run must still end
// bit-identical to the local in-process run, with the fault classified,
// the retry accounted, and dead fleets degrading instead of aborting.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eco/fleet.hpp"
#include "eco/isolate.hpp"
#include "eco/syseco.hpp"
#include "gen/eco_case.hpp"
#include "io/journal_io.hpp"
#include "loopback_agent.hpp"
#include "util/crc32.hpp"
#include "util/io_retry.hpp"
#include "util/ipc.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"
#include "util/timer.hpp"

#ifndef SYSECO_SOURCE_DIR
#define SYSECO_SOURCE_DIR "."
#endif

namespace syseco {
namespace {

// --- Stream classification (net::takeFrame) -------------------------------

TEST(FleetTransport, TakeFrameExtractsFramesAndPreservesTheRest) {
  std::string buf = ipc::encodeFrame(ipc::kTypeFleetTask, "first") +
                    ipc::encodeFrame(ipc::kTypeFleetResult, "second");
  net::RecvOutcome one = net::takeFrame(&buf, /*eof=*/false);
  ASSERT_EQ(one.status, net::RecvStatus::kFrame);
  EXPECT_EQ(one.frame.type, ipc::kTypeFleetTask);
  EXPECT_EQ(one.frame.payload, "first");
  net::RecvOutcome two = net::takeFrame(&buf, /*eof=*/false);
  ASSERT_EQ(two.status, net::RecvStatus::kFrame);
  EXPECT_EQ(two.frame.payload, "second");
  EXPECT_EQ(net::takeFrame(&buf, /*eof=*/false).status,
            net::RecvStatus::kTimeout);
}

TEST(FleetTransport, CleanEofOnAFrameBoundaryIsClosed) {
  std::string buf;
  EXPECT_EQ(net::takeFrame(&buf, /*eof=*/true).status,
            net::RecvStatus::kClosed);
}

TEST(FleetTransport, EofMidFrameIsTruncatedNotGarbage) {
  const std::string full =
      ipc::encodeFrame(ipc::kTypeFleetResult, std::string(256, 'x'));
  std::string buf = full.substr(0, full.size() / 2);
  // The stream is intact while the peer might still send the rest...
  EXPECT_EQ(net::takeFrame(&buf, /*eof=*/false).status,
            net::RecvStatus::kTimeout);
  // ...and becomes a truncation the moment EOF proves it never will.
  EXPECT_EQ(net::takeFrame(&buf, /*eof=*/true).status,
            net::RecvStatus::kTruncated);
}

TEST(FleetTransport, NonFrameBytesAreGarbage) {
  std::string buf = "HTTP/1.1 200 OK\r\n\r\nthis was never a frame";
  EXPECT_EQ(net::takeFrame(&buf, /*eof=*/false).status,
            net::RecvStatus::kGarbage);
}

TEST(FleetTransport, DrainErrorIsATransportError) {
  std::string buf;
  net::RecvOutcome out = net::takeFrame(&buf, /*eof=*/false, ECONNRESET);
  EXPECT_EQ(out.status, net::RecvStatus::kError);
  EXPECT_NE(out.detail.find("errno"), std::string::npos);
}

TEST(FleetTransport, ParseHostPortAcceptsEndpointsAndRejectsJunk) {
  Result<std::pair<std::string, std::uint16_t>> hp =
      net::parseHostPort("127.0.0.1:8080");
  ASSERT_TRUE(hp.isOk());
  EXPECT_EQ(hp.value().first, "127.0.0.1");
  EXPECT_EQ(hp.value().second, 8080);
  EXPECT_FALSE(net::parseHostPort("").isOk());
  EXPECT_FALSE(net::parseHostPort("nohost").isOk());
  EXPECT_FALSE(net::parseHostPort(":9000").isOk());
  EXPECT_FALSE(net::parseHostPort("host:").isOk());
  EXPECT_FALSE(net::parseHostPort("host:0").isOk());
  EXPECT_FALSE(net::parseHostPort("host:70000").isOk());
  EXPECT_FALSE(net::parseHostPort("host:port").isOk());
}

// --- Fleet payload codecs -------------------------------------------------

TEST(FleetCodec, TaskRequestRoundtrips) {
  FleetTaskRequest req;
  req.output = 9;
  req.attempt = 2;
  req.epoch = 0xfeedfacecafeULL;
  req.leaseSeconds = 2.5;
  req.caseCrc = 0xdeadbeef;
  Result<FleetTaskRequest> back =
      decodeFleetTaskRequest(encodeFleetTaskRequest(req));
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  EXPECT_EQ(back.value().output, 9u);
  EXPECT_EQ(back.value().attempt, 2);
  EXPECT_EQ(back.value().epoch, 0xfeedfacecafeULL);
  EXPECT_DOUBLE_EQ(back.value().leaseSeconds, 2.5);
  EXPECT_EQ(back.value().caseCrc, 0xdeadbeefu);
  // An unlimited request carries no limits, and a governed one keeps them.
  EXPECT_EQ(back.value().limits.conflictBudget, 0);
  req.limits = ResourceGuard::Limits{0.25, 7, 9};
  back = decodeFleetTaskRequest(encodeFleetTaskRequest(req));
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  EXPECT_DOUBLE_EQ(back.value().limits.deadlineSeconds, 0.25);
  EXPECT_EQ(back.value().limits.conflictBudget, 7);
  EXPECT_EQ(back.value().limits.bddNodeBudget, 9);
}

TEST(FleetCodec, TaskRequestRejectsGarbage) {
  EXPECT_FALSE(decodeFleetTaskRequest("").isOk());
  EXPECT_FALSE(decodeFleetTaskRequest("not json").isOk());
  EXPECT_FALSE(decodeFleetTaskRequest("{\"output\":1}").isOk());
  FleetTaskRequest req;
  std::string negative = encodeFleetTaskRequest(req);
  negative.insert(negative.size() - 1, ",\"conflict_budget\":-5");
  EXPECT_FALSE(decodeFleetTaskRequest(negative).isOk());
}

TEST(FleetCodec, NeedCaseAndHeartbeatRoundtrip) {
  Result<std::uint32_t> crc = decodeFleetNeedCase(encodeFleetNeedCase(77));
  ASSERT_TRUE(crc.isOk());
  EXPECT_EQ(crc.value(), 77u);
  Result<std::uint64_t> ep =
      decodeFleetHeartbeat(encodeFleetHeartbeat(0x1234567890abcdefULL));
  ASSERT_TRUE(ep.isOk());
  EXPECT_EQ(ep.value(), 0x1234567890abcdefULL);
  EXPECT_FALSE(decodeFleetNeedCase("junk").isOk());
  EXPECT_FALSE(decodeFleetHeartbeat("junk").isOk());
}

/// Two-output base: o = a AND b, p = a OR b.
Netlist resultBase() {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("b");
  nl.addOutput("o", nl.addGate(GateType::And, {a, b}));
  nl.addOutput("p", nl.addGate(GateType::Or, {a, b}));
  return nl;
}

TEST(FleetCodec, ResultEnvelopeCarriesTheEpochAndDecodesAsAPatch) {
  const Netlist base = resultBase();
  WorkerPatch p;
  p.produced = true;
  p.baseGates = base.numGatesTotal();
  p.baseNets = base.numNetsTotal();
  p.gates.push_back(
      WorkerPatch::NewGate{GateType::Xor, {0, 1}, static_cast<NetId>(p.baseNets)});
  PatchTracker::RewireRecord rw;
  rw.sink = Sink{kNullId, 0};
  rw.oldNet = base.outputNet(0);
  rw.newNet = static_cast<NetId>(p.baseNets);
  p.rewires.push_back(rw);
  OutputReport rep;
  rep.output = 0;
  rep.name = base.outputName(0);
  rep.status = OutputRectStatus::kExact;
  p.frag.outputs.push_back(rep);

  const std::string payload = encodeFleetResult(41, p);
  Result<std::uint64_t> ep = peekFleetEpoch(payload);
  ASSERT_TRUE(ep.isOk());
  EXPECT_EQ(ep.value(), 41u);
  // The same payload is a plain WorkerPatch document to the patch decoder.
  Result<WorkerPatch> back = decodeWorkerPatch(payload, base);
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  EXPECT_TRUE(back.value().produced);
  ASSERT_EQ(back.value().gates.size(), 1u);
  EXPECT_EQ(back.value().gates[0].type, GateType::Xor);
  EXPECT_FALSE(peekFleetEpoch("garbage").isOk());
  EXPECT_FALSE(peekFleetEpoch("{\"produced\":true}").isOk());
}

TEST(FleetCodec, FailureRoundtripsAndRejectsUnknownCauses) {
  FleetFailure f;
  f.epoch = 3;
  f.cause = workerExitCauseName(WorkerExitCause::kOom);
  f.detail = "allocation failed";
  Result<FleetFailure> back = decodeFleetFailure(encodeFleetFailure(f));
  ASSERT_TRUE(back.isOk());
  EXPECT_EQ(back.value().epoch, 3u);
  EXPECT_EQ(back.value().cause, "oom");
  EXPECT_EQ(back.value().detail, "allocation failed");
  EXPECT_FALSE(decodeFleetFailure("junk").isOk());
  EXPECT_FALSE(
      decodeFleetFailure(
          "{\"epoch\":\"1\",\"cause\":\"martians\",\"detail\":\"\"}")
          .isOk());
}

TEST(FleetCodec, CaseRoundtripsNetlistsOptionsAndProtectList) {
  const Netlist base = resultBase();
  Netlist spec;
  const NetId a = spec.addInput("a");
  const NetId b = spec.addInput("b");
  spec.addOutput("o", spec.addGate(GateType::Nand, {a, b}));
  spec.addOutput("p", spec.addGate(GateType::Or, {a, b}));
  SysecoOptions opt;
  opt.seed = 1234;
  const std::vector<std::uint32_t> protect = {1, 0};

  Result<FleetCase> back =
      decodeFleetCase(encodeFleetCase(base, spec, opt, protect));
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  EXPECT_EQ(back.value().base.dumpRawString(), base.dumpRawString());
  EXPECT_EQ(back.value().spec.dumpRawString(), spec.dumpRawString());
  EXPECT_EQ(back.value().options.seed, 1234u);
  EXPECT_EQ(back.value().protect, protect);
}

TEST(FleetCodec, CaseRejectsCorruption) {
  const Netlist base = resultBase();
  EXPECT_FALSE(decodeFleetCase("").isOk());
  EXPECT_FALSE(decodeFleetCase("not json").isOk());
  // A protect entry past the base output count is semantic garbage.
  SysecoOptions opt;
  EXPECT_FALSE(
      decodeFleetCase(encodeFleetCase(base, base, opt, {99})).isOk());
}

// --- The agent's resident-case LRU ----------------------------------------

FleetCase cacheCase() {
  FleetCase c;
  c.base = resultBase();
  c.spec = resultBase();
  return c;
}

TEST(FleetCaseCache, EvictsLeastRecentlyUsedAndATouchRefreshes) {
  CaseCacheLru cache(2);
  EXPECT_EQ(cache.slots(), 2u);
  EXPECT_EQ(cache.find(1), nullptr);

  ASSERT_NE(cache.insert(1, cacheCase()), nullptr);
  ASSERT_NE(cache.insert(2, cacheCase()), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.keysMruFirst(), (std::vector<std::uint32_t>{2, 1}));

  // A hit moves its entry to the front, so the *other* key is now the
  // eviction victim.
  CaseCacheLru::Entry* hit = cache.find(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->crc, 1u);
  EXPECT_NE(hit->baseAnalysis, nullptr);
  EXPECT_NE(hit->specAnalysis, nullptr);
  EXPECT_EQ(cache.keysMruFirst(), (std::vector<std::uint32_t>{1, 2}));

  ASSERT_NE(cache.insert(3, cacheCase()), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.keysMruFirst(), (std::vector<std::uint32_t>{3, 1}));
  EXPECT_EQ(cache.find(2), nullptr) << "LRU key must have been evicted";

  // Re-uploading a resident key refreshes in place instead of evicting an
  // innocent bystander.
  ASSERT_NE(cache.insert(1, cacheCase()), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.keysMruFirst(), (std::vector<std::uint32_t>{1, 3}));
}

TEST(FleetCaseCache, ZeroSlotsClampsToOne) {
  CaseCacheLru cache(0);
  EXPECT_EQ(cache.slots(), 1u);
  ASSERT_NE(cache.insert(7, cacheCase()), nullptr);
  ASSERT_NE(cache.insert(8, cacheCase()), nullptr);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.keysMruFirst(), (std::vector<std::uint32_t>{8}));
}

// --- Transport-independent retry backoff ----------------------------------

double backoffBaseSeconds(const SysecoOptions& opt, int failedAttempts) {
  const int shift = std::min(failedAttempts - 1, 10);
  return std::min(opt.isolateBackoffMs * static_cast<double>(1u << shift),
                  5000.0) /
         1000.0;
}

TEST(FleetBackoff, JitterFractionIsAttemptInvariant) {
  SysecoOptions opt;
  opt.seed = 7;
  opt.isolateBackoffMs = 100.0;
  for (std::uint32_t o : {0u, 5u, 99u}) {
    const double frac0 =
        retryBackoffSeconds(opt, o, 1) / backoffBaseSeconds(opt, 1);
    for (int attempt = 2; attempt <= 12; ++attempt) {
      EXPECT_NEAR(
          retryBackoffSeconds(opt, o, attempt) /
              backoffBaseSeconds(opt, attempt),
          frac0, 1e-9)
          << "output " << o << " attempt " << attempt;
    }
  }
}

TEST(FleetBackoff, ScheduleIgnoresTheTransportConfiguration) {
  SysecoOptions pipes;
  pipes.seed = 42;
  pipes.isolate = true;
  SysecoOptions fleet = pipes;
  fleet.isolate = false;
  fleet.workers = {"10.0.0.1:9000", "10.0.0.2:9000"};
  fleet.fleetLeaseSeconds = 0.25;
  fleet.fleetMinWorkers = 2;
  fleet.fleetConnectTimeoutMs = 123;
  for (std::uint32_t o = 0; o < 32; ++o)
    for (int attempt = 1; attempt <= 6; ++attempt)
      EXPECT_DOUBLE_EQ(retryBackoffSeconds(pipes, o, attempt),
                       retryBackoffSeconds(fleet, o, attempt));
}

TEST(FleetBackoff, JitterVariesWithSeedAndOutputAndStaysBounded) {
  SysecoOptions a;
  a.seed = 1;
  SysecoOptions b;
  b.seed = 2;
  bool seedMatters = false;
  bool outputMatters = false;
  for (std::uint32_t o = 0; o < 64; ++o) {
    const double va = retryBackoffSeconds(a, o, 1);
    EXPECT_GE(va, backoffBaseSeconds(a, 1));
    EXPECT_LE(va, 1.5 * backoffBaseSeconds(a, 1));
    if (va != retryBackoffSeconds(b, o, 1)) seedMatters = true;
    if (va != retryBackoffSeconds(a, o + 64, 1)) outputMatters = true;
  }
  EXPECT_TRUE(seedMatters);
  EXPECT_TRUE(outputMatters);
  // The exponential base caps at 5 s however many attempts failed.
  EXPECT_LE(retryBackoffSeconds(a, 0, 1000), 7.5);
}

// --- Engine-level fleet runs against scripted peers -----------------------

EcoCase fleetEcoCase(std::uint64_t seed) {
  CaseRecipe r;
  r.name = "fleet" + std::to_string(seed);
  r.spec = SpecParams{3, 6, 3, 2, 5, 4, 3, 3};
  r.mutations = 3;
  r.targetRevisedFraction = 0.3;
  r.optRounds = 2;
  r.seed = seed;
  return makeCase(r);
}

struct CapturedRun {
  EcoResult result;
  SysecoDiagnostics diag;
  std::string dump;
};

struct FleetOutcome {
  CapturedRun run;
  std::vector<FleetEvent> events;
};

CapturedRun runLocalCase(const EcoCase& c, std::int64_t conflictBudget = 0) {
  CapturedRun run;
  SysecoOptions opt;
  opt.jobs = 1;
  opt.totalConflictBudget = conflictBudget;
  run.result = runSyseco(c.impl, c.spec, opt, &run.diag);
  run.dump = run.result.rectified.dumpRawString();
  return run;
}

FleetOutcome runFleetCase(const EcoCase& c, std::vector<std::string> workers,
                          double leaseSeconds, double backoffMs,
                          std::int64_t conflictBudget = 0) {
  FleetOutcome out;
  SysecoOptions opt;
  opt.workers = std::move(workers);
  opt.totalConflictBudget = conflictBudget;
  opt.fleetLeaseSeconds = leaseSeconds;
  opt.isolateBackoffMs = backoffMs;
  opt.fleetConnectTimeoutMs = 500;
  // The hook runs on the supervisor thread; no synchronization needed.
  opt.fleetEventHook = [&](const FleetEvent& e) { out.events.push_back(e); };
  out.run.result = runSyseco(c.impl, c.spec, opt, &out.run.diag);
  out.run.dump = out.run.result.rectified.dumpRawString();
  return out;
}

/// Full bit-identity minus the worker-retry accounting (which by design
/// records what the faults cost).
void expectSameRectification(const CapturedRun& a, const CapturedRun& b) {
  ASSERT_TRUE(a.result.success);
  ASSERT_TRUE(b.result.success);
  EXPECT_EQ(a.dump, b.dump);
  EXPECT_EQ(a.result.stats.gates, b.result.stats.gates);
  EXPECT_EQ(a.result.stats.nets, b.result.stats.nets);
  ASSERT_EQ(a.diag.outputs.size(), b.diag.outputs.size());
  for (std::size_t i = 0; i < a.diag.outputs.size(); ++i) {
    const OutputReport& x = a.diag.outputs[i];
    const OutputReport& y = b.diag.outputs[i];
    EXPECT_EQ(x.output, y.output) << "report " << i;
    EXPECT_EQ(x.name, y.name) << "report " << i;
    EXPECT_EQ(x.status, y.status) << "report " << i;
    EXPECT_EQ(x.limit, y.limit) << "report " << i;
    EXPECT_EQ(x.conflictsUsed, y.conflictsUsed) << "report " << i;
    EXPECT_EQ(x.bddNodesUsed, y.bddNodesUsed) << "report " << i;
    EXPECT_EQ(x.degradeSteps, y.degradeSteps) << "report " << i;
  }
  EXPECT_EQ(a.diag.conflictsUsed, b.diag.conflictsUsed);
  EXPECT_EQ(a.diag.bddNodesUsed, b.diag.bddNodesUsed);
  EXPECT_EQ(a.diag.outputsRectified, b.diag.outputsRectified);
  EXPECT_EQ(a.diag.outputsViaFallback, b.diag.outputsViaFallback);
}

bool hasEvent(const std::vector<FleetEvent>& events, const std::string& kind) {
  for (const FleetEvent& e : events)
    if (e.kind == kind) return true;
  return false;
}

/// Asserts exactly one output paid exactly one failed attempt with `cause`
/// (the scripted rogue peer's single sabotage), everything else clean.
void expectOneFailedAttempt(const SysecoDiagnostics& diag,
                            WorkerExitCause cause) {
  int hits = 0;
  for (const OutputReport& r : diag.outputs) {
    if (r.workerFailedAttempts == 0) {
      EXPECT_EQ(r.workerExitCause, WorkerExitCause::kNone) << r.output;
      continue;
    }
    ++hits;
    EXPECT_EQ(r.workerFailedAttempts, 1) << "output " << r.output;
    EXPECT_EQ(r.workerExitCause, cause) << "output " << r.output;
  }
  EXPECT_EQ(hits, 1);
}

TEST(FleetEngine, CleanFleetRunIsBitIdenticalToTheLocalRun) {
  const EcoCase c = fleetEcoCase(11);
  LoopbackAgent a1, a2;
  a1.start();
  a2.start();
  const FleetOutcome fleet =
      runFleetCase(c, {a1.spec(), a2.spec()}, 10.0, 1.0);
  const CapturedRun local = runLocalCase(c);
  expectSameRectification(local, fleet.run);
  for (const OutputReport& r : fleet.run.diag.outputs) {
    EXPECT_EQ(r.workerFailedAttempts, 0) << r.output;
    EXPECT_EQ(r.workerExitCause, WorkerExitCause::kNone) << r.output;
  }
  // Nothing but case uploads on a healthy fleet.
  for (const FleetEvent& e : fleet.events) EXPECT_EQ(e.kind, "case-upload");
}

TEST(FleetEngine, BudgetGovernedFleetRunIsBitIdenticalToTheLocalRun) {
  // Each task's resource slice travels in its request, so a run governed
  // by a conflict budget binds it the same way on an agent as in process.
  const EcoCase c = fleetEcoCase(11);
  LoopbackAgent agent;
  agent.start();
  const std::int64_t budget = 4000;
  const CapturedRun local = runLocalCase(c, budget);
  ASSERT_TRUE(local.diag.resourceDegraded()) << "the budget must bind";
  const FleetOutcome fleet = runFleetCase(c, {agent.spec()}, 10.0, 1.0, budget);
  expectSameRectification(local, fleet.run);
}

TEST(FleetEngine, ConnectionResetConsumesOneAttemptAndTheRunRecovers) {
  const EcoCase c = fleetEcoCase(11);
  RoguePeer rogue;
  rogue.start([](RoguePeer& self, int& fd, std::string& rx) {
    // Take the task, then vanish between request and result.
    (void)self.readFrame(fd, rx);
    net::closeSocket(fd);
    self.closeListener();
  });
  LoopbackAgent good;
  good.start();
  const FleetOutcome fleet =
      runFleetCase(c, {rogue.spec(), good.spec()}, 10.0, 1.0);
  expectSameRectification(runLocalCase(c), fleet.run);
  expectOneFailedAttempt(fleet.run.diag, WorkerExitCause::kConnReset);
  EXPECT_TRUE(hasEvent(fleet.events, "conn-reset"));
  EXPECT_TRUE(hasEvent(fleet.events, "worker-dead"));
}

TEST(FleetEngine, TruncatedResultFrameClassifiesAsFrameTruncated) {
  const EcoCase c = fleetEcoCase(11);
  RoguePeer rogue;
  rogue.start([](RoguePeer& self, int& fd, std::string& rx) {
    (void)self.readFrame(fd, rx);
    // A valid frame header promising bytes that never arrive.
    const std::string full =
        ipc::encodeFrame(ipc::kTypeFleetResult, std::string(512, 'y'));
    (void)ioretry::writeAllRaw(
        fd, std::string_view(full).substr(0, full.size() / 2), true);
    net::closeSocket(fd);
    self.closeListener();
  });
  LoopbackAgent good;
  good.start();
  const FleetOutcome fleet =
      runFleetCase(c, {rogue.spec(), good.spec()}, 10.0, 1.0);
  expectSameRectification(runLocalCase(c), fleet.run);
  expectOneFailedAttempt(fleet.run.diag, WorkerExitCause::kFrameTruncated);
  EXPECT_TRUE(hasEvent(fleet.events, "frame-truncated"));
}

TEST(FleetEngine, SilentWorkerLosesItsLeaseAndTheTaskMovesOn) {
  const EcoCase c = fleetEcoCase(11);
  RoguePeer rogue;
  rogue.start([](RoguePeer& self, int& fd, std::string& rx) {
    // Accept the task, then neither heartbeat nor answer nor hang up.
    (void)self.readFrame(fd, rx);
    self.sleepMs(60000);
  });
  LoopbackAgent good;
  good.start();
  const FleetOutcome fleet =
      runFleetCase(c, {rogue.spec(), good.spec()}, /*lease=*/0.4, 1.0);
  expectSameRectification(runLocalCase(c), fleet.run);
  expectOneFailedAttempt(fleet.run.diag, WorkerExitCause::kLeaseExpired);
  EXPECT_TRUE(hasEvent(fleet.events, "lease-expired"));
  EXPECT_FALSE(hasEvent(fleet.events, "stale-epoch"));
}

TEST(FleetEngine, LateDuplicateResultIsDiscardedByEpoch) {
  const EcoCase c = fleetEcoCase(11);
  RoguePeer rogue;
  rogue.start([](RoguePeer& self, int& fd, std::string& rx) {
    std::optional<ipc::Frame> task = self.readFrame(fd, rx);
    if (!task || task->type != ipc::kTypeFleetTask) return;
    Result<FleetTaskRequest> req = decodeFleetTaskRequest(task->payload);
    if (!req.isOk()) return;
    // Outlive the lease in silence, then deliver the reclaimed
    // assignment's result anyway: a well-formed envelope whose epoch the
    // supervisor must recognize as superseded and discard.
    self.sleepMs(1200);
    WorkerPatch dummy;
    (void)net::sendFrame(fd, ipc::kTypeFleetResult,
                         encodeFleetResult(req.value().epoch, dummy));
    net::closeSocket(fd);
    self.closeListener();
  });
  LoopbackAgent good;
  good.start();
  // A long backoff holds the reclaimed task pending, so the run is
  // guaranteed to still be in flight when the duplicate lands.
  const FleetOutcome fleet = runFleetCase(c, {rogue.spec(), good.spec()},
                                          /*lease=*/0.4, /*backoffMs=*/2500.0);
  expectSameRectification(runLocalCase(c), fleet.run);
  expectOneFailedAttempt(fleet.run.diag, WorkerExitCause::kLeaseExpired);
  EXPECT_TRUE(hasEvent(fleet.events, "lease-expired"));
  EXPECT_TRUE(hasEvent(fleet.events, "stale-epoch"));
}

TEST(FleetEngine, FleetLossDegradesToInProcessExecution) {
  const EcoCase c = fleetEcoCase(11);
  // Two endpoints that refuse every connect: bind-and-release ephemeral
  // ports so nothing is listening there.
  std::uint16_t p1 = 0, p2 = 0;
  {
    Result<int> l1 = net::listenOn(0, &p1);
    Result<int> l2 = net::listenOn(0, &p2);
    ASSERT_TRUE(l1.isOk() && l2.isOk());
    int f1 = l1.take(), f2 = l2.take();
    net::closeSocket(f1);
    net::closeSocket(f2);
  }
  const FleetOutcome fleet = runFleetCase(
      c,
      {"127.0.0.1:" + std::to_string(p1), "127.0.0.1:" + std::to_string(p2)},
      10.0, 1.0);
  expectSameRectification(runLocalCase(c), fleet.run);
  // Connect refusals are the peers' failures, not the tasks': the degraded
  // run must not charge any output a retry attempt.
  for (const OutputReport& r : fleet.run.diag.outputs)
    EXPECT_EQ(r.workerFailedAttempts, 0) << r.output;
  EXPECT_TRUE(hasEvent(fleet.events, "conn-refused"));
  EXPECT_TRUE(hasEvent(fleet.events, "worker-dead"));
  EXPECT_TRUE(hasEvent(fleet.events, "fleet-degraded"));
}

TEST(FleetEngine, LeaseExpiryThenDisconnectMarksTheWorkerDead) {
  const EcoCase c = fleetEcoCase(11);
  RoguePeer rogue;
  rogue.start([](RoguePeer& self, int& fd, std::string& rx) {
    // Lose the lease in silence (one strike), then hang up (the second).
    (void)self.readFrame(fd, rx);
    self.sleepMs(1000);
    net::closeSocket(fd);
    self.closeListener();
  });
  LoopbackAgent good;
  good.start();
  // A long backoff holds the reclaimed task pending, so the run is still
  // in flight when the rogue hangs up.
  const FleetOutcome fleet = runFleetCase(c, {rogue.spec(), good.spec()},
                                          /*lease=*/0.4, /*backoffMs=*/2500.0);
  expectSameRectification(runLocalCase(c), fleet.run);
  expectOneFailedAttempt(fleet.run.diag, WorkerExitCause::kLeaseExpired);
  EXPECT_TRUE(hasEvent(fleet.events, "lease-expired"));
  // The hang-up itself is the second strike - not a later refused
  // reconnect.
  bool deadOnHangUp = false;
  for (std::size_t i = 1; i < fleet.events.size(); ++i)
    if (fleet.events[i].kind == "worker-dead" &&
        fleet.events[i].worker == rogue.spec())
      deadOnHangUp = fleet.events[i - 1].kind == "conn-reset" &&
                     fleet.events[i - 1].worker == rogue.spec();
  EXPECT_TRUE(deadOnHangUp);
}

// --- The shared agent client (AgentPool) against scripted peers -----------
//
// Every sabotage runs against both assignment kinds: per-output tasks (the
// engine's --workers fleet) and whole-case tasks (--batch / --serve).

const std::uint32_t kTaskTypes[] = {ipc::kTypeFleetTask,
                                    ipc::kTypeFleetCaseTask};

std::uint32_t resultTypeFor(std::uint32_t taskType) {
  return taskType == ipc::kTypeFleetTask ? ipc::kTypeFleetResult
                                         : ipc::kTypeFleetCaseResult;
}

/// The epoch a task frame carries, whichever kind it is (0 if garbled).
std::uint64_t taskEpoch(const ipc::Frame& task) {
  if (task.type == ipc::kTypeFleetTask) {
    Result<FleetTaskRequest> r = decodeFleetTaskRequest(task.payload);
    return r.isOk() ? r.value().epoch : 0;
  }
  Result<FleetCaseTask> r = decodeFleetCaseTask(task.payload);
  return r.isOk() ? r.value().epoch : 0;
}

/// A well-formed result payload of the task kind, stamped with `epoch`.
std::string resultPayload(std::uint32_t taskType, std::uint64_t epoch) {
  if (taskType == ipc::kTypeFleetTask)
    return encodeFleetResult(epoch, WorkerPatch{});
  FleetCaseResult res;
  res.epoch = epoch;
  return encodeFleetCaseResult(res);
}

AgentPool::Options poolOptions(std::vector<std::string> workers,
                               double leaseSeconds) {
  AgentPool::Options o;
  o.workers = std::move(workers);
  o.leaseSeconds = leaseSeconds;
  o.connectTimeoutMs = 500;
  return o;
}

/// Assigns one task of `taskType`, labelled "t1".
Result<AgentPool::Assignment> assignOne(AgentPool& pool,
                                        std::uint32_t taskType) {
  const auto upload = std::make_shared<const AgentPool::Case>("case");
  return pool.assign(
      "t1", taskType,
      [&](std::uint64_t epoch) {
        if (taskType == ipc::kTypeFleetTask) {
          FleetTaskRequest req;
          req.epoch = epoch;
          req.caseCrc = upload->crc;
          return encodeFleetTaskRequest(req);
        }
        FleetCaseTask task;
        task.name = "t1";
        task.epoch = epoch;
        task.caseCrc = upload->crc;
        return encodeFleetCaseTask(task);
      },
      upload);
}

using Events = std::vector<AgentPool::Event>;

const AgentPool::Event* findEvent(const Events& events,
                                  AgentPool::EventKind kind) {
  for (const AgentPool::Event& e : events)
    if (e.kind == kind) return &e;
  return nullptr;
}

/// Polls the pool until an event of `kind` arrives (or `seconds` pass) and
/// returns everything seen.
Events pollFor(AgentPool& pool, AgentPool::EventKind kind,
               double seconds = 5.0) {
  Events seen;
  for (Timer t; t.seconds() < seconds;) {
    subprocess::pollReadable(pool.pollFds(), 20);
    for (AgentPool::Event& e : pool.poll()) seen.push_back(std::move(e));
    if (findEvent(seen, kind)) break;
  }
  return seen;
}

TEST(AgentPool, SilentPeerLosesItsLeaseButKeepsItsConnection) {
  for (const std::uint32_t type : kTaskTypes) {
    SCOPED_TRACE(type);
    RoguePeer rogue;
    rogue.start([](RoguePeer& self, int& fd, std::string& rx) {
      (void)self.readFrame(fd, rx);
      self.sleepMs(60000);
    });
    AgentPool pool(poolOptions({rogue.spec()}, 0.3));
    ASSERT_TRUE(assignOne(pool, type).isOk());
    const Events seen = pollFor(pool, AgentPool::EventKind::kFailure);
    const AgentPool::Event* failure =
        findEvent(seen, AgentPool::EventKind::kFailure);
    ASSERT_NE(failure, nullptr);
    EXPECT_EQ(failure->cause, "lease-expired");
    EXPECT_EQ(failure->name, "t1");
    EXPECT_EQ(findEvent(seen, AgentPool::EventKind::kDead), nullptr);
    // One strike: lagging, out of the usable count, still connected.
    EXPECT_EQ(pool.usableWorkers(), 0u);
    EXPECT_FALSE(pool.hasIdlePeer());
    EXPECT_EQ(pool.pollFds().size(), 1u);
  }
}

TEST(AgentPool, LateDuplicateIsDiscardedByEpochAndThePeerRejoins) {
  for (const std::uint32_t type : kTaskTypes) {
    SCOPED_TRACE(type);
    RoguePeer rogue;
    rogue.start([type](RoguePeer& self, int& fd, std::string& rx) {
      std::optional<ipc::Frame> task = self.readFrame(fd, rx);
      if (!task) return;
      self.sleepMs(700);
      (void)net::sendFrame(fd, resultTypeFor(type),
                           resultPayload(type, taskEpoch(*task)));
      self.sleepMs(60000);
    });
    AgentPool pool(poolOptions({rogue.spec()}, 0.3));
    Result<AgentPool::Assignment> a = assignOne(pool, type);
    ASSERT_TRUE(a.isOk());
    const Events seen = pollFor(pool, AgentPool::EventKind::kStale);
    const AgentPool::Event* failure =
        findEvent(seen, AgentPool::EventKind::kFailure);
    ASSERT_NE(failure, nullptr);
    EXPECT_EQ(failure->cause, "lease-expired");
    const AgentPool::Event* stale =
        findEvent(seen, AgentPool::EventKind::kStale);
    ASSERT_NE(stale, nullptr);
    EXPECT_EQ(stale->epoch, a.value().epoch);
    EXPECT_EQ(stale->name, "t1");
    EXPECT_EQ(findEvent(seen, AgentPool::EventKind::kResult), nullptr);
    EXPECT_EQ(pool.usableWorkers(), 1u);
    EXPECT_TRUE(pool.hasIdlePeer());
  }
}

TEST(AgentPool, HalfFrameThenEofIsFrameTruncated) {
  for (const std::uint32_t type : kTaskTypes) {
    SCOPED_TRACE(type);
    RoguePeer rogue;
    rogue.start([type](RoguePeer& self, int& fd, std::string& rx) {
      (void)self.readFrame(fd, rx);
      const std::string full =
          ipc::encodeFrame(resultTypeFor(type), std::string(512, 'y'));
      (void)ioretry::writeAllRaw(
          fd, std::string_view(full).substr(0, full.size() / 2), true);
      net::closeSocket(fd);
    });
    AgentPool pool(poolOptions({rogue.spec()}, 10.0));
    ASSERT_TRUE(assignOne(pool, type).isOk());
    const Events seen = pollFor(pool, AgentPool::EventKind::kFailure);
    const AgentPool::Event* failure =
        findEvent(seen, AgentPool::EventKind::kFailure);
    ASSERT_NE(failure, nullptr);
    EXPECT_EQ(failure->cause, "frame-truncated");
    // One strike: the peer stays usable and reconnects lazily.
    EXPECT_EQ(findEvent(seen, AgentPool::EventKind::kDead), nullptr);
    EXPECT_EQ(pool.usableWorkers(), 1u);
  }
}

TEST(AgentPool, CorruptedFrameIsGarbageIpc) {
  for (const std::uint32_t type : kTaskTypes) {
    SCOPED_TRACE(type);
    RoguePeer rogue;
    rogue.start([type](RoguePeer& self, int& fd, std::string& rx) {
      std::optional<ipc::Frame> task = self.readFrame(fd, rx);
      if (!task) return;
      std::string garbled = ipc::encodeFrame(
          resultTypeFor(type), resultPayload(type, taskEpoch(*task)));
      garbled[garbled.size() / 2] =
          static_cast<char>(garbled[garbled.size() / 2] ^ 0x40);
      (void)ioretry::writeAllRaw(fd, garbled, true);
      self.sleepMs(60000);
    });
    AgentPool pool(poolOptions({rogue.spec()}, 10.0));
    ASSERT_TRUE(assignOne(pool, type).isOk());
    const Events seen = pollFor(pool, AgentPool::EventKind::kFailure);
    const AgentPool::Event* failure =
        findEvent(seen, AgentPool::EventKind::kFailure);
    ASSERT_NE(failure, nullptr);
    EXPECT_EQ(failure->cause, "garbage-ipc");
    EXPECT_EQ(findEvent(seen, AgentPool::EventKind::kResult), nullptr);
  }
}

TEST(AgentPool, RefusedConnectStrikesThePeerAndCostsNoAttempt) {
  // Bind-and-release an ephemeral port so nothing is listening there.
  std::uint16_t refusedPort = 0;
  {
    Result<int> l = net::listenOn(0, &refusedPort);
    ASSERT_TRUE(l.isOk());
    int fd = l.take();
    net::closeSocket(fd);
  }
  const std::string refused = "127.0.0.1:" + std::to_string(refusedPort);
  for (const std::uint32_t type : kTaskTypes) {
    SCOPED_TRACE(type);
    RoguePeer rogue;
    std::atomic<bool> gotTask{false};
    rogue.start([&gotTask](RoguePeer& self, int& fd, std::string& rx) {
      if (self.readFrame(fd, rx)) gotTask.store(true);
      self.sleepMs(60000);
    });
    AgentPool pool(poolOptions({refused, rogue.spec()}, 10.0));
    // The refusal strikes the first peer; the task lands on the second.
    Result<AgentPool::Assignment> a = assignOne(pool, type);
    ASSERT_TRUE(a.isOk());
    EXPECT_EQ(a.value().worker, rogue.spec());
    const Events seen = pool.poll();
    const AgentPool::Event* strike =
        findEvent(seen, AgentPool::EventKind::kStrike);
    ASSERT_NE(strike, nullptr);
    EXPECT_EQ(strike->worker, refused);
    EXPECT_EQ(strike->cause, "conn-refused");
    EXPECT_EQ(findEvent(seen, AgentPool::EventKind::kFailure), nullptr);
    for (Timer t; !gotTask.load() && t.seconds() < 5.0;)
      subprocess::pollReadable({}, 10);
    EXPECT_TRUE(gotTask.load());

    // A second refusal kills the peer; still no assignment failed.
    AgentPool lone(poolOptions({refused}, 10.0));
    EXPECT_FALSE(assignOne(lone, type).isOk());
    EXPECT_FALSE(assignOne(lone, type).isOk());
    const Events loneSeen = lone.poll();
    EXPECT_NE(findEvent(loneSeen, AgentPool::EventKind::kDead), nullptr);
    EXPECT_EQ(findEvent(loneSeen, AgentPool::EventKind::kFailure), nullptr);
    EXPECT_FALSE(lone.degraded().empty());
  }
}

TEST(AgentPool, LeaseExpiryThenDisconnectMarksThePeerDead) {
  for (const std::uint32_t type : kTaskTypes) {
    SCOPED_TRACE(type);
    RoguePeer rogue;
    rogue.start([](RoguePeer& self, int& fd, std::string& rx) {
      (void)self.readFrame(fd, rx);
      self.sleepMs(700);
      net::closeSocket(fd);
    });
    AgentPool pool(poolOptions({rogue.spec()}, 0.3));
    ASSERT_TRUE(assignOne(pool, type).isOk());
    const Events seen = pollFor(pool, AgentPool::EventKind::kDead);
    const AgentPool::Event* failure =
        findEvent(seen, AgentPool::EventKind::kFailure);
    ASSERT_NE(failure, nullptr);
    EXPECT_EQ(failure->cause, "lease-expired");
    const AgentPool::Event* dead = findEvent(seen, AgentPool::EventKind::kDead);
    ASSERT_NE(dead, nullptr);
    EXPECT_EQ(dead->cause, "conn-reset");
    EXPECT_FALSE(pool.degraded().empty());
  }
}

TEST(AgentPool, MalformedSpecIsDeadFromTheStartAndNeverConnected) {
  RoguePeer rogue;
  rogue.start([](RoguePeer& self, int& fd, std::string& rx) {
    (void)self.readFrame(fd, rx);
    self.sleepMs(60000);
  });
  AgentPool pool(poolOptions({"not-an-endpoint", rogue.spec()}, 10.0));
  EXPECT_EQ(pool.usableWorkers(), 1u);
  Result<AgentPool::Assignment> a = assignOne(pool, ipc::kTypeFleetTask);
  ASSERT_TRUE(a.isOk());
  EXPECT_EQ(a.value().worker, rogue.spec());
  const Events seen = pool.poll();
  ASSERT_EQ(seen.size(), 1u) << "only the birth notice, no connect attempt";
  EXPECT_EQ(seen[0].kind, AgentPool::EventKind::kDead);
  EXPECT_EQ(seen[0].worker, "not-an-endpoint");
  EXPECT_EQ(seen[0].cause, "conn-refused");
}

TEST(AgentPool, NeedCaseIsAnsweredAndTheLiveResultComesBackRaw) {
  for (const std::uint32_t type : kTaskTypes) {
    SCOPED_TRACE(type);
    std::atomic<bool> uploaded{false};
    RoguePeer rogue;
    rogue.start([type, &uploaded](RoguePeer& self, int& fd, std::string& rx) {
      std::optional<ipc::Frame> task = self.readFrame(fd, rx);
      if (!task) return;
      (void)net::sendFrame(fd, ipc::kTypeFleetNeedCase,
                           encodeFleetNeedCase(crc32("case")));
      std::optional<ipc::Frame> upload = self.readFrame(fd, rx);
      uploaded.store(upload && upload->type == ipc::kTypeFleetCase &&
                     upload->payload == "case");
      (void)net::sendFrame(fd, resultTypeFor(type),
                           resultPayload(type, taskEpoch(*task)));
      self.sleepMs(60000);
    });
    AgentPool pool(poolOptions({rogue.spec()}, 10.0));
    ASSERT_TRUE(assignOne(pool, type).isOk());
    const Events seen = pollFor(pool, AgentPool::EventKind::kResult);
    EXPECT_NE(findEvent(seen, AgentPool::EventKind::kUpload), nullptr);
    const AgentPool::Event* result =
        findEvent(seen, AgentPool::EventKind::kResult);
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->name, "t1");
    EXPECT_EQ(peekFleetEpoch(result->payload).value(), result->epoch);
    EXPECT_TRUE(uploaded.load());
    EXPECT_TRUE(pool.hasIdlePeer());
  }
}

TEST(FleetOptions, InvalidFleetKnobsAreRejectedNotUndefined) {
  const EcoCase c = fleetEcoCase(11);
  const auto rejects = [&](const SysecoOptions& opt, const char* what) {
    EXPECT_FALSE(runSysecoChecked(c.impl, c.spec, opt).isOk()) << what;
  };
  SysecoOptions opt;
  opt.workers = {"127.0.0.1:9000"};
  opt.isolate = true;
  rejects(opt, "workers and isolate together");
  opt.isolate = false;
  opt.workers = {"nonsense"};
  rejects(opt, "unparseable endpoint");
  opt.workers = {"127.0.0.1:9000"};
  opt.fleetLeaseSeconds = 0.0;
  rejects(opt, "zero lease");
  opt.fleetLeaseSeconds = 10.0;
  opt.fleetConnectTimeoutMs = 0;
  rejects(opt, "zero connect timeout");
  opt.fleetConnectTimeoutMs = 2000;
  opt.fleetMinWorkers = 0;
  rejects(opt, "zero min workers");
}

// --- End-to-end through the CLI binary ------------------------------------

#ifdef SYSECO_CLI_BIN

class FleetCliTest : public ::testing::Test {
 protected:
  static std::string dataPath(const char* name) {
    return std::string(SYSECO_SOURCE_DIR) + "/data/" + name;
  }

  static std::string testDir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "syseco_fleet_" + name;
    const std::string cmd = "rm -rf '" + dir + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
    return dir;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
  }

  static int runCli(const std::string& env, const std::string& args,
                    const std::string& logPath) {
    const std::string cmd = env + (env.empty() ? "" : " ") + SYSECO_CLI_BIN +
                            " " + args + " > '" + logPath + "' 2>&1";
    const int rc = std::system(cmd.c_str());
    if (rc == -1) return -1;
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : 128 + WTERMSIG(rc);
  }

  /// Starts a --serve-worker agent process; returns its pid and fills
  /// `port` from the agent's --port-file once it is listening.
  static pid_t spawnAgent(const std::string& dir, const std::string& tag,
                          const std::string& env, int* port) {
    const std::string portFile = dir + "/" + tag + ".port";
    const std::string pidFile = dir + "/" + tag + ".pid";
    const std::string cmd = "sh -c '" + env + (env.empty() ? "" : " ") +
                            SYSECO_CLI_BIN + " --serve-worker 0 --port-file " +
                            portFile + " > " + dir + "/" + tag +
                            ".log 2>&1 & echo $!' > " + pidFile;
    if (std::system(cmd.c_str()) != 0) return -1;
    for (int waited = 0; waited < 10000; waited += 50) {
      const std::string text = slurp(portFile);
      if (!text.empty() && text.back() == '\n') {
        *port = std::atoi(text.c_str());
        return static_cast<pid_t>(std::atol(slurp(pidFile).c_str()));
      }
      subprocess::pollReadable({}, 50);
    }
    return -1;
  }

  /// The last journaled verdicts record, raw bytes.
  static std::string lastVerdicts(const std::string& journalDir) {
    const std::string data = slurp(journalDir + "/journal.jsonl");
    const std::size_t at = data.rfind("{\"type\":\"verdicts\"");
    if (at == std::string::npos) return "";
    const std::size_t tail = data.find("\"disagreements\":", at);
    if (tail == std::string::npos) return "";
    const std::size_t end = data.find('}', tail);
    if (end == std::string::npos) return "";
    return data.substr(at, end - at + 1);
  }
};

TEST_F(FleetCliTest, VerdictRecordsMatchJobsRunEvenWithAFaultyAgent) {
  const std::string dir = testDir("verdicts");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  // Agent 1 truncates every result frame it ever sends; agent 2 is honest.
  int p1 = 0, p2 = 0;
  const pid_t a1 = spawnAgent(
      dir, "a1", "SYSECO_FAULT_INJECT=fleet.agent=net-truncate", &p1);
  const pid_t a2 = spawnAgent(dir, "a2", "", &p2);
  ASSERT_GT(a1, 0);
  ASSERT_GT(a2, 0);

  const std::string pair = "--impl " + dataPath("alu_impl.blif") + " --spec " +
                           dataPath("alu_spec.blif");
  const int fleetRc =
      runCli("", pair + " --workers 127.0.0.1:" + std::to_string(p1) +
                     ",127.0.0.1:" + std::to_string(p2) + " --journal " + dir +
                     "/jf --out " + dir + "/fleet.blif",
             dir + "/fleet.log");
  const int localRc = runCli("", pair + " --jobs 2 --journal " + dir +
                                     "/jl --out " + dir + "/local.blif",
                             dir + "/local.log");
  ::kill(a1, SIGKILL);
  ::kill(a2, SIGKILL);
  ASSERT_EQ(fleetRc, 0) << slurp(dir + "/fleet.log");
  ASSERT_EQ(localRc, 0) << slurp(dir + "/local.log");

  EXPECT_EQ(slurp(dir + "/fleet.blif"), slurp(dir + "/local.blif"));
  const std::string vf = lastVerdicts(dir + "/jf");
  ASSERT_FALSE(vf.empty());
  EXPECT_EQ(vf, lastVerdicts(dir + "/jl"));

  // The truncation was journaled as a structured fleet record and the
  // reader recovers it.
  Result<JournalContents> journal = readJournal(dir + "/jf");
  ASSERT_TRUE(journal.isOk()) << journal.status().toString();
  bool sawTruncated = false;
  for (const JournalFleetEvent& e : journal.value().fleetEvents)
    if (e.kind == "frame-truncated") sawTruncated = true;
  EXPECT_TRUE(sawTruncated);
  // The local run has no fleet and must journal no fleet records.
  Result<JournalContents> localJournal = readJournal(dir + "/jl");
  ASSERT_TRUE(localJournal.isOk());
  EXPECT_TRUE(localJournal.value().fleetEvents.empty());
}

#endif  // SYSECO_CLI_BIN

}  // namespace
}  // namespace syseco
