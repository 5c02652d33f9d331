// Fault-contained subprocess isolation: the crc32 IPC framing, the
// untrusted WorkerPatch decoder, the fork/rlimit/reap primitives, the
// supervisor's failure taxonomy + retry/quarantine policy, and the headline
// guarantee - a clean `--isolate` run is bit-identical to the in-process
// `--jobs N` run, and an injected worker fault degrades exactly one output
// to the cone-clone fallback instead of taking the run down.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "already_fixed.hpp"
#include "eco/isolate.hpp"
#include "eco/syseco.hpp"
#include "gen/eco_case.hpp"
#include "io/blif_io.hpp"
#include "util/fault.hpp"
#include "util/ipc.hpp"
#include "util/subprocess.hpp"

#ifndef SYSECO_SOURCE_DIR
#define SYSECO_SOURCE_DIR "."
#endif

namespace syseco {
namespace {

// --- IPC framing ----------------------------------------------------------

TEST(IpcFrame, RoundtripsPayloads) {
  for (const std::string& payload :
       {std::string(), std::string("x"), std::string("{\"k\":1}"),
        std::string(100000, 'z')}) {
    const std::string bytes = ipc::encodeFrame(ipc::kTypeWorkerResult, payload);
    Result<ipc::Frame> frame = ipc::decodeFrame(bytes);
    ASSERT_TRUE(frame.isOk()) << frame.status().toString();
    EXPECT_EQ(frame.value().type, ipc::kTypeWorkerResult);
    EXPECT_EQ(frame.value().payload, payload);
  }
}

TEST(IpcFrame, RejectsEveryTruncation) {
  const std::string bytes = ipc::encodeFrame(ipc::kTypeTaskRequest, "payload");
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(ipc::decodeFrame(std::string_view(bytes).substr(0, n)).isOk())
        << "truncated to " << n << " bytes";
  }
}

TEST(IpcFrame, RejectsEverySingleBitFlip) {
  const std::string ref = ipc::encodeFrame(ipc::kTypeWorkerResult, "{\"a\":1}");
  for (std::size_t byte = 0; byte < ref.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = ref;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      Result<ipc::Frame> frame = ipc::decodeFrame(mutated);
      // Any surviving decode must at least carry an uncorrupted payload
      // (a flip confined to the type field can still checksum-validate).
      if (frame.isOk()) {
        EXPECT_EQ(frame.value().payload, "{\"a\":1}");
      }
    }
  }
}

TEST(IpcFrame, RejectsTrailingBytesAndOversizedLength) {
  std::string bytes = ipc::encodeFrame(ipc::kTypeWorkerResult, "p");
  EXPECT_FALSE(ipc::decodeFrame(bytes + "x").isOk());

  // Patch the length field (bytes 8..11) to a value past the cap: the
  // decoder must reject it without attempting the allocation.
  std::string huge = ipc::encodeFrame(ipc::kTypeWorkerResult, "p");
  huge[8] = '\xff';
  huge[9] = '\xff';
  huge[10] = '\xff';
  huge[11] = '\x7f';
  EXPECT_FALSE(ipc::decodeFrame(huge).isOk());
}

// --- Task-request payload -------------------------------------------------

TEST(IsolateCodec, TaskRequestRoundtrips) {
  IsolateTaskRequest req;
  req.output = 17;
  req.attempt = 3;
  Result<IsolateTaskRequest> back = decodeTaskRequest(encodeTaskRequest(req));
  ASSERT_TRUE(back.isOk());
  EXPECT_EQ(back.value().output, 17u);
  EXPECT_EQ(back.value().attempt, 3);
}

TEST(IsolateCodec, TaskRequestRejectsGarbage) {
  EXPECT_FALSE(decodeTaskRequest("").isOk());
  EXPECT_FALSE(decodeTaskRequest("not json").isOk());
  EXPECT_FALSE(decodeTaskRequest("{\"output\":-1,\"attempt\":1}").isOk());
  EXPECT_FALSE(decodeTaskRequest("{\"attempt\":1}").isOk());
}

// --- WorkerPatch payload --------------------------------------------------

/// Two-output base: o = a AND b, p = a OR b.
Netlist patchBase() {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("b");
  nl.addOutput("o", nl.addGate(GateType::And, {a, b}));
  nl.addOutput("p", nl.addGate(GateType::Or, {a, b}));
  return nl;
}

WorkerPatch producedPatch(const Netlist& base) {
  WorkerPatch p;
  p.produced = true;
  p.baseGates = base.numGatesTotal();
  p.baseNets = base.numNetsTotal();
  const NetId n0 = static_cast<NetId>(p.baseNets);
  p.gates.push_back(WorkerPatch::NewGate{GateType::Xor, {0, 1}, n0});
  p.gates.push_back(WorkerPatch::NewGate{GateType::Not, {n0}, n0 + 1});
  PatchTracker::RewireRecord rw;
  rw.sink = Sink{kNullId, 0};  // output 0 rewired to the new logic
  rw.oldNet = base.outputNet(0);
  rw.newNet = n0 + 1;
  p.rewires.push_back(rw);
  p.frag.outputsRectified = 1;
  p.frag.candidatesValidated = 5;
  p.frag.secondsValidation = 0.125;
  OutputReport rep;
  rep.output = 0;
  rep.name = base.outputName(0);
  rep.status = OutputRectStatus::kExact;
  rep.conflictsUsed = 42;
  rep.seconds = 0.25;
  p.frag.outputs.push_back(rep);
  return p;
}

TEST(IsolateCodec, WorkerPatchRoundtrips) {
  const Netlist base = patchBase();
  const WorkerPatch p = producedPatch(base);
  Result<WorkerPatch> back = decodeWorkerPatch(encodeWorkerPatch(p), base);
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  const WorkerPatch& q = back.value();
  EXPECT_TRUE(q.produced);
  EXPECT_EQ(q.baseGates, p.baseGates);
  EXPECT_EQ(q.baseNets, p.baseNets);
  ASSERT_EQ(q.gates.size(), 2u);
  EXPECT_EQ(q.gates[0].type, GateType::Xor);
  EXPECT_EQ(q.gates[0].fanins, p.gates[0].fanins);
  EXPECT_EQ(q.gates[1].out, p.gates[1].out);
  ASSERT_EQ(q.rewires.size(), 1u);
  EXPECT_EQ(q.rewires[0].oldNet, p.rewires[0].oldNet);
  EXPECT_EQ(q.rewires[0].newNet, p.rewires[0].newNet);
  EXPECT_EQ(q.frag.outputsRectified, 1u);
  EXPECT_EQ(q.frag.candidatesValidated, 5u);
  EXPECT_DOUBLE_EQ(q.frag.secondsValidation, 0.125);
  ASSERT_EQ(q.frag.outputs.size(), 1u);
  EXPECT_EQ(q.frag.outputs[0].name, base.outputName(0));
  EXPECT_EQ(q.frag.outputs[0].conflictsUsed, 42);
  EXPECT_DOUBLE_EQ(q.frag.outputs[0].seconds, 0.25);
}

TEST(IsolateCodec, UnproducedPatchRoundtrips) {
  const Netlist base = patchBase();
  WorkerPatch p;
  p.produced = false;
  p.baseGates = base.numGatesTotal();
  p.baseNets = base.numNetsTotal();
  Result<WorkerPatch> back = decodeWorkerPatch(encodeWorkerPatch(p), base);
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  EXPECT_FALSE(back.value().produced);
  EXPECT_TRUE(back.value().gates.empty());
  EXPECT_TRUE(back.value().frag.outputs.empty());
}

TEST(IsolateCodec, WorkerPatchRejectsSemanticCorruption) {
  const Netlist base = patchBase();
  const auto rejects = [&](WorkerPatch p, const char* what) {
    EXPECT_FALSE(decodeWorkerPatch(encodeWorkerPatch(p), base).isOk()) << what;
  };

  {  // Snapshot disagreement: the worker patched a different base.
    WorkerPatch p = producedPatch(base);
    p.baseNets += 1;
    rejects(p, "base net count mismatch");
  }
  {  // Appended gate ids must be dense and in order.
    WorkerPatch p = producedPatch(base);
    p.gates[0].out += 1;
    rejects(p, "gate output id out of order");
  }
  {  // A gate must not read a net younger than itself.
    WorkerPatch p = producedPatch(base);
    p.gates[0].fanins[0] = p.gates[1].out;
    rejects(p, "fanin from the future");
  }
  {  // Arity must match the gate type.
    WorkerPatch p = producedPatch(base);
    p.gates[1].fanins.push_back(0);  // Not with two fanins
    rejects(p, "arity mismatch");
  }
  {  // Rewire nets must exist.
    WorkerPatch p = producedPatch(base);
    p.rewires[0].newNet = 10000;
    rejects(p, "rewire to nonexistent net");
  }
  {  // Output sinks must name a real output.
    WorkerPatch p = producedPatch(base);
    p.rewires[0].sink = Sink{kNullId, 99};
    rejects(p, "rewire of nonexistent output");
  }
  {  // Gate sinks must name a real pin.
    WorkerPatch p = producedPatch(base);
    p.rewires[0].sink = Sink{0, 7};
    rejects(p, "rewire of nonexistent gate pin");
  }
  {  // The report must describe a real output of the base.
    WorkerPatch p = producedPatch(base);
    p.frag.outputs[0].name = "bogus";
    rejects(p, "report name mismatch");
  }
  EXPECT_FALSE(decodeWorkerPatch("", base).isOk());
  EXPECT_FALSE(decodeWorkerPatch("not json", base).isOk());
  EXPECT_FALSE(decodeWorkerPatch("{\"produced\":true}", base).isOk());
}

// --- Subprocess primitives ------------------------------------------------

TEST(Subprocess, RelaysBodyExitCodeAndResponseBytes) {
  subprocess::Limits limits;
  Result<subprocess::Child> forked =
      subprocess::forkWorker(limits, [](int requestFd, int responseFd) {
        Result<std::string> req = subprocess::readAll(requestFd);
        if (!req.isOk() || req.value() != "ping")
          return subprocess::kChildExitBadRequest;
        if (!subprocess::writeAll(responseFd, "pong").isOk()) return 1;
        return 7;
      });
  ASSERT_TRUE(forked.isOk()) << forked.status().toString();
  subprocess::Child child = forked.take();
  ASSERT_TRUE(subprocess::writeAll(child.requestFd, "ping").isOk());
  subprocess::closeRequestFd(child);

  std::string buf;
  while (true) {
    const auto wo = subprocess::tryReap(child.pid);
    (void)subprocess::drainAvailable(child.responseFd, &buf);
    if (wo) {
      EXPECT_EQ(wo->kind, subprocess::WaitKind::kExited);
      EXPECT_EQ(wo->exitCode, 7);
      break;
    }
    subprocess::pollReadable({child.responseFd}, 50);
  }
  while (true) {
    Result<bool> more = subprocess::drainAvailable(child.responseFd, &buf);
    if (!more.isOk() || !more.value()) break;
    subprocess::pollReadable({child.responseFd}, 10);
  }
  EXPECT_EQ(buf, "pong");
  subprocess::closeChildFds(child);
}

TEST(Subprocess, BadAllocInTheBodyMapsToTheOomExitCode) {
  subprocess::Limits limits;
  Result<subprocess::Child> forked = subprocess::forkWorker(
      limits, [](int, int) -> int { throw std::bad_alloc{}; });
  ASSERT_TRUE(forked.isOk());
  subprocess::Child child = forked.take();
  subprocess::closeRequestFd(child);
  while (true) {
    if (const auto wo = subprocess::tryReap(child.pid)) {
      EXPECT_EQ(wo->kind, subprocess::WaitKind::kExited);
      EXPECT_EQ(wo->exitCode, subprocess::kChildExitOom);
      break;
    }
    subprocess::pollReadable({}, 20);
  }
  subprocess::closeChildFds(child);
}

TEST(Subprocess, TerminateEscalatesToSigkillWhenSigtermIsIgnored) {
  subprocess::Limits limits;
  Result<subprocess::Child> forked =
      subprocess::forkWorker(limits, [](int, int) -> int {
        std::signal(SIGTERM, SIG_IGN);
        for (;;) subprocess::pollReadable({}, 1000);
      });
  ASSERT_TRUE(forked.isOk());
  subprocess::Child child = forked.take();
  // Give the child a moment to install its SIGTERM shrug.
  subprocess::pollReadable({}, 100);
  const subprocess::WaitOutcome wo = subprocess::terminateChild(child.pid, 0.3);
  EXPECT_EQ(wo.kind, subprocess::WaitKind::kTimedOut);
  EXPECT_TRUE(wo.killEscalated);
  subprocess::closeChildFds(child);
}

TEST(Subprocess, TerminateReapsACooperativeChildWithoutEscalating) {
  subprocess::Limits limits;
  Result<subprocess::Child> forked = subprocess::forkWorker(
      limits, [](int requestFd, int) -> int {
        // Block on the request pipe; SIGTERM's default disposition kills us.
        (void)subprocess::readAll(requestFd);
        for (;;) subprocess::pollReadable({}, 1000);
      });
  ASSERT_TRUE(forked.isOk());
  subprocess::Child child = forked.take();
  const subprocess::WaitOutcome wo = subprocess::terminateChild(child.pid, 5.0);
  EXPECT_EQ(wo.kind, subprocess::WaitKind::kTimedOut);
  EXPECT_FALSE(wo.killEscalated);
  subprocess::closeChildFds(child);
}

// --- Engine-level bit-identity and containment ----------------------------

EcoCase isolateCase(std::uint64_t seed) {
  CaseRecipe r;
  r.name = "iso" + std::to_string(seed);
  r.spec = SpecParams{3, 6, 3, 2, 5, 4, 3, 3};
  r.mutations = 3;
  r.targetRevisedFraction = 0.3;
  r.optRounds = 2;
  r.seed = seed;
  return makeCase(r);
}

/// The replay-cycle regression case, as committed in data/ (see its
/// README): after earlier commits, the dirty-commit replay of outputs 3
/// and 4 closes a combinational loop, which must be treated as a conflict
/// and redone. The BLIF round trip reproduces the committed files' net
/// numbering, which is what steers the search into the loop.
EcoCase replayCycleCase() {
  CaseRecipe r;
  for (const CaseRecipe& s : suiteRecipes())
    if (s.name == "eco02") r = s;
  r.mutations = 2;
  r.seed = 0x69e5ad3e959678d9ULL;
  EcoCase c = makeCase(r);
  for (Netlist* n : {&c.impl, &c.spec}) {
    std::stringstream blif;
    writeBlif(blif, *n);
    *n = readBlif(blif);
  }
  return c;
}

struct CapturedRun {
  EcoResult result;
  SysecoDiagnostics diag;
  std::string rectifiedDump;
};

CapturedRun runCase(const EcoCase& c, std::size_t jobs, bool isolate,
                    std::int64_t conflictBudget = 0) {
  CapturedRun run;
  SysecoOptions opt;
  opt.jobs = jobs;
  opt.isolate = isolate;
  opt.totalConflictBudget = conflictBudget;
  opt.isolateBackoffMs = 1.0;
  run.result = runSyseco(c.impl, c.spec, opt, &run.diag);
  run.rectifiedDump = run.result.rectified.dumpRawString();
  return run;
}

void expectIdenticalRuns(const CapturedRun& a, const CapturedRun& b) {
  ASSERT_TRUE(a.result.success);
  ASSERT_TRUE(b.result.success);
  EXPECT_EQ(a.rectifiedDump, b.rectifiedDump);
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
    EXPECT_EQ(x.workerFailedAttempts, y.workerFailedAttempts) << "rep " << i;
    EXPECT_EQ(x.workerExitCause, y.workerExitCause) << "report " << i;
  }
  EXPECT_EQ(a.diag.conflictsUsed, b.diag.conflictsUsed);
  EXPECT_EQ(a.diag.bddNodesUsed, b.diag.bddNodesUsed);
  EXPECT_EQ(a.diag.outputsRectified, b.diag.outputsRectified);
  EXPECT_EQ(a.diag.outputsViaRewire, b.diag.outputsViaRewire);
  EXPECT_EQ(a.diag.outputsViaFallback, b.diag.outputsViaFallback);
  EXPECT_EQ(a.diag.candidatesValidated, b.diag.candidatesValidated);
  EXPECT_EQ(a.diag.sweepMerges, b.diag.sweepMerges);
}

class IsolateSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IsolateSeeds, IsolatedRunIsBitIdenticalToInProcess) {
  const EcoCase c = isolateCase(GetParam());
  expectIdenticalRuns(runCase(c, 2, /*isolate=*/false),
                      runCase(c, 2, /*isolate=*/true));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsolateSeeds, ::testing::Values(11, 321));

TEST(Isolate, ReplayCycleCaseIsBitIdenticalToInProcess) {
  const EcoCase c = replayCycleCase();
  const CapturedRun threads = runCase(c, 2, /*isolate=*/false);
  const CapturedRun forked = runCase(c, 2, /*isolate=*/true);
  // The case is only a regression test while a replay does close a loop.
  EXPECT_GE(threads.diag.cyclicReplayRedos, 1u);
  EXPECT_GE(forked.diag.cyclicReplayRedos, 1u);
  expectIdenticalRuns(threads, forked);
}

TEST(Isolate, FailingTaskRetriesAndQuarantinesAlikeInEveryExecutor) {
  // A task that throws fails its attempt whichever executor runs it: it
  // is retried, then quarantined to the cone-clone fallback, and the run
  // is identical across inline, threaded and forked execution.
  const EcoCase c = isolateCase(11);
  const CapturedRun clean = runCase(c, 2, /*isolate=*/false);
  ASSERT_FALSE(clean.diag.outputs.empty());
  const std::uint32_t victim = clean.diag.outputs.back().output;
  fault::Injector::instance().arm("syseco.task.o" + std::to_string(victim),
                                  fault::Kind::kOom);
  const CapturedRun inline1 = runCase(c, 1, /*isolate=*/false);
  const CapturedRun threads = runCase(c, 2, /*isolate=*/false);
  const CapturedRun forked = runCase(c, 2, /*isolate=*/true);
  fault::Injector::instance().reset();
  expectIdenticalRuns(inline1, threads);
  expectIdenticalRuns(threads, forked);
  ASSERT_EQ(threads.diag.outputs.size(), clean.diag.outputs.size());
  int seen = 0;
  for (const OutputReport& r : threads.diag.outputs) {
    if (r.output != victim) continue;
    ++seen;
    EXPECT_EQ(r.status, OutputRectStatus::kFallback);
    EXPECT_EQ(r.limit, StatusCode::kBudgetExhausted);
    EXPECT_EQ(r.workerExitCause, WorkerExitCause::kOom);
    EXPECT_EQ(r.workerFailedAttempts, SysecoOptions{}.isolateMaxAttempts);
  }
  EXPECT_EQ(seen, 1);
}

TEST(Isolate, TaskFaultOnAnAlreadyFixedOutputKeepsItsNoOpReport) {
  // An output that earlier commits already fixed commits a no-op when it
  // becomes the commit frontier, whatever its task did: with every attempt
  // of that task failing, inline, threaded and forked runs all report it
  // clean - no failed attempts, no quarantine - exactly as without the
  // fault.
  const EcoCase c = isolateCase(8);
  const std::vector<std::uint32_t> fixed = alreadyFixedOutputs(c);
  ASSERT_FALSE(fixed.empty());
  const std::uint32_t victim = fixed.back();
  const CapturedRun clean = runCase(c, 1, /*isolate=*/false);
  fault::Injector::instance().arm("syseco.task.o" + std::to_string(victim),
                                  fault::Kind::kOom);
  const CapturedRun inline1 = runCase(c, 1, /*isolate=*/false);
  const CapturedRun threads = runCase(c, 2, /*isolate=*/false);
  const CapturedRun forked = runCase(c, 2, /*isolate=*/true);
  fault::Injector::instance().reset();
  expectIdenticalRuns(clean, inline1);
  expectIdenticalRuns(inline1, threads);
  expectIdenticalRuns(threads, forked);
  int seen = 0;
  for (const OutputReport& r : forked.diag.outputs) {
    if (r.output != victim) continue;
    ++seen;
    EXPECT_EQ(r.status, OutputRectStatus::kExact);
    EXPECT_EQ(r.limit, StatusCode::kOk);
    EXPECT_EQ(r.workerFailedAttempts, 0);
    EXPECT_EQ(r.workerExitCause, WorkerExitCause::kNone);
  }
  EXPECT_EQ(seen, 1);
}

TEST(Isolate, InvalidKnobsAreRejectedNotUndefined) {
  const EcoCase c = isolateCase(11);
  SysecoOptions opt;
  opt.isolate = true;
  opt.isolateMaxAttempts = 0;
  EXPECT_FALSE(runSysecoChecked(c.impl, c.spec, opt).isOk());
  opt.isolateMaxAttempts = 3;
  opt.isolateBackoffMs = -1.0;
  EXPECT_FALSE(runSysecoChecked(c.impl, c.spec, opt).isOk());
}

TEST(Isolate, BudgetGovernedRunIsBitIdenticalInEveryExecutor) {
  // Every planned output searches under a slice fixed from the plan, and
  // the root guard's ledger is charged in plan order, so a conflict budget
  // binds the same way whichever executor runs the tasks. At 4000 the root
  // trips inside the last output's commit-time check; at 6000 it never
  // trips and that output adopts an exact rewire.
  const EcoCase c = isolateCase(11);
  for (const std::int64_t budget : {4000, 6000}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    const CapturedRun inline1 = runCase(c, 1, /*isolate=*/false, budget);
    ASSERT_TRUE(inline1.diag.resourceDegraded()) << "the budget must bind";
    expectIdenticalRuns(inline1, runCase(c, 4, /*isolate=*/false, budget));
    expectIdenticalRuns(inline1, runCase(c, 2, /*isolate=*/true, budget));
  }
}

TEST(Isolate, GovernedCrashIsQuarantinedAndEveryOutputCertified) {
  // A deadline or budget no longer keeps a run in process: a worker that
  // crashes under a governed --isolate run is contained like any other.
  const EcoCase c = isolateCase(11);
  SysecoOptions opt;
  opt.jobs = 2;
  opt.isolate = true;
  opt.isolateBackoffMs = 1.0;
  opt.deadlineSeconds = 600.0;
  opt.totalConflictBudget = 100000000;
  SysecoDiagnostics clean;
  ASSERT_TRUE(runSyseco(c.impl, c.spec, opt, &clean).success);
  ASSERT_FALSE(clean.outputs.empty());
  // The first planned output is never fixed by an earlier commit, so its
  // task always runs.
  const std::uint32_t victim = clean.outputs.front().output;
  fault::Injector::instance().arm("isolate.worker.o" + std::to_string(victim),
                                  fault::Kind::kCrash);
  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(c.impl, c.spec, opt, &diag);
  fault::Injector::instance().reset();
  EXPECT_TRUE(res.success);
  EXPECT_EQ(diag.certificates.size(), clean.certificates.size());
  for (const OutputCertificate& cert : diag.certificates)
    EXPECT_TRUE(cert.certified) << "output " << cert.output;
  int seen = 0;
  for (const OutputReport& r : diag.outputs) {
    if (r.output != victim) continue;
    ++seen;
    EXPECT_EQ(r.status, OutputRectStatus::kFallback);
    EXPECT_EQ(r.limit, StatusCode::kInternal);
    EXPECT_EQ(r.workerExitCause, WorkerExitCause::kCrash);
    EXPECT_EQ(r.workerFailedAttempts, opt.isolateMaxAttempts);
  }
  EXPECT_EQ(seen, 1);
}

// --- End-to-end through the CLI binary ------------------------------------

#ifdef SYSECO_CLI_BIN

class IsolateCliTest : public ::testing::Test {
 protected:
  static std::string dataPath(const char* name) {
    return std::string(SYSECO_SOURCE_DIR) + "/data/" + name;
  }

  static std::string testDir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "syseco_isolate_" + name;
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

  /// Strips wall-clock timing and the scheduling-dependent speculation
  /// counters so runs compare byte-for-byte on everything that must be
  /// deterministic.
  static std::string normalizeReport(std::string text) {
    std::ostringstream out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("\"phase_cpu_seconds\"") != std::string::npos) continue;
      if (line.find("\"speculation\"") != std::string::npos) continue;
      std::size_t pos = 0;
      while ((pos = line.find("seconds\": ", pos)) != std::string::npos) {
        pos += 10;
        std::size_t end = pos;
        while (end < line.size() && line[end] != ',' && line[end] != '}')
          ++end;
        line.replace(pos, end - pos, "T");
      }
      out << line << '\n';
    }
    return out.str();
  }
};

TEST_F(IsolateCliTest, UninjectedIsolateMatchesInProcessByteForByte) {
  const std::string dir = testDir("clean");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string base = "--impl " + dataPath("alu_impl.blif") +
                           " --spec " + dataPath("alu_spec.blif") +
                           " --jobs 4";
  ASSERT_EQ(runCli("", base + " --report " + dir + "/ref.json --out " + dir +
                           "/ref.blif",
                   dir + "/ref.log"),
            0);
  ASSERT_EQ(runCli("", base + " --isolate --report " + dir +
                           "/iso.json --out " + dir + "/iso.blif",
                   dir + "/iso.log"),
            0)
      << slurp(dir + "/iso.log");
  EXPECT_EQ(slurp(dir + "/ref.blif"), slurp(dir + "/iso.blif"));
  EXPECT_EQ(normalizeReport(slurp(dir + "/ref.json")),
            normalizeReport(slurp(dir + "/iso.json")));
}

struct FaultCase {
  const char* kind;
  const char* wantCause;
  const char* wantLimit;
};

class IsolateFaultMatrix : public IsolateCliTest,
                           public ::testing::WithParamInterface<FaultCase> {};

TEST_P(IsolateFaultMatrix, InjectedFaultQuarantinesExactlyOneOutput) {
  const FaultCase fc = GetParam();
  const std::string dir = testDir(std::string("fault_") + fc.kind);
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string base = "--impl " + dataPath("alu_impl.blif") +
                           " --spec " + dataPath("alu_spec.blif") +
                           " --jobs 4 --isolate --isolate-wall-ms 2000"
                           " --isolate-backoff-ms 1 --isolate-max-attempts 2";

  ASSERT_EQ(runCli("", base + " --report " + dir + "/ref.json",
                   dir + "/ref.log"),
            0);

  // Inject on the last planned output so every other output has committed
  // by the time the fault fires - those must stay bit-identical.
  const std::string ref = slurp(dir + "/ref.json");
  const std::size_t lastEntry = ref.rfind("{\"output\": ");
  ASSERT_NE(lastEntry, std::string::npos);
  const std::size_t idBegin = lastEntry + 11;
  const std::uint32_t victim = static_cast<std::uint32_t>(
      std::strtoul(ref.c_str() + idBegin, nullptr, 10));

  const std::string env = "SYSECO_FAULT_INJECT='isolate.worker.o" +
                          std::to_string(victim) + "=" + fc.kind + "'";
  ASSERT_EQ(runCli(env, base + " --report " + dir + "/fault.json",
                   dir + "/fault.log"),
            4)
      << slurp(dir + "/fault.log");

  const std::string report = slurp(dir + "/fault.json");
  const std::string victimKey = "{\"output\": " + std::to_string(victim) + ",";
  // The oracle section also carries per-output entries; the run report
  // array is the *last* "outputs" key in the document.
  const std::size_t outputsArr = report.rfind("\"outputs\": [");
  ASSERT_NE(outputsArr, std::string::npos);
  const std::size_t at = report.find(victimKey, outputsArr);
  ASSERT_NE(at, std::string::npos) << report;
  const std::size_t end = report.find('}', at);
  const std::string entry = report.substr(at, end - at + 1);
  EXPECT_NE(entry.find("\"status\": \"fallback\""), std::string::npos)
      << entry;
  EXPECT_NE(entry.find(std::string("\"exit_cause\": \"") + fc.wantCause),
            std::string::npos)
      << entry;
  EXPECT_NE(entry.find(std::string("\"limit\": \"") + fc.wantLimit),
            std::string::npos)
      << entry;
  EXPECT_NE(entry.find("\"attempts\": 2"), std::string::npos) << entry;

  // Every other output must be bit-identical to the uninjected run.
  std::istringstream refIn(normalizeReport(ref));
  std::istringstream gotIn(normalizeReport(report));
  std::string refLine, gotLine;
  while (std::getline(refIn, refLine) && std::getline(gotIn, gotLine)) {
    if (refLine.find(victimKey) != std::string::npos) continue;
    if (refLine.find("\"degraded\"") != std::string::npos) continue;
    if (refLine.find("\"exit_code\"") != std::string::npos) continue;
    if (refLine.find("\"run_limit\"") != std::string::npos) continue;
    if (refLine.find("\"patch\"") != std::string::npos) continue;
    if (refLine.find("\"budget\"") != std::string::npos) continue;
    // The quarantined output falls back to a cone clone whose shape the
    // ISOP minimizer may compress, so the global sweep stats differ.
    if (refLine.find("\"sweep\"") != std::string::npos) continue;
    EXPECT_EQ(gotLine, refLine);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, IsolateFaultMatrix,
    ::testing::Values(FaultCase{"crash", "crash", "internal"},
                      FaultCase{"oom", "oom", "budget-exhausted"},
                      FaultCase{"hang", "wall-timeout", "deadline-exceeded"},
                      FaultCase{"garbage-ipc", "garbage-ipc", "internal"}),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      std::string name = info.param.kind;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

#endif  // SYSECO_CLI_BIN

}  // namespace
}  // namespace syseco
