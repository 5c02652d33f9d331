// Wire and journal codecs: every encoder's bytes are pinned to golden
// strings, and the two hand-written lists of search-shaping options (the
// resume fingerprint and the fleet case upload) are checked against each
// other field by field.
//
// The golden strings are the exact output of the encoders for fixed inputs.
// Journals on disk, queue WALs and verdict records are compared byte for
// byte across runs and across builds (an old journal must still pass the
// resume fingerprint check), so a codec refactor that changes one byte is a
// format change, not a cleanup.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "eco/isolate.hpp"
#include "eco/resume.hpp"
#include "eco/syseco.hpp"
#include "io/journal_io.hpp"
#include "serve/codec.hpp"

namespace syseco {
namespace {

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

JournalOutputReport journalReport(std::uint32_t output, const char* name) {
  JournalOutputReport r;
  r.output = output;
  r.name = name;
  r.status = "fallback";
  r.limit = "budget-exhausted";
  r.conflictsUsed = 1234567;
  r.bddNodesUsed = 89;
  r.seconds = 1.0 / 3.0;
  r.degradeSteps = 2;
  r.attempts = 1;
  r.exitCause = "oom";
  return r;
}

std::string runStartBytes() {
  JournalRunStart r;
  r.engine = "syseco";
  r.implCrc = 0xDEADBEEFu;
  r.specCrc = 7;
  r.optionsFingerprint = "syseco-options-v1;samples=64";
  r.seed = kMaxU64;
  r.failingOutputsBefore = 3;
  r.order = {2, 0, 1};
  return serializeRunStart(r);
}

std::string outputRecordBytes() {
  JournalOutputRecord r;
  r.report = journalReport(1, "o\"1\n");
  r.reports = {journalReport(0, "o0"), r.report};
  r.reports[0].status = "exact";
  r.reports[0].limit = "ok";
  r.reports[0].seconds = 0.1 + 0.2;
  r.reports[0].exitCause = "ok";
  r.conflictsUsed = 9876543210;
  r.bddNodesUsed = 55;
  r.completed = 2;
  r.planned = 3;
  r.tracker.baseGates = 10;
  r.tracker.baseNets = 12;
  r.tracker.rewires = {{kNullId, 1, 4, 13}, {3, 0, 2, 12}};
  r.tracker.cloneCache = {{5, 12}, {6, 13}};
  r.netlistDump = "raw\tdump\nline2\x01";
  return serializeOutputRecord(r);
}

std::string verdictsBytes() {
  JournalVerdicts v;
  v.entries.push_back({0, "o0", "equivalent", "equivalent", "agree", true});
  v.entries.push_back({3, "x\\y", "equivalent", "budget-skip", "agree", false});
  v.disagreements = 1;
  return serializeVerdicts(v);
}

std::string serveEventBytes() {
  JournalServeEvent e;
  e.event = "done";
  e.job = "j000042";
  e.tenant = "team-a";
  e.format = "blif";
  e.seed = kMaxU64;
  e.jobs = 4;
  e.detach = true;
  e.isolate = false;
  e.bytes = 123456;
  e.attempt = 2;
  e.exitCode = 4;
  e.cause = "frame-truncated";
  e.detail = "agent \"b\" dropped";
  e.faultInject = "syseco.task.o1=oom";
  e.worker = "127.0.0.1:4100";
  e.cacheHits = 3;
  e.cacheMisses = 1;
  e.cacheEvictions = 0;
  return serializeServeEvent(e);
}

WorkerPatch fixedPatch() {
  WorkerPatch p;
  p.produced = true;
  p.baseGates = 2;
  p.baseNets = 4;
  p.gates.push_back(WorkerPatch::NewGate{GateType::Xor, {0, 1}, 4});
  p.gates.push_back(WorkerPatch::NewGate{GateType::Mux, {4, 2, 3}, 5});
  PatchTracker::RewireRecord rw;
  rw.sink = Sink{kNullId, 0};
  rw.oldNet = 2;
  rw.newNet = 5;
  p.rewires.push_back(rw);
  rw.sink = Sink{1, 1};
  rw.oldNet = 1;
  rw.newNet = 4;
  p.rewires.push_back(rw);
  p.frag.outputsRectified = 1;
  p.frag.outputsViaRewire = 1;
  p.frag.outputsViaFallback = 0;
  p.frag.candidatesValidated = 5;
  p.frag.candidatesRefuted = 4;
  p.frag.candidatesScreenRejected = 17;
  p.frag.refinementRounds = 3;
  p.frag.secondsSampling = 0.1;
  p.frag.secondsSymbolic = 1.0 / 3.0;
  p.frag.secondsScreening = 0.0;
  p.frag.secondsValidation = 0.125;
  p.frag.secondsFallback = 2e-7;
  OutputReport rep;
  rep.output = 0;
  rep.name = "o";
  rep.status = OutputRectStatus::kDegraded;
  rep.limit = StatusCode::kDeadlineExceeded;
  rep.conflictsUsed = 42;
  rep.bddNodesUsed = 7;
  rep.seconds = 0.1 + 0.2;
  rep.degradeSteps = 1;
  rep.workerFailedAttempts = 2;
  rep.workerExitCause = WorkerExitCause::kWallTimeout;
  p.frag.outputs.push_back(rep);
  return p;
}

std::string workerPatchBytes() { return encodeWorkerPatch(fixedPatch()); }

std::string fleetTaskRequestBytes() {
  FleetTaskRequest r;
  r.output = 3;
  r.attempt = 2;
  r.epoch = kMaxU64;
  r.leaseSeconds = 2.0 / 3.0;
  r.caseCrc = 0xCAFEF00Du;
  return encodeFleetTaskRequest(r);
}

/// A governed run's task request: the resource slice rides along.
std::string fleetTaskRequestWithLimitsBytes() {
  FleetTaskRequest r;
  r.output = 3;
  r.attempt = 1;
  r.epoch = 9;
  r.leaseSeconds = 10.0;
  r.caseCrc = 0xCAFEF00Du;
  r.limits = ResourceGuard::Limits{1.0 / 3.0, 51, 1048577};
  return encodeFleetTaskRequest(r);
}

Netlist tinyBase() {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("b");
  nl.addOutput("o", nl.addGate(GateType::And, {a, b}));
  nl.addOutput("p", nl.addGate(GateType::Or, {a, b}));
  return nl;
}

Netlist tinySpec() {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("b");
  nl.addOutput("o", nl.addGate(GateType::Xor, {a, b}));
  nl.addOutput("p", nl.addGate(GateType::Or, {a, b}));
  return nl;
}

std::string fleetCaseBytes() {
  SysecoOptions o;
  o.numSamples = 128;
  o.useUtilityHeuristic = false;
  o.levelDriven = true;
  o.seed = kMaxU64;
  return encodeFleetCase(tinyBase(), tinySpec(), o, {1, 0});
}

std::string fleetCaseTaskBytes() {
  FleetCaseTask t;
  t.name = "alu-s1";
  t.caseCrc = 0x01020304u;
  t.epoch = 77;
  t.leaseSeconds = 0.1;
  t.jobs = 4;
  t.attempt = 3;
  return encodeFleetCaseTask(t);
}

std::string fleetCaseResultBytes() {
  FleetCaseResult r;
  r.epoch = kMaxU64;
  r.exitCode = 4;
  r.report = "{\"success\": true,\n \"seconds\": 0.5}";
  r.verdicts = "{\"type\":\"verdicts\",\"outputs\":[],\"disagreements\":0}";
  r.netlist = "raw\nnetlist";
  r.cacheHits = 5;
  r.cacheMisses = 1;
  r.cacheEvictions = 2;
  return encodeFleetCaseResult(r);
}

std::string fleetFailureBytes() {
  FleetFailure f;
  f.epoch = 12;
  f.cause = "crash";
  f.detail = "compute threw: \"bad_alloc\"\t";
  return encodeFleetFailure(f);
}

std::string submitBytes() {
  serve::SubmitRequest r;
  r.tenant = "team-a";
  r.format = "v";
  r.implText = "module m(a);\n endmodule\n";
  r.specText = "module s;\nendmodule";
  r.seed = kMaxU64;
  r.jobs = 3;
  r.isolate = true;
  r.detach = false;
  r.faultInject = "isolate.worker.o1=hang";
  return serve::encodeSubmit(r);
}

std::string defaultFingerprintBytes() {
  return sysecoOptionsFingerprint(SysecoOptions{});
}

std::string tunedFingerprintBytes() {
  SysecoOptions o;
  o.maxPoints = 2;
  o.validationBudget = -1;
  o.enableSweeping = false;
  o.deadlineSeconds = 1.0 / 3.0;
  o.totalConflictBudget = 30;
  o.totalBddNodeBudget = 1 << 20;
  return sysecoOptionsFingerprint(o);
}

struct GoldenCase {
  const char* name;
  std::function<std::string()> encode;
  const char* golden;
};

// Captured from the encoders before their records shared one reader layer;
// a difference here is a change of the on-disk or wire format.
const std::vector<GoldenCase>& goldenCases() {
  static const std::vector<GoldenCase> cases = {
      {"serializeRunStart", runStartBytes,
       R"golden({"type":"run_start","version":1,"engine":"syseco","impl_crc":3735928559,"spec_crc":7,"options":"syseco-options-v1;samples=64","seed":"18446744073709551615","failing_outputs":3,"order":[2,0,1]})golden"},
      {"serializeOutputRecord", outputRecordBytes,
       R"golden({"type":"output","report":{"output":1,"name":"o\"1\u000a","status":"fallback","limit":"budget-exhausted","conflicts_used":1234567,"bdd_nodes_used":89,"seconds":0.333333,"degrade_steps":2,"attempts":1,"exit_cause":"oom"},"reports":[{"output":0,"name":"o0","status":"exact","limit":"ok","conflicts_used":1234567,"bdd_nodes_used":89,"seconds":0.3,"degrade_steps":2,"attempts":1,"exit_cause":"ok"},{"output":1,"name":"o\"1\u000a","status":"fallback","limit":"budget-exhausted","conflicts_used":1234567,"bdd_nodes_used":89,"seconds":0.333333,"degrade_steps":2,"attempts":1,"exit_cause":"oom"}],"conflicts_used":9876543210,"bdd_nodes_used":55,"completed":2,"planned":3,"tracker":{"base_gates":10,"base_nets":12,"rewires":[[4294967295,1,4,13],[3,0,2,12]],"clone_cache":[[5,12],[6,13]]},"netlist":"raw\u0009dump\u000aline2\u0001"})golden"},
      {"serializeVerdicts", verdictsBytes,
       R"golden({"type":"verdicts","outputs":[{"output":0,"name":"o0","sat":"equivalent","bdd":"equivalent","sim":"agree","certified":true},{"output":3,"name":"x\\y","sat":"equivalent","bdd":"budget-skip","sim":"agree","certified":false}],"disagreements":1})golden"},
      {"serializeServeEvent", serveEventBytes,
       R"golden({"type":"serve","event":"done","job":"j000042","tenant":"team-a","format":"blif","seed":"18446744073709551615","jobs":4,"detach":true,"isolate":false,"bytes":123456,"attempt":2,"exit_code":4,"cause":"frame-truncated","detail":"agent \"b\" dropped","fault_inject":"syseco.task.o1=oom","worker":"127.0.0.1:4100","cache_hits":3,"cache_misses":1,"cache_evictions":0})golden"},
      {"encodeWorkerPatch", workerPatchBytes,
       R"golden({"produced":true,"base_gates":2,"base_nets":4,"gates":[[8,4,0,1],[10,5,4,2,3]],"rewires":[[4294967295,0,2,5],[1,1,1,4]],"counters":[1,1,0,5,4,17,3],"seconds":[0.10000000000000001,0.33333333333333331,0,0.125,1.9999999999999999e-07],"report":{"output":0,"name":"o","status":"degraded","limit":"deadline-exceeded","conflicts_used":42,"bdd_nodes_used":7,"seconds":0.30000000000000004,"degrade_steps":1,"attempts":2,"exit_cause":"wall-timeout"}})golden"},
      {"encodeFleetTaskRequest", fleetTaskRequestBytes,
       R"golden({"output":3,"attempt":2,"epoch":"18446744073709551615","lease_seconds":0.66666666666666663,"case_crc":3405705229})golden"},
      {"encodeFleetTaskRequest(limits)", fleetTaskRequestWithLimitsBytes,
       R"golden({"output":3,"attempt":1,"epoch":"9","lease_seconds":10,"case_crc":3405705229,"deadline_seconds":0.33333333333333331,"conflict_budget":51,"bdd_node_budget":1048577})golden"},
      {"encodeFleetCase", fleetCaseBytes,
       R"golden({"impl":"syseco-raw-netlist-v1\u000acounts 2 4 2 2\u000ainput 0 a\u000ainput 1 b\u000agate 4 2 0 2 0 1\u000agate 5 3 0 2 0 1\u000anet 1 0 a 2 0 0 1 0\u000anet 1 1 b 2 0 1 1 1\u000anet 2 0 % 1 4294967295 0\u000anet 2 1 % 1 4294967295 1\u000aoutput 2 o\u000aoutput 3 p\u000aend\u000a","spec":"syseco-raw-netlist-v1\u000acounts 2 4 2 2\u000ainput 0 a\u000ainput 1 b\u000agate 8 2 0 2 0 1\u000agate 5 3 0 2 0 1\u000anet 1 0 a 2 0 0 1 0\u000anet 1 1 b 2 0 1 1 1\u000anet 2 0 % 1 4294967295 0\u000anet 2 1 % 1 4294967295 1\u000aoutput 2 o\u000aoutput 3 p\u000aend\u000a","options":{"samples":128,"points":3,"pins":16,"nets":16,"sets":8,"choices":12,"refine":6,"vbudget":500000,"sbudget":100000,"bddlimit":4194304,"errsample":true,"utility":false,"trivial":true,"sweep":true,"synth":true,"level":true,"seed":"18446744073709551615"},"protect":[1,0]})golden"},
      {"encodeFleetCaseTask", fleetCaseTaskBytes,
       R"golden({"name":"alu-s1","case_crc":16909060,"epoch":"77","lease_seconds":0.10000000000000001,"jobs":4,"attempt":3})golden"},
      {"encodeFleetCaseResult", fleetCaseResultBytes,
       R"golden({"epoch":"18446744073709551615","exit_code":4,"report":"{\"success\": true,\u000a \"seconds\": 0.5}","verdicts":"{\"type\":\"verdicts\",\"outputs\":[],\"disagreements\":0}","netlist":"raw\u000anetlist","cache_hits":5,"cache_misses":1,"cache_evictions":2})golden"},
      {"encodeFleetFailure", fleetFailureBytes,
       R"golden({"epoch":"12","cause":"crash","detail":"compute threw: \"bad_alloc\"\u0009"})golden"},
      {"encodeSubmit", submitBytes,
       R"golden({"type":"submit","tenant":"team-a","format":"v","impl":"module m(a);\u000a endmodule\u000a","spec":"module s;\u000aendmodule","seed":"18446744073709551615","jobs":3,"isolate":true,"detach":false,"fault_inject":"isolate.worker.o1=hang"})golden"},
      {"sysecoOptionsFingerprint(default)", defaultFingerprintBytes,
       R"golden(syseco-options-v1;samples=64;points=3;pins=16;nets=16;sets=8;choices=12;refine=6;vbudget=500000;sbudget=100000;bddlimit=4194304;errsample=1;utility=1;trivial=1;sweep=1;synth=1;level=0;deadline=0;tconf=0;tbdd=0)golden"},
      {"sysecoOptionsFingerprint(tuned)", tunedFingerprintBytes,
       R"golden(syseco-options-v1;samples=64;points=2;pins=16;nets=16;sets=8;choices=12;refine=6;vbudget=-1;sbudget=100000;bddlimit=4194304;errsample=1;utility=1;trivial=1;sweep=0;synth=1;level=0;deadline=0.333333;tconf=30;tbdd=1048576)golden"},
  };
  return cases;
}

TEST(CodecGolden, EveryEncoderEmitsThePinnedBytes) {
  for (const GoldenCase& c : goldenCases()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(c.encode(), std::string(c.golden));
  }
}

// --- The two search-option lists ------------------------------------------

/// Each entry flips one search-shaping option away from its default to
/// another valid value. sysecoOptionsFingerprint and the fleet case upload
/// both list these fields by hand; a field missing from either list makes
/// the test below fail.
struct OptionFlip {
  const char* field;
  std::function<void(SysecoOptions&)> flip;
};

const std::vector<OptionFlip>& searchOptionFlips() {
  static const std::vector<OptionFlip> flips = {
      {"numSamples", [](SysecoOptions& o) { o.numSamples = 128; }},
      {"maxPoints", [](SysecoOptions& o) { o.maxPoints = 2; }},
      {"maxCandidatePins", [](SysecoOptions& o) { o.maxCandidatePins = 9; }},
      {"maxRewireNets", [](SysecoOptions& o) { o.maxRewireNets = 7; }},
      {"maxPointSets", [](SysecoOptions& o) { o.maxPointSets = 5; }},
      {"maxChoices", [](SysecoOptions& o) { o.maxChoices = 4; }},
      {"maxRefineIters", [](SysecoOptions& o) { o.maxRefineIters = 1; }},
      {"validationBudget", [](SysecoOptions& o) { o.validationBudget = 77; }},
      {"samplingBudget", [](SysecoOptions& o) { o.samplingBudget = 88; }},
      {"bddNodeLimit", [](SysecoOptions& o) { o.bddNodeLimit = 1u << 20; }},
      {"useErrorDomainSampling",
       [](SysecoOptions& o) { o.useErrorDomainSampling = false; }},
      {"useUtilityHeuristic",
       [](SysecoOptions& o) { o.useUtilityHeuristic = false; }},
      {"includeTrivialCandidate",
       [](SysecoOptions& o) { o.includeTrivialCandidate = false; }},
      {"enableSweeping", [](SysecoOptions& o) { o.enableSweeping = false; }},
      {"synthesizeFunctions",
       [](SysecoOptions& o) { o.synthesizeFunctions = false; }},
      {"levelDriven", [](SysecoOptions& o) { o.levelDriven = true; }},
  };
  return flips;
}

TEST(SearchOptions, FingerprintAndFleetCaseCarryTheSameFields) {
  const Netlist base = tinyBase();
  const Netlist spec = tinySpec();
  const SysecoOptions defaults;
  const std::string defaultPrint = sysecoOptionsFingerprint(defaults);
  const std::string defaultCase = encodeFleetCase(base, spec, defaults, {});
  for (const OptionFlip& f : searchOptionFlips()) {
    SCOPED_TRACE(f.field);
    SysecoOptions flipped;
    f.flip(flipped);
    const std::string print = sysecoOptionsFingerprint(flipped);
    EXPECT_NE(print, defaultPrint) << "the resume fingerprint ignores it";
    const std::string payload = encodeFleetCase(base, spec, flipped, {});
    EXPECT_NE(payload, defaultCase) << "the fleet case upload drops it";
    Result<FleetCase> back = decodeFleetCase(payload);
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(sysecoOptionsFingerprint(back.value().options), print)
        << "the fleet case round trip loses it";
  }
}

// --- One acceptance rule set -----------------------------------------------

/// Inputs that one of the former private reader copies accepted and the
/// shared record layer rejects in every record.
TEST(RecordReaders, OneRuleSetForEveryRecord) {
  // Doubles must be finite: a journal report's seconds.
  auto reportParses = [](const std::string& seconds) {
    Result<JsonValue> doc = parseJson(
        R"({"output":0,"name":"o","status":"exact","limit":"ok",)"
        R"("conflicts_used":0,"bdd_nodes_used":0,"seconds":)" +
        seconds + R"(,"degrade_steps":0})");
    JournalOutputReport r;
    return doc.isOk() && parseReport(doc.value(), &r);
  };
  EXPECT_TRUE(reportParses("0.5"));
  EXPECT_FALSE(reportParses("1e999"));

  // Counters and seconds must not be negative: a journal report mapped
  // onto the engine, as resume and the worker patch decoder both do.
  const Netlist impl = tinyBase();
  JournalOutputReport j;
  j.name = "o";
  j.status = "exact";
  j.limit = "ok";
  EXPECT_TRUE(fromJournalReport(j, impl).has_value());
  JournalOutputReport bad = j;
  bad.conflictsUsed = -1;
  EXPECT_FALSE(fromJournalReport(bad, impl).has_value());
  bad = j;
  bad.bddNodesUsed = -1;
  EXPECT_FALSE(fromJournalReport(bad, impl).has_value());
  bad = j;
  bad.seconds = -0.5;
  EXPECT_FALSE(fromJournalReport(bad, impl).has_value());

  // u64 strings must be canonical decimals: fleet epochs and serve seeds.
  EXPECT_TRUE(decodeFleetHeartbeat(R"({"epoch":"7"})").isOk());
  EXPECT_FALSE(decodeFleetHeartbeat(R"({"epoch":"07"})").isOk());
  auto submitWithSeed = [](const std::string& seed) {
    return serve::decodeSubmit(R"({"type":"submit","impl":"x","spec":"y",)"
                               R"("seed":")" +
                               seed + R"("})");
  };
  Result<serve::SubmitRequest> ok = submitWithSeed("18446744073709551615");
  ASSERT_TRUE(ok.isOk()) << ok.status().toString();
  EXPECT_EQ(ok.value().seed, kMaxU64);
  EXPECT_FALSE(submitWithSeed("01").isOk());
  EXPECT_FALSE(submitWithSeed("000000000000000000001").isOk());
}

}  // namespace
}  // namespace syseco
