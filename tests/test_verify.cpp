// Certification oracle, invariant auditor and repro bundles: the tri-modal
// re-proof of every committed patch (SAT on a fresh miter, BDD within a
// node budget, mass + directed simulation), the structural audits at
// engine phase boundaries, and the atomic evidence bundles written when a
// route refutes a patch the engine believed in.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eco/resume.hpp"
#include "eco/syseco.hpp"
#include "expect_certificates.hpp"
#include "io/blif_io.hpp"
#include "io/journal_io.hpp"
#include "netlist/netlist.hpp"
#include "sim/simulator.hpp"
#include "util/build_info.hpp"
#include "util/crc32.hpp"
#include "util/fault.hpp"
#include "util/journal.hpp"
#include "verify/audit.hpp"
#include "verify/oracle.hpp"
#include "verify/repro.hpp"

#ifndef SYSECO_SOURCE_DIR
#define SYSECO_SOURCE_DIR "."
#endif

namespace syseco {
namespace {

std::string testDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "syseco_verify_" + name;
  std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

bool fileExists(const std::string& path) {
  struct stat st = {};
  return ::stat(path.c_str(), &st) == 0;
}

Netlist aluImpl() {
  return loadBlif(std::string(SYSECO_SOURCE_DIR) + "/data/alu_impl.blif");
}
Netlist aluSpec() {
  return loadBlif(std::string(SYSECO_SOURCE_DIR) + "/data/alu_spec.blif");
}

/// impl: sum = XOR(a, b), carry = AND(a, b).
Netlist halfAdder() {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("b");
  nl.addOutput("sum", nl.addGate(GateType::Xor, {a, b}));
  nl.addOutput("carry", nl.addGate(GateType::And, {a, b}));
  return nl;
}

/// Functionally the same half adder, built from AND/OR/NOT with the inputs
/// declared in the opposite order - exercises label (not index) matching
/// and guarantees the oracle's routes see different structure than impl.
Netlist halfAdderRestructured() {
  Netlist nl;
  const NetId b = nl.addInput("b");
  const NetId a = nl.addInput("a");
  const NetId na = nl.addGate(GateType::Not, {a});
  const NetId nb = nl.addGate(GateType::Not, {b});
  const NetId sum = nl.addGate(
      GateType::Or, {nl.addGate(GateType::And, {a, nb}),
                     nl.addGate(GateType::And, {na, b})});
  nl.addOutput("sum", sum);
  nl.addOutput("carry", nl.addGate(GateType::And, {a, b}));
  return nl;
}

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::instance().reset(); }
  void TearDown() override { fault::Injector::instance().reset(); }
};

// --- NetlistAuditor -------------------------------------------------------

TEST_F(VerifyTest, AuditLevelNamesRoundTrip) {
  for (AuditLevel level : {AuditLevel::kOff, AuditLevel::kBoundaries,
                           AuditLevel::kParanoid}) {
    const auto back = auditLevelFromName(auditLevelName(level));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, level);
  }
  EXPECT_FALSE(auditLevelFromName("").has_value());
  EXPECT_FALSE(auditLevelFromName("maximal").has_value());
}

TEST_F(VerifyTest, CleanNetlistsPassEveryLevel) {
  for (const Netlist& nl : {halfAdder(), aluImpl(), aluSpec()}) {
    for (AuditLevel level : {AuditLevel::kBoundaries, AuditLevel::kParanoid}) {
      const AuditReport report = auditNetlist(nl, level, "test");
      EXPECT_TRUE(report.ok) << auditFailure(report).toString();
      EXPECT_TRUE(report.findings.empty());
      EXPECT_EQ(report.phase, "test");
    }
  }
  // kOff is a free pass: no checks, no findings, still ok.
  const AuditReport off = auditNetlist(halfAdder(), AuditLevel::kOff, "off");
  EXPECT_TRUE(off.ok);
  EXPECT_TRUE(off.findings.empty());
}

// The two corruption classes below are exactly the ones isWellFormed (and
// therefore restoreRaw) does NOT reject - the auditor exists to catch what
// the model's own checks let through.

TEST_F(VerifyTest, ArityViolationIsDiagnosed) {
  // A NOT gate with two fanins, with every sink cross-reference consistent.
  const std::string raw =
      "syseco-raw-netlist-v1\n"
      "counts 1 3 2 1\n"
      "input 0 a\n"
      "input 1 b\n"
      "gate 3 2 0 2 0 1\n"
      "net 1 0 a 1 0 0\n"
      "net 1 1 b 1 0 1\n"
      "net 2 0 o 1 4294967295 0\n"
      "output 2 o\n"
      "end\n";
  Result<Netlist> restored = Netlist::restoreRawString(raw);
  ASSERT_TRUE(restored.isOk()) << restored.status().toString();
  ASSERT_TRUE(restored.value().isWellFormed());  // the model cannot see it

  const AuditReport report =
      auditNetlist(restored.value(), AuditLevel::kBoundaries, "post-parse");
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings[0].check, "gate-arity");
  const Status s = auditFailure(report);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.toString().find("post-parse"), std::string::npos);
  EXPECT_NE(s.toString().find("gate-arity"), std::string::npos);
}

TEST_F(VerifyTest, DanglingConsumedNetIsDiagnosed) {
  // Net 1 is undriven (srcKind None) yet feeds the AND's second pin.
  const std::string raw =
      "syseco-raw-netlist-v1\n"
      "counts 1 3 1 1\n"
      "input 0 a\n"
      "gate 4 2 0 2 0 1\n"
      "net 1 0 a 1 0 0\n"
      "net 0 4294967295 % 1 0 1\n"
      "net 2 0 o 1 4294967295 0\n"
      "output 2 o\n"
      "end\n";
  Result<Netlist> restored = Netlist::restoreRawString(raw);
  ASSERT_TRUE(restored.isOk()) << restored.status().toString();
  ASSERT_TRUE(restored.value().isWellFormed());

  const AuditReport report =
      auditNetlist(restored.value(), AuditLevel::kBoundaries, "post-restore");
  EXPECT_FALSE(report.ok);
  bool sawDangling = false;
  for (const AuditFinding& f : report.findings)
    sawDangling |= f.check == "dangling-net";
  EXPECT_TRUE(sawDangling) << auditFailure(report).toString();
}

TEST_F(VerifyTest, AuditCollectsEveryFindingNotJustTheFirst) {
  // Both corruptions at once: a 2-fanin NOT *and* a dangling consumed net.
  const std::string raw =
      "syseco-raw-netlist-v1\n"
      "counts 1 3 1 1\n"
      "input 0 a\n"
      "gate 3 2 0 2 0 1\n"
      "net 1 0 a 1 0 0\n"
      "net 0 4294967295 % 1 0 1\n"
      "net 2 0 o 1 4294967295 0\n"
      "output 2 o\n"
      "end\n";
  Result<Netlist> restored = Netlist::restoreRawString(raw);
  ASSERT_TRUE(restored.isOk()) << restored.status().toString();
  const AuditReport report =
      auditNetlist(restored.value(), AuditLevel::kBoundaries, "multi");
  EXPECT_GE(report.findings.size(), 2u);
}

// --- CertificationOracle route behavior -----------------------------------

TEST_F(VerifyTest, EquivalentPairCertifiesThroughAllRoutes) {
  const Netlist impl = halfAdder();
  const Netlist spec = halfAdderRestructured();
  OracleOptions opt;
  CertificationOracle oracle(impl, spec, opt);
  for (std::uint32_t o = 0; o < impl.numOutputs(); ++o) {
    const std::uint32_t op = spec.findOutput(impl.outputName(o));
    ASSERT_NE(op, kNullId);
    const OutputCertificate cert = oracle.certify(o, op);
    EXPECT_TRUE(cert.certified) << impl.outputName(o);
    EXPECT_FALSE(cert.routesConflict);
    EXPECT_EQ(cert.sat.verdict, RouteVerdict::kEquivalent);
    EXPECT_EQ(cert.bdd.verdict, RouteVerdict::kEquivalent);
    EXPECT_EQ(cert.sim.verdict, RouteVerdict::kPassedBounded);
    EXPECT_TRUE(cert.cex.empty());
  }
}

TEST_F(VerifyTest, MiscompiledOutputIsRefutedWithReproducedCex) {
  Netlist impl = halfAdder();
  const Netlist spec = halfAdderRestructured();
  // The classic silent miscompile: the sum output driven through a NOT.
  impl.rewireOutput(0, impl.addGate(GateType::Not, {impl.outputNet(0)}));
  CertificationOracle oracle(impl, spec, OracleOptions{});
  const OutputCertificate cert =
      oracle.certify(0, spec.findOutput("sum"));
  EXPECT_FALSE(cert.certified);
  EXPECT_EQ(cert.sat.verdict, RouteVerdict::kNotEquivalent);
  EXPECT_EQ(cert.bdd.verdict, RouteVerdict::kNotEquivalent);
  EXPECT_EQ(cert.sim.verdict, RouteVerdict::kNotEquivalent);
  // The minimized counterexample must actually exhibit the mismatch.
  EXPECT_TRUE(cert.cexReproduced);
  ASSERT_EQ(cert.cex.size(), impl.numInputs());
  EXPECT_NE(evalOnce(impl, cert.cex)[0],
            evalOnce(spec, oracle.mapToSpec(cert.cex))[1]);
  // The untouched carry output still certifies - refutation is per-output.
  EXPECT_TRUE(oracle.certify(1, spec.findOutput("carry")).certified);
}

TEST_F(VerifyTest, MapToSpecFollowsLabelsNotIndices) {
  const Netlist impl = halfAdder();            // inputs a, b
  const Netlist spec = halfAdderRestructured();  // inputs b, a
  CertificationOracle oracle(impl, spec, OracleOptions{});
  const InputPattern mapped = oracle.mapToSpec({1, 0});  // a=1, b=0
  ASSERT_EQ(mapped.size(), 2u);
  EXPECT_EQ(mapped[0], 0) << "spec input 0 is b";
  EXPECT_EQ(mapped[1], 1) << "spec input 1 is a";
}

TEST_F(VerifyTest, MinimizeCexDropsIrrelevantDeviations) {
  // o = AND(a, b) vs o = OR(a, b): any single-1 assignment mismatches.
  // Input c is completely irrelevant to both cones.
  Netlist impl;
  {
    const NetId a = impl.addInput("a");
    const NetId b = impl.addInput("b");
    impl.addInput("c");
    impl.addOutput("o", impl.addGate(GateType::And, {a, b}));
  }
  Netlist spec;
  {
    const NetId a = spec.addInput("a");
    const NetId b = spec.addInput("b");
    spec.addInput("c");
    spec.addOutput("o", spec.addGate(GateType::Or, {a, b}));
  }
  CertificationOracle oracle(impl, spec, OracleOptions{});
  bool reproduced = false;
  const InputPattern shrunk =
      minimizeCex(impl, 0, spec, 0, oracle, {1, 0, 1}, &reproduced);
  EXPECT_TRUE(reproduced);
  ASSERT_EQ(shrunk.size(), 3u);
  EXPECT_EQ(shrunk[2], 0) << "irrelevant deviation must be dropped";
  EXPECT_EQ(shrunk[0] + shrunk[1], 1) << "1-minimal: exactly one bit left";
  // A pattern that does not mismatch at all comes back unchanged, flagged.
  const InputPattern same =
      minimizeCex(impl, 0, spec, 0, oracle, {1, 1, 1}, &reproduced);
  EXPECT_FALSE(reproduced);
  EXPECT_EQ(same, (InputPattern{1, 1, 1}));
}

// --- Budget exhaustion: skipped(budget), never a false verdict ------------

TEST_F(VerifyTest, BddBudgetExhaustionReportsSkippedNeverAVerdict) {
  const Netlist impl = aluImpl();
  const Netlist spec = aluSpec();
  OracleOptions opt;
  opt.bddNodeBudget = 1;  // trips during the very first cone build
  CertificationOracle oracle(impl, spec, opt);
  for (std::uint32_t o = 0; o < impl.numOutputs(); ++o) {
    const std::uint32_t op = spec.findOutput(impl.outputName(o));
    if (op == kNullId) continue;
    const OutputCertificate cert = oracle.certify(o, op);
    EXPECT_EQ(cert.bdd.verdict, RouteVerdict::kSkippedBudget)
        << impl.outputName(o) << ": " << cert.bdd.detail;
    EXPECT_NE(cert.bdd.verdict, RouteVerdict::kEquivalent);
    EXPECT_NE(cert.bdd.verdict, RouteVerdict::kNotEquivalent);
  }
}

TEST_F(VerifyTest, FaultInjectedBddTripMidCheckStaysSkipped) {
  fault::Injector::instance().arm("oracle.bdd", fault::Kind::kBddBlowup);
  const Netlist impl = halfAdder();
  const Netlist spec = halfAdderRestructured();
  CertificationOracle oracle(impl, spec, OracleOptions{});
  const OutputCertificate cert = oracle.certify(0, spec.findOutput("sum"));
  EXPECT_EQ(cert.bdd.verdict, RouteVerdict::kSkippedBudget);
  // The pair is genuinely equivalent: SAT + simulation still certify it.
  EXPECT_EQ(cert.sat.verdict, RouteVerdict::kEquivalent);
  EXPECT_TRUE(cert.certified);
}

TEST_F(VerifyTest, EngineCertifiesDespiteOracleBddBudgetTrip) {
  SysecoOptions opt;
  opt.oracle.bddNodeBudget = 1;
  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(aluImpl(), aluSpec(), opt, &diag);
  EXPECT_TRUE(res.success);
  ASSERT_FALSE(diag.certificates.empty());
  for (const OutputCertificate& c : diag.certificates) {
    EXPECT_EQ(c.bdd.verdict, RouteVerdict::kSkippedBudget) << c.name;
    EXPECT_TRUE(c.certified) << c.name;
  }
  EXPECT_TRUE(diag.oracleDisagreements.empty());
}

// --- Repro bundles and manifests ------------------------------------------

TEST_F(VerifyTest, ReproBundleWritesManifestThatMatchesTheFiles) {
  const std::string dir = testDir("bundle");
  const std::vector<ReproFile> files{
      {"cex.txt", "a 1\nb 0\n"},
      {"blob.bin", std::string("\x00\x01\xff segment", 12)},
  };
  Result<std::string> bundle = writeReproBundle(dir, "case", files);
  ASSERT_TRUE(bundle.isOk()) << bundle.status().toString();
  const std::string out = bundle.value();
  EXPECT_EQ(out, dir + "/case");
  for (const ReproFile& f : files) {
    EXPECT_EQ(slurp(out + "/" + f.name), f.content);
    Result<std::uint32_t> crc = crc32OfFile(out + "/" + f.name);
    ASSERT_TRUE(crc.isOk());
    EXPECT_EQ(crc.value(), crc32(f.content));
  }
  // The manifest lists every file with its crc32 and size.
  const std::string manifest = slurp(out + "/MANIFEST");
  for (const ReproFile& f : files) {
    char expect[80];
    std::snprintf(expect, sizeof expect, "%08x %zu %s", crc32(f.content),
                  f.content.size(), f.name.c_str());
    EXPECT_NE(manifest.find(expect), std::string::npos)
        << "missing manifest line: " << expect << "\ngot:\n" << manifest;
  }
  // No staging directory survives publication.
  EXPECT_FALSE(fileExists(dir + "/.tmp.case"));
}

TEST_F(VerifyTest, ReproBundleCollisionsGetNumberedSuffixes) {
  const std::string dir = testDir("bundle_collide");
  const std::vector<ReproFile> files{{"f.txt", "x"}};
  Result<std::string> first = writeReproBundle(dir, "dup", files);
  Result<std::string> second = writeReproBundle(dir, "dup", files);
  ASSERT_TRUE(first.isOk());
  ASSERT_TRUE(second.isOk());
  EXPECT_EQ(first.value(), dir + "/dup");
  EXPECT_EQ(second.value(), dir + "/dup-2");
}

TEST_F(VerifyTest, ReproBundleRejectsHostileFileNames) {
  const std::string dir = testDir("bundle_names");
  for (const char* bad : {"", "../escape", "a/b", "MANIFEST", ".hidden"}) {
    const Result<std::string> r =
        writeReproBundle(dir, "case", {{bad, "x"}});
    EXPECT_FALSE(r.isOk()) << "accepted bad name '" << bad << "'";
  }
  EXPECT_FALSE(writeReproBundle(dir, "", {{"f", "x"}}).isOk());
  EXPECT_FALSE(writeReproBundle("", "case", {{"f", "x"}}).isOk());
}

TEST_F(VerifyTest, Crc32OfFileHandlesMissingFilesStructurally) {
  const Result<std::uint32_t> r = crc32OfFile("/nonexistent-xyz/f");
  ASSERT_FALSE(r.isOk());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidInput);
}

// --- Build info -----------------------------------------------------------

TEST_F(VerifyTest, BuildInfoIsPopulatedAndEmbeddable) {
  const BuildInfo& b = buildInfo();
  EXPECT_FALSE(b.gitHash.empty());
  EXPECT_FALSE(b.compiler.empty());
  const std::string line = buildInfoLine();
  EXPECT_NE(line.find(b.gitHash), std::string::npos);
  const std::string json = buildInfoJson("");
  EXPECT_NE(json.find("\"git_hash\""), std::string::npos);
  EXPECT_NE(json.find("\"compiler\""), std::string::npos);
}

// --- End to end: wrong-patch containment and verdict records --------------

TEST_F(VerifyTest, WrongPatchFaultIsCaughtQuarantinedAndBundled) {
  const std::string repro = testDir("wrongpatch");
  fault::Injector::instance().arm("oracle.wrong-patch",
                                  fault::Kind::kWrongPatch);
  SysecoOptions opt;
  opt.reproDir = repro;
  opt.audit = AuditLevel::kParanoid;
  SysecoDiagnostics diag;
  const Netlist impl = aluImpl(), spec = aluSpec();
  const EcoResult res = runSyseco(impl, spec, opt, &diag);

  // The corrupted output was refuted, quarantined to the cone-clone
  // fallback, re-certified, and the run still ends fully certified.
  EXPECT_TRUE(res.success);
  ASSERT_EQ(diag.oracleDisagreements.size(), 1u);
  const OracleDisagreement& d = diag.oracleDisagreements[0];
  EXPECT_TRUE(verifyAllOutputs(res.rectified, spec));
  for (const OutputCertificate& c : diag.certificates)
    EXPECT_TRUE(c.certified) << c.name;

  // The quarantine is an honest degradation: kFallback with an internal
  // limit, which drives the CLI's exit-4 "degraded" path.
  bool sawQuarantine = false;
  for (const OutputReport& r : diag.outputs) {
    if (r.output != d.output) continue;
    sawQuarantine = true;
    EXPECT_EQ(r.status, OutputRectStatus::kFallback);
    EXPECT_EQ(r.limit, StatusCode::kInternal);
  }
  EXPECT_TRUE(sawQuarantine);
  EXPECT_TRUE(diag.resourceDegraded());

  // The repro bundle landed atomically with its full evidence set.
  ASSERT_FALSE(d.bundleDir.empty());
  for (const char* f : {"impl_patched.raw", "spec.raw", "patch.txt",
                        "cex.txt", "meta.json", "MANIFEST"})
    EXPECT_TRUE(fileExists(d.bundleDir + "/" + f)) << f;
  const std::string meta = slurp(d.bundleDir + "/meta.json");
  EXPECT_NE(meta.find("\"verdicts\""), std::string::npos);
  EXPECT_NE(meta.find("\"build\""), std::string::npos);
  // The bundled netlists restore to the exact corrupted pair.
  Result<Netlist> bundledImpl =
      Netlist::restoreRawString(slurp(d.bundleDir + "/impl_patched.raw"));
  ASSERT_TRUE(bundledImpl.isOk());
  EXPECT_EQ(bundledImpl.value().numOutputs(), impl.numOutputs());
}

TEST_F(VerifyTest, CleanRunWithoutReproDirStillQuarantinesWrongPatch) {
  fault::Injector::instance().arm("oracle.wrong-patch",
                                  fault::Kind::kWrongPatch);
  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(aluImpl(), aluSpec(), SysecoOptions{}, &diag);
  EXPECT_TRUE(res.success);
  ASSERT_EQ(diag.oracleDisagreements.size(), 1u);
  EXPECT_TRUE(diag.oracleDisagreements[0].bundleDir.empty());
  EXPECT_TRUE(verifyAllOutputs(res.rectified, aluSpec()));
}

TEST_F(VerifyTest, EngineBoundaryAuditsAreRecordedClean) {
  SysecoOptions opt;
  opt.audit = AuditLevel::kParanoid;
  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(aluImpl(), aluSpec(), opt, &diag);
  EXPECT_TRUE(res.success);
  ASSERT_FALSE(diag.audits.empty());
  bool sawCommit = false;
  for (const AuditReport& a : diag.audits) {
    EXPECT_TRUE(a.ok) << auditFailure(a).toString();
    sawCommit |= a.phase == "post-patch-commit";
  }
  EXPECT_TRUE(sawCommit);
  EXPECT_GE(diag.secondsAudit, 0.0);
}

TEST_F(VerifyTest, VerdictsRecordSerializesAndRoundTripsThroughTheJournal) {
  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(aluImpl(), aluSpec(), SysecoOptions{}, &diag);
  ASSERT_TRUE(res.success);
  const JournalVerdicts v = makeVerdictsRecord(diag);
  ASSERT_EQ(v.entries.size(), diag.certificates.size());
  EXPECT_EQ(v.disagreements, 0u);
  for (std::size_t i = 0; i < v.entries.size(); ++i) {
    EXPECT_EQ(v.entries[i].output, diag.certificates[i].output);
    EXPECT_EQ(v.entries[i].sat,
              routeVerdictName(diag.certificates[i].sat.verdict));
    EXPECT_TRUE(v.entries[i].certified);
  }

  const std::string dir = testDir("verdicts");
  {
    Result<JournalWriter> w = JournalWriter::create(dir);
    ASSERT_TRUE(w.isOk());
    ASSERT_TRUE(w.value().append(serializeVerdicts(v)).isOk());
  }
  Result<JournalContents> read = readJournal(dir);
  ASSERT_TRUE(read.isOk());
  ASSERT_TRUE(read.value().hasVerdicts);
  const JournalVerdicts& back = read.value().verdicts;
  ASSERT_EQ(back.entries.size(), v.entries.size());
  for (std::size_t i = 0; i < v.entries.size(); ++i) {
    EXPECT_EQ(back.entries[i].output, v.entries[i].output);
    EXPECT_EQ(back.entries[i].name, v.entries[i].name);
    EXPECT_EQ(back.entries[i].sat, v.entries[i].sat);
    EXPECT_EQ(back.entries[i].bdd, v.entries[i].bdd);
    EXPECT_EQ(back.entries[i].sim, v.entries[i].sim);
    EXPECT_EQ(back.entries[i].certified, v.entries[i].certified);
  }
}

TEST_F(VerifyTest, VerdictRecordsAreIdenticalAcrossJobsCounts) {
  // The acceptance bar: the serialized verdicts payload must be
  // bit-identical however the run was executed.
  std::string serialized[2];
  for (int round = 0; round < 2; ++round) {
    SysecoOptions opt;
    opt.jobs = round == 0 ? 1 : 4;
    SysecoDiagnostics diag;
    const EcoResult res =
        runSyseco(aluImpl(), aluSpec(), opt, &diag);
    ASSERT_TRUE(res.success);
    serialized[round] = serializeVerdicts(makeVerdictsRecord(diag));
  }
  EXPECT_EQ(serialized[0], serialized[1]);
}

// --- The parallel fan-out: identical verdicts for every jobs value -------

TEST_F(VerifyTest, WrongPatchQuarantineIsIdenticalAcrossJobsCounts) {
  SysecoDiagnostics diag[2];
  std::string dump[2];
  for (int round = 0; round < 2; ++round) {
    fault::Injector::instance().reset();
    fault::Injector::instance().arm("oracle.wrong-patch",
                                    fault::Kind::kWrongPatch);
    SysecoOptions opt;
    opt.jobs = round == 0 ? 1 : 4;
    const EcoResult res = runSyseco(aluImpl(), aluSpec(), opt, &diag[round]);
    ASSERT_TRUE(res.success);
    dump[round] = res.rectified.dumpRawString();
  }
  ASSERT_EQ(diag[0].oracleDisagreements.size(), 1u);
  expectSameDisagreements(diag[0].oracleDisagreements,
                          diag[1].oracleDisagreements);
  expectSameCertificates(diag[0].certificates, diag[1].certificates);
  EXPECT_EQ(dump[0], dump[1]);
  // The same output, and only that one, was quarantined in both runs.
  for (const SysecoDiagnostics& d : diag) {
    std::vector<std::uint32_t> quarantined;
    for (const OutputReport& r : d.outputs)
      if (r.status == OutputRectStatus::kFallback &&
          r.limit == StatusCode::kInternal)
        quarantined.push_back(r.output);
    EXPECT_EQ(quarantined,
              std::vector<std::uint32_t>{d.oracleDisagreements[0].output});
  }
}

TEST_F(VerifyTest, ScheduledBddTripHitsTheSameOutputAtEveryJobsCount) {
  // One-shot trip at the third "oracle.bdd" hit: draws happen serially in
  // output order, so it must land on the third certified pair however many
  // threads then run the routes.
  constexpr std::size_t kHit = 2;
  SysecoDiagnostics diag[2];
  for (int round = 0; round < 2; ++round) {
    fault::Injector::instance().reset();
    fault::Injector::instance().schedule("oracle.bdd",
                                         fault::Kind::kBddBlowup, kHit);
    SysecoOptions opt;
    opt.jobs = round == 0 ? 1 : 4;
    const EcoResult res = runSyseco(aluImpl(), aluSpec(), opt, &diag[round]);
    ASSERT_TRUE(res.success);
    ASSERT_GT(diag[round].certificates.size(), kHit);
    for (std::size_t i = 0; i < diag[round].certificates.size(); ++i) {
      const OutputCertificate& c = diag[round].certificates[i];
      EXPECT_EQ(c.bdd.verdict == RouteVerdict::kSkippedBudget, i == kHit)
          << "jobs " << opt.jobs << " certificate " << i << ": "
          << c.bdd.detail;
      EXPECT_TRUE(c.certified) << c.name;
    }
  }
  expectSameCertificates(diag[0].certificates, diag[1].certificates);
}

}  // namespace
}  // namespace syseco
