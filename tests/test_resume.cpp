// Checkpoint/resume: an interrupted or crashed run, resumed from its
// journal, must converge to the same final result as an uninterrupted run -
// and a journal that cannot be independently re-certified must be demoted
// to redo, never silently trusted.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eco/resume.hpp"
#include "eco/syseco.hpp"
#include "gen/eco_case.hpp"
#include "io/blif_io.hpp"
#include "io/journal_io.hpp"
#include "util/fault.hpp"
#include "util/journal.hpp"

#ifndef SYSECO_SOURCE_DIR
#define SYSECO_SOURCE_DIR "."
#endif

namespace syseco {
namespace {

std::string testDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "syseco_resume_" + name;
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

Netlist aluImpl() {
  return loadBlif(std::string(SYSECO_SOURCE_DIR) + "/data/alu_impl.blif");
}
Netlist aluSpec() {
  return loadBlif(std::string(SYSECO_SOURCE_DIR) + "/data/alu_spec.blif");
}

/// Reports match when everything except wall-clock timing matches.
void expectSameReports(const std::vector<OutputReport>& got,
                       const std::vector<OutputReport>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].output, want[i].output) << "report " << i;
    EXPECT_EQ(got[i].name, want[i].name) << "report " << i;
    EXPECT_EQ(got[i].status, want[i].status) << "report " << i;
    EXPECT_EQ(got[i].limit, want[i].limit) << "report " << i;
    EXPECT_EQ(got[i].conflictsUsed, want[i].conflictsUsed) << "report " << i;
    EXPECT_EQ(got[i].bddNodesUsed, want[i].bddNodesUsed) << "report " << i;
    EXPECT_EQ(got[i].degradeSteps, want[i].degradeSteps) << "report " << i;
  }
}

/// Runs to completion without interruption; the reference every resumed
/// run must converge to.
struct Reference {
  EcoResult result;
  SysecoDiagnostics diag;
  std::string rectifiedDump;
};

Reference uninterruptedRun(const Netlist& impl, const Netlist& spec) {
  Reference ref;
  ref.result = runSyseco(impl, spec, SysecoOptions{}, &ref.diag);
  ref.rectifiedDump = ref.result.rectified.dumpRawString();
  return ref;
}

/// Runs with journaling hooks, stopping cleanly after `stopAfter` fresh
/// checkpoints (0 = never stop). Returns the interrupted diagnostics.
SysecoDiagnostics journaledRun(const Netlist& impl, const Netlist& spec,
                               const std::string& dir, std::size_t stopAfter,
                               const ResumePlan* plan = nullptr,
                               bool freshJournal = true,
                               const SysecoOptions& base = {}) {
  Result<JournalWriter> w =
      freshJournal ? JournalWriter::create(dir) : [&] {
        Result<JournalScan> scan = scanJournal(dir);
        EXPECT_TRUE(scan.isOk());
        return JournalWriter::resume(dir, scan.value());
      }();
  EXPECT_TRUE(w.isOk());
  std::size_t fresh = 0;
  SysecoOptions opt = base;
  opt.resumePlan = plan;
  opt.planHook = [&](const std::vector<std::uint32_t>& order,
                     std::size_t failingBefore) {
    EXPECT_TRUE(w.value()
                    .append(serializeRunStart(makeRunStartRecord(
                        impl, spec, opt, order, failingBefore)))
                    .isOk());
  };
  opt.checkpointHook = [&](const RunCheckpoint& cp) {
    EXPECT_TRUE(
        w.value().append(serializeOutputRecord(makeOutputRecord(cp))).isOk());
    ++fresh;
    return stopAfter == 0 || fresh < stopAfter;
  };
  SysecoDiagnostics diag;
  runSyseco(impl, spec, opt, &diag);
  return diag;
}

TEST(ResumeTest, InterruptAfterEveryPrefixConvergesToTheSameResult) {
  const Netlist impl = aluImpl(), spec = aluSpec();
  const Reference ref = uninterruptedRun(impl, spec);
  ASSERT_TRUE(ref.result.success);
  ASSERT_GE(ref.diag.outputs.size(), 3u);

  for (std::size_t stopAfter = 1; stopAfter < ref.diag.outputs.size();
       ++stopAfter) {
    SCOPED_TRACE("interrupted after " + std::to_string(stopAfter));
    const std::string dir =
        testDir("prefix" + std::to_string(stopAfter));

    const SysecoDiagnostics interrupted =
        journaledRun(impl, spec, dir, stopAfter);
    EXPECT_TRUE(interrupted.interrupted);
    EXPECT_EQ(interrupted.outputs.size(), stopAfter);

    Result<JournalContents> contents = readJournal(dir);
    ASSERT_TRUE(contents.isOk());
    Result<ResumeOutcome> prepared =
        prepareResume(impl, spec, SysecoOptions{}, contents.value());
    ASSERT_TRUE(prepared.isOk()) << prepared.status().toString();
    const ResumeOutcome& outcome = prepared.value();
    ASSERT_TRUE(outcome.adopted);
    EXPECT_EQ(outcome.certified.size(), stopAfter);
    EXPECT_EQ(outcome.demotedRecords, 0u);

    // Resume: the engine re-enters the cascade only for the remainder.
    SysecoOptions opt;
    opt.resumePlan = &outcome.plan;
    SysecoDiagnostics diag;
    const EcoResult res = runSyseco(outcome.netlist, spec, opt, &diag);

    ASSERT_TRUE(res.success);
    EXPECT_FALSE(diag.interrupted);
    EXPECT_EQ(res.rectified.dumpRawString(), ref.rectifiedDump)
        << "resumed run did not converge to the uninterrupted netlist";
    EXPECT_EQ(res.failingOutputsBefore, ref.result.failingOutputsBefore);
    EXPECT_EQ(res.stats.gates, ref.result.stats.gates);
    EXPECT_EQ(res.stats.inputs, ref.result.stats.inputs);
    EXPECT_EQ(diag.conflictsUsed, ref.diag.conflictsUsed);
    EXPECT_EQ(diag.bddNodesUsed, ref.diag.bddNodesUsed);
    EXPECT_EQ(diag.sweepMerges, ref.diag.sweepMerges);
    expectSameReports(diag.outputs, ref.diag.outputs);
  }
}

TEST(ResumeTest, ResumedRunCanItselfBeInterruptedAndResumed) {
  const Netlist impl = aluImpl(), spec = aluSpec();
  const Reference ref = uninterruptedRun(impl, spec);
  ASSERT_GE(ref.diag.outputs.size(), 3u);
  const std::string dir = testDir("chained");

  // Crash after 1, resume, crash after 1 more, resume to the end.
  journaledRun(impl, spec, dir, 1);
  for (int round = 0; round < 2; ++round) {
    Result<JournalContents> contents = readJournal(dir);
    ASSERT_TRUE(contents.isOk());
    Result<ResumeOutcome> prepared =
        prepareResume(impl, spec, SysecoOptions{}, contents.value());
    ASSERT_TRUE(prepared.isOk());
    ASSERT_TRUE(prepared.value().adopted);
    const std::size_t stopAfter = round == 0 ? 1 : 0;
    const SysecoDiagnostics diag =
        journaledRun(prepared.value().netlist, spec, dir, stopAfter,
                     &prepared.value().plan, /*freshJournal=*/false);
    if (round == 1) {
      EXPECT_FALSE(diag.interrupted);
      expectSameReports(diag.outputs, ref.diag.outputs);
    }
  }
}

TEST(ResumeTest, ResumedGovernedRunContinuesTheSameBudget) {
  // The budgets are part of the resume fingerprint and the journal records
  // what the interrupted run spent, so a resumed run continues on the same
  // ledger instead of being handed the whole budget again.
  const Netlist impl = aluImpl(), spec = aluSpec();
  SysecoOptions governed;
  governed.totalConflictBudget = 20;
  Reference ref;
  ref.result = runSyseco(impl, spec, governed, &ref.diag);
  ref.rectifiedDump = ref.result.rectified.dumpRawString();
  ASSERT_TRUE(ref.result.success);
  ASSERT_GE(ref.diag.outputs.size(), 2u);

  const std::string dir = testDir("governed");
  const SysecoDiagnostics first =
      journaledRun(impl, spec, dir, 1, nullptr, true, governed);
  ASSERT_TRUE(first.interrupted);
  Result<JournalContents> contents = readJournal(dir);
  ASSERT_TRUE(contents.isOk());
  Result<ResumeOutcome> prepared =
      prepareResume(impl, spec, governed, contents.value());
  ASSERT_TRUE(prepared.isOk()) << prepared.status().toString();
  ASSERT_TRUE(prepared.value().adopted);

  SysecoOptions opt = governed;
  opt.resumePlan = &prepared.value().plan;
  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(prepared.value().netlist, spec, opt, &diag);
  ASSERT_TRUE(res.success);
  EXPECT_EQ(res.rectified.dumpRawString(), ref.rectifiedDump);
  EXPECT_EQ(serializeVerdicts(makeVerdictsRecord(diag)),
            serializeVerdicts(makeVerdictsRecord(ref.diag)));
  expectSameReports(diag.outputs, ref.diag.outputs);
  EXPECT_EQ(diag.conflictsUsed, ref.diag.conflictsUsed);
  EXPECT_LE(diag.conflictsUsed, 20 + 256) << "budget should bind tightly";
}

TEST(ResumeTest, TamperedSnapshotIsDemotedNeverCertified) {
  const Netlist impl = aluImpl(), spec = aluSpec();
  const std::string dir = testDir("tampered");
  journaledRun(impl, spec, dir, 2);

  // Forge a record whose frame checksums fine and whose snapshot passes
  // every structural check - same counts, valid ids - but whose claimed
  // output was quietly rewired to the wrong function. Only the independent
  // SAT re-certification can catch this one.
  Result<JournalContents> contents = readJournal(dir);
  ASSERT_TRUE(contents.isOk());
  ASSERT_EQ(contents.value().outputs.size(), 2u);
  JournalOutputRecord forged = contents.value().outputs.back();
  {
    Result<Netlist> restored = Netlist::restoreRawString(forged.netlistDump);
    ASSERT_TRUE(restored.isOk());
    Netlist n = restored.take();
    const std::uint32_t victim = forged.report.output;
    n.rewireOutput(victim,
                   n.outputNet((victim + 1) % n.numOutputs()));
    forged.netlistDump = n.dumpRawString();
  }
  {
    Result<JournalScan> scan = scanJournal(dir);
    ASSERT_TRUE(scan.isOk());
    Result<JournalWriter> w = JournalWriter::resume(dir, scan.value());
    ASSERT_TRUE(w.isOk());
    ASSERT_TRUE(w.value().append(serializeOutputRecord(forged)).isOk());
  }

  Result<JournalContents> reread = readJournal(dir);
  ASSERT_TRUE(reread.isOk());
  Result<ResumeOutcome> prepared =
      prepareResume(impl, spec, SysecoOptions{}, reread.value());
  ASSERT_TRUE(prepared.isOk());
  const ResumeOutcome& outcome = prepared.value();
  // The forged (newest) record was demoted with a diagnostic; the honest
  // one behind it was adopted.
  EXPECT_EQ(outcome.demotedRecords, 1u);
  bool demotionNoted = false;
  for (const std::string& note : outcome.notes)
    demotionNoted |= note.find("re-certification") != std::string::npos;
  EXPECT_TRUE(demotionNoted);
  ASSERT_TRUE(outcome.adopted);
  EXPECT_EQ(outcome.certified.size(), 2u);
}

TEST(ResumeTest, BitFlippedRecordIsDemotedToRedoWithDiagnostic) {
  const Netlist impl = aluImpl(), spec = aluSpec();
  const std::string dir = testDir("bitflip");
  journaledRun(impl, spec, dir, 2);

  // Flip one bit inside the newest record's frame.
  const std::string path = journalDataPath(dir);
  std::string data = slurp(path);
  const std::size_t lastLine = data.rfind("\nJ1 ");
  ASSERT_NE(lastLine, std::string::npos);
  data[lastLine + 40] ^= 0x01;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << data;

  Result<JournalContents> contents = readJournal(dir);
  ASSERT_TRUE(contents.isOk());
  bool dropNoted = false;
  for (const std::string& d : contents.value().diagnostics)
    dropNoted |= d.find("record dropped") != std::string::npos;
  EXPECT_TRUE(dropNoted);

  // Resume falls back to the older intact checkpoint: one output certified,
  // nothing from the corrupt record believed.
  Result<ResumeOutcome> prepared =
      prepareResume(impl, spec, SysecoOptions{}, contents.value());
  ASSERT_TRUE(prepared.isOk());
  ASSERT_TRUE(prepared.value().adopted);
  EXPECT_EQ(prepared.value().certified.size(), 1u);
}

TEST(ResumeTest, StaleJournalIsRejectedAsInvalidInput) {
  const Netlist impl = aluImpl(), spec = aluSpec();
  const std::string dir = testDir("stale");
  journaledRun(impl, spec, dir, 1);
  Result<JournalContents> contents = readJournal(dir);
  ASSERT_TRUE(contents.isOk());

  {  // seed changed
    SysecoOptions other;
    other.seed = 99;
    Result<ResumeOutcome> r = prepareResume(impl, spec, other, contents.value());
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidInput);
    EXPECT_NE(r.status().message().find("seed"), std::string::npos);
  }
  {  // search options changed
    SysecoOptions other;
    other.numSamples = 32;
    Result<ResumeOutcome> r = prepareResume(impl, spec, other, contents.value());
    ASSERT_FALSE(r.isOk());
    EXPECT_NE(r.status().message().find("options"), std::string::npos);
  }
  {  // different netlists
    Result<ResumeOutcome> r =
        prepareResume(spec, spec, SysecoOptions{}, contents.value());
    ASSERT_FALSE(r.isOk());
    EXPECT_NE(r.status().message().find("netlist"), std::string::npos);
  }
}

TEST(ResumeTest, JournalWithoutRunStartDemotesEverything) {
  const Netlist impl = aluImpl(), spec = aluSpec();
  const std::string dir = testDir("norunstart");
  journaledRun(impl, spec, dir, 1);

  // Surgically remove the run_start line (the first frame).
  const std::string path = journalDataPath(dir);
  const std::string data = slurp(path);
  const std::size_t eol = data.find('\n');
  ASSERT_NE(eol, std::string::npos);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << data.substr(eol + 1);

  Result<JournalContents> contents = readJournal(dir);
  ASSERT_TRUE(contents.isOk());
  EXPECT_FALSE(contents.value().hasRunStart);
  Result<ResumeOutcome> prepared =
      prepareResume(impl, spec, SysecoOptions{}, contents.value());
  ASSERT_TRUE(prepared.isOk());
  EXPECT_FALSE(prepared.value().adopted);
  EXPECT_EQ(prepared.value().demotedRecords, 1u);
}

// --- End-to-end through the CLI binary ------------------------------------

#ifdef SYSECO_CLI_BIN

class ResumeCliTest : public ::testing::Test {
 protected:
  static std::string dataPath(const char* name) {
    return std::string(SYSECO_SOURCE_DIR) + "/data/" + name;
  }

  /// Runs the CLI via the shell; returns its exit code.
  static int runCli(const std::string& env, const std::string& args,
                    const std::string& logPath) {
    const std::string cmd = env + (env.empty() ? "" : " ") + SYSECO_CLI_BIN +
                            " " + args + " > '" + logPath + "' 2>&1";
    const int rc = std::system(cmd.c_str());
    if (rc == -1) return -1;
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : 128 + WTERMSIG(rc);
  }

  /// Strips wall-clock timing and the scheduling-dependent speculation
  /// counters from a report so two runs can be compared byte-for-byte on
  /// everything that must be deterministic.
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
        while (end < line.size() && line[end] != ',' && line[end] != '}' &&
               line[end] != '\n')
          ++end;
        line.replace(pos, end - pos, "T");
      }
      out << line << '\n';
    }
    return out.str();
  }
};

TEST_F(ResumeCliTest, CrashInjectedRunResumesToTheSameReport) {
  const std::string dir = testDir("cli_crash");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string base = "--impl " + dataPath("alu_impl.blif") +
                           " --spec " + dataPath("alu_spec.blif");

  // Reference: one uninterrupted run.
  ASSERT_EQ(runCli("", base + " --report " + dir + "/ref.json",
                   dir + "/ref.log"),
            0);

  // Crash (simulated kill -9) after each successive checkpoint commits,
  // resuming after every crash; the chain must converge to the reference.
  ASSERT_EQ(runCli("SYSECO_FAULT_INJECT='journal.checkpoint=crash'",
                   base + " --journal " + dir + "/j", dir + "/crash0.log"),
            fault::kCrashExitCode);
  for (int round = 1;; ++round) {
    const std::string log = dir + "/resume" + std::to_string(round) + ".log";
    const int rc = runCli(
        "SYSECO_FAULT_INJECT='journal.checkpoint=crash@1'",
        base + " --resume " + dir + "/j --report " + dir + "/resumed.json",
        log);
    if (rc == fault::kCrashExitCode) {
      ASSERT_LT(round, 16) << "resume chain never finished";
      continue;
    }
    ASSERT_EQ(rc, 0) << slurp(log);
    EXPECT_NE(slurp(log).find("re-certified"), std::string::npos);
    break;
  }
  EXPECT_EQ(normalizeReport(slurp(dir + "/resumed.json")),
            normalizeReport(slurp(dir + "/ref.json")));
}

TEST_F(ResumeCliTest, CorruptJournalIsNeverSilentlyCertified) {
  const std::string dir = testDir("cli_corrupt");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string base = "--impl " + dataPath("alu_impl.blif") +
                           " --spec " + dataPath("alu_spec.blif");
  ASSERT_EQ(runCli("", base + " --report " + dir + "/ref.json",
                   dir + "/ref.log"),
            0);
  ASSERT_EQ(runCli("SYSECO_FAULT_INJECT='journal.checkpoint=crash@1'",
                   base + " --journal " + dir + "/j", dir + "/crash.log"),
            fault::kCrashExitCode);

  // Flip one bit in the newest committed record.
  const std::string path = journalDataPath(dir + "/j");
  std::string data = slurp(path);
  const std::size_t lastLine = data.rfind("\nJ1 ");
  ASSERT_NE(lastLine, std::string::npos);
  data[lastLine + 60] ^= 0x20;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << data;

  const int rc = runCli(
      "", base + " --resume " + dir + "/j --report " + dir + "/resumed.json",
      dir + "/resume.log");
  ASSERT_EQ(rc, 0) << slurp(dir + "/resume.log");
  // The corruption was diagnosed...
  EXPECT_NE(slurp(dir + "/resume.log").find("dropped"), std::string::npos);
  // ...and the final result is still the reference result.
  EXPECT_EQ(normalizeReport(slurp(dir + "/resumed.json")),
            normalizeReport(slurp(dir + "/ref.json")));
}

TEST_F(ResumeCliTest, SigintJournalsProgressAndExits130) {
  const std::string dir = testDir("cli_sigint");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);

  // A case slow enough that SIGINT lands mid-run.
  CaseRecipe r;
  r.name = "sigint";
  r.spec = SpecParams{4, 8, 4, 3, 6, 4, 3, 3};
  r.mutations = 3;
  r.targetRevisedFraction = 0.6;
  r.optRounds = 3;
  r.seed = 21;
  const EcoCase c = makeCase(r);
  saveBlif(dir + "/impl.blif", c.impl);
  saveBlif(dir + "/spec.blif", c.spec);
  const std::string base =
      "--impl " + dir + "/impl.blif --spec " + dir + "/spec.blif";

  ASSERT_EQ(runCli("", base + " --report " + dir + "/ref.json",
                   dir + "/ref.log"),
            0);
  const int rc = runCli(
      "timeout --preserve-status -s INT -k 120 0.2",
      base + " --journal " + dir + "/j", dir + "/int.log");
  if (rc == 0) GTEST_SKIP() << "run finished before the signal landed";
  ASSERT_EQ(rc, 130) << slurp(dir + "/int.log");
  EXPECT_NE(slurp(dir + "/int.log").find("interrupted"), std::string::npos);

  ASSERT_EQ(runCli("", base + " --resume " + dir + "/j --report " + dir +
                           "/resumed.json",
                   dir + "/resume.log"),
            0)
      << slurp(dir + "/resume.log");
  EXPECT_EQ(normalizeReport(slurp(dir + "/resumed.json")),
            normalizeReport(slurp(dir + "/ref.json")));
}

TEST_F(ResumeCliTest, SigtermMidIsolatedRunResumesBitIdentically) {
  const std::string dir = testDir("cli_sigterm_isolate");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);

  // A case slow enough that SIGTERM lands while worker subprocesses are
  // still in flight.
  CaseRecipe r;
  r.name = "sigterm_isolate";
  r.spec = SpecParams{4, 8, 4, 3, 6, 4, 3, 3};
  r.mutations = 3;
  r.targetRevisedFraction = 0.6;
  r.optRounds = 3;
  r.seed = 21;
  const EcoCase c = makeCase(r);
  saveBlif(dir + "/impl.blif", c.impl);
  saveBlif(dir + "/spec.blif", c.spec);
  const std::string base = "--impl " + dir + "/impl.blif --spec " + dir +
                           "/spec.blif --isolate --jobs 2";

  // Reference: one uninterrupted isolated run.
  ASSERT_EQ(runCli("", base + " --report " + dir + "/ref.json",
                   dir + "/ref.log"),
            0)
      << slurp(dir + "/ref.log");

  // SIGTERM mid-run: the supervisor finishes the in-flight commit, journals
  // a clean interrupted record, kills its workers and exits 130.
  const int rc = runCli("timeout --preserve-status -s TERM -k 120 0.2",
                        base + " --journal " + dir + "/j", dir + "/term.log");
  if (rc == 0) GTEST_SKIP() << "run finished before the signal landed";
  ASSERT_EQ(rc, 130) << slurp(dir + "/term.log");
  EXPECT_NE(slurp(dir + "/term.log").find("interrupted"), std::string::npos);

  // Resuming (still isolated) completes to the reference, byte for byte.
  ASSERT_EQ(runCli("", base + " --resume " + dir + "/j --report " + dir +
                           "/resumed.json",
                   dir + "/resume.log"),
            0)
      << slurp(dir + "/resume.log");
  EXPECT_EQ(normalizeReport(slurp(dir + "/resumed.json")),
            normalizeReport(slurp(dir + "/ref.json")));
}

#endif  // SYSECO_CLI_BIN

}  // namespace
}  // namespace syseco
