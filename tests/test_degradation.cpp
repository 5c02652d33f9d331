// Degradation tests: with faults or real resource limits forcing budget
// exhaustion in every engine phase, a run must still terminate with a
// SAT-verified patch and an honest per-output status report. These are the
// paths production rarely exercises - the whole point of the governor.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <string>

#include "eco/isolate.hpp"
#include "eco/patch.hpp"
#include "eco/syseco.hpp"
#include "gen/eco_case.hpp"
#include "io/blif_io.hpp"
#include "util/fault.hpp"
#include "util/status.hpp"

#ifndef SYSECO_SOURCE_DIR
#define SYSECO_SOURCE_DIR "."
#endif

namespace syseco {
namespace {

class DegradationTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::instance().reset(); }
  void TearDown() override { fault::Injector::instance().reset(); }

  static Netlist aluImpl() {
    return loadBlif(std::string(SYSECO_SOURCE_DIR) + "/data/alu_impl.blif");
  }
  static Netlist aluSpec() {
    return loadBlif(std::string(SYSECO_SOURCE_DIR) + "/data/alu_spec.blif");
  }

  /// Every processed output must carry a report, and a verified result.
  static void expectSoundRun(const EcoResult& res,
                             const SysecoDiagnostics& diag,
                             const Netlist& spec) {
    EXPECT_TRUE(res.success);
    EXPECT_TRUE(res.rectified.isWellFormed());
    EXPECT_TRUE(verifyAllOutputs(res.rectified, spec));
    EXPECT_GE(diag.outputs.size(), res.failingOutputsBefore);
  }
};

TEST_F(DegradationTest, UnlimitedRunOnAluIsExactAndClean) {
  const Netlist impl = aluImpl(), spec = aluSpec();
  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(impl, spec, SysecoOptions{}, &diag);
  expectSoundRun(res, diag, spec);
  EXPECT_FALSE(diag.resourceDegraded());
  EXPECT_EQ(diag.runLimit, StatusCode::kOk);
  for (const OutputReport& r : diag.outputs) {
    EXPECT_EQ(r.limit, StatusCode::kOk);
    EXPECT_EQ(r.status, OutputRectStatus::kExact) << "output " << r.name;
  }
}

TEST_F(DegradationTest, SamplingBudgetFaultFallsBackVerified) {
  fault::Injector::instance().arm("syseco.sampling",
                                  fault::Kind::kBudgetExhausted);
  const Netlist impl = aluImpl(), spec = aluSpec();
  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(impl, spec, SysecoOptions{}, &diag);
  expectSoundRun(res, diag, spec);
  EXPECT_TRUE(diag.resourceDegraded());
  std::size_t fallbacks = 0;
  for (const OutputReport& r : diag.outputs) {
    if (r.status == OutputRectStatus::kFallback) {
      ++fallbacks;
      EXPECT_EQ(r.limit, StatusCode::kBudgetExhausted);
    }
  }
  EXPECT_GE(fallbacks, 1u);
}

TEST_F(DegradationTest, PointSetBddBlowupFaultDegradesVerified) {
  fault::Injector::instance().arm("syseco.pointsets",
                                  fault::Kind::kBddBlowup);
  const Netlist impl = aluImpl(), spec = aluSpec();
  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(impl, spec, SysecoOptions{}, &diag);
  expectSoundRun(res, diag, spec);
  // A persistent blowup exhausts every shrink retry; the staged
  // degradation must be visible in the reports and end in fallbacks.
  std::size_t degradeSteps = 0, fallbacks = 0;
  for (const OutputReport& r : diag.outputs) {
    degradeSteps += static_cast<std::size_t>(r.degradeSteps);
    fallbacks += r.status == OutputRectStatus::kFallback;
  }
  EXPECT_GE(degradeSteps, 1u);
  EXPECT_GE(fallbacks, 1u);
}

TEST_F(DegradationTest, PointSetAllocFailureFaultDegradesVerified) {
  fault::Injector::instance().arm("syseco.pointsets",
                                  fault::Kind::kAllocFailure);
  const Netlist impl = aluImpl(), spec = aluSpec();
  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(impl, spec, SysecoOptions{}, &diag);
  expectSoundRun(res, diag, spec);
  std::size_t degradeSteps = 0;
  for (const OutputReport& r : diag.outputs)
    degradeSteps += static_cast<std::size_t>(r.degradeSteps);
  EXPECT_GE(degradeSteps, 1u);
}

TEST_F(DegradationTest, ValidationBudgetFaultFallsBackVerified) {
  fault::Injector::instance().arm("syseco.validation",
                                  fault::Kind::kBudgetExhausted);
  const Netlist impl = aluImpl(), spec = aluSpec();
  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(impl, spec, SysecoOptions{}, &diag);
  expectSoundRun(res, diag, spec);
  EXPECT_TRUE(diag.resourceDegraded());
  std::size_t fallbacks = 0;
  for (const OutputReport& r : diag.outputs)
    fallbacks += r.status == OutputRectStatus::kFallback;
  EXPECT_GE(fallbacks, 1u);
}

TEST_F(DegradationTest, RefineBudgetFaultFallsBackVerified) {
  fault::Injector::instance().arm("syseco.refine",
                                  fault::Kind::kBudgetExhausted);
  const Netlist impl = aluImpl(), spec = aluSpec();
  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(impl, spec, SysecoOptions{}, &diag);
  expectSoundRun(res, diag, spec);
  EXPECT_TRUE(diag.resourceDegraded());
}

TEST_F(DegradationTest, TinyDeadlineStillProducesVerifiedPatch) {
  const Netlist impl = aluImpl(), spec = aluSpec();
  SysecoOptions opt;
  opt.deadlineSeconds = 1e-4;  // far below the ~40ms exact run
  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(impl, spec, opt, &diag);
  expectSoundRun(res, diag, spec);
  EXPECT_TRUE(diag.resourceDegraded());
  EXPECT_EQ(diag.runLimit, StatusCode::kDeadlineExceeded);
  std::size_t fallbacks = 0;
  for (const OutputReport& r : diag.outputs)
    fallbacks += r.status == OutputRectStatus::kFallback;
  EXPECT_GE(fallbacks, 1u);
}

TEST_F(DegradationTest, TinyConflictBudgetStillProducesVerifiedPatch) {
  const Netlist impl = aluImpl(), spec = aluSpec();
  SysecoOptions opt;
  opt.totalConflictBudget = 20;
  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(impl, spec, opt, &diag);
  expectSoundRun(res, diag, spec);
  EXPECT_TRUE(diag.resourceDegraded());
  EXPECT_LE(diag.conflictsUsed, 20 + 256) << "budget should bind tightly";
}

TEST_F(DegradationTest, TinyBddNodeBudgetStillProducesVerifiedPatch) {
  const Netlist impl = aluImpl(), spec = aluSpec();
  SysecoOptions opt;
  opt.totalBddNodeBudget = 100;
  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(impl, spec, opt, &diag);
  expectSoundRun(res, diag, spec);
  EXPECT_TRUE(diag.resourceDegraded());
}

TEST_F(DegradationTest, GovernedRandomCasesStaySound) {
  // Sweep of random cases under a mix of budgets: the completeness
  // guarantee must hold whatever the generator produces.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    CaseRecipe r;
    r.name = "degrade";
    r.spec = SpecParams{2, 5, 3, 2, 4, 3, 2, 2};
    r.mutations = 2;
    r.seed = seed;
    const EcoCase c = makeCase(r);
    SysecoOptions opt;
    opt.totalConflictBudget = 50;
    opt.deadlineSeconds = 0.01;
    SysecoDiagnostics diag;
    const EcoResult res = runSyseco(c.impl, c.spec, opt, &diag);
    EXPECT_TRUE(res.success) << "seed " << seed;
    EXPECT_TRUE(verifyAllOutputs(res.rectified, c.spec)) << "seed " << seed;
  }
}

// --- Option validation ------------------------------------------------------

TEST_F(DegradationTest, DefaultOptionsValidate) {
  EXPECT_TRUE(validateSysecoOptions(SysecoOptions{}).isOk());
}

TEST_F(DegradationTest, NonsensicalOptionsAreRejected) {
  const auto rejects = [](SysecoOptions o) {
    const Status s = validateSysecoOptions(o);
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), StatusCode::kInvalidInput);
  };
  SysecoOptions o;
  o.numSamples = 0;
  rejects(o);
  o = {};
  o.maxPoints = 0;
  rejects(o);
  o = {};
  o.maxPoints = -3;
  rejects(o);
  o = {};
  o.maxCandidatePins = 0;
  rejects(o);
  o = {};
  o.maxRewireNets = 0;
  rejects(o);
  o = {};
  o.maxPointSets = 0;
  rejects(o);
  o = {};
  o.maxChoices = 0;
  rejects(o);
  o = {};
  o.maxRefineIters = -1;
  rejects(o);
  o = {};
  o.validationBudget = 0;
  rejects(o);
  o = {};
  o.samplingBudget = -5;
  rejects(o);
  o = {};
  o.bddNodeLimit = 0;
  rejects(o);
  o = {};
  o.deadlineSeconds = -1.0;
  rejects(o);
  o = {};
  o.totalConflictBudget = -1;
  rejects(o);
  o = {};
  o.totalBddNodeBudget = -1;
  rejects(o);
  o = {};
  o.jobs = static_cast<std::size_t>(kMaxCaseJobs) + 1;
  rejects(o);
}

TEST_F(DegradationTest, CheckedEntryPointReturnsInvalidInput) {
  const Netlist impl = aluImpl(), spec = aluSpec();
  SysecoOptions opt;
  opt.numSamples = 0;
  SysecoDiagnostics diag;
  const Result<EcoResult> r = runSysecoChecked(impl, spec, opt, &diag);
  EXPECT_FALSE(r.isOk());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidInput);
}

TEST_F(DegradationTest, ThrowingEntryPointThrowsStatusError) {
  const Netlist impl = aluImpl(), spec = aluSpec();
  SysecoOptions opt;
  opt.maxPoints = 0;
  try {
    runSyseco(impl, spec, opt);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidInput);
  }
}

// --- CLI option parsing ------------------------------------------------------

#ifdef SYSECO_CLI_BIN

/// Exit code of the CLI on `args`; every case here fails before a run
/// starts, so nothing is searched or written.
int runCliExit(const std::string& args) {
  const std::string cmd =
      std::string(SYSECO_CLI_BIN) + " " + args + " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(CliOptions, NegativeUnsignedValuesAreBadValuesNotWrapped) {
  for (const char* args :
       {"--samples -1", "--jobs -1", "--seed -5", "--isolate-mem-mb -1",
        "--oracle-bdd-budget -1", "--serve-pool -1",
        "--serve-cache-slots -2", "--samples=-1", "--samples ' -1'"})
    EXPECT_EQ(runCliExit(args), 3) << args;
}

TEST(CliOptions, ZeroDaemonCapsAreRejected) {
  for (const char* args : {"--serve-max-jobs 0", "--serve-max-tenant 0",
                           "--serve-max-bytes-mb 0", "--serve-pool 0"})
    EXPECT_EQ(runCliExit(args), 3) << args;
}

TEST(CliOptions, RemovedEngineFlagsAreUnknownOptions) {
  // With a valid pair, a still-known flag would start a run; a removed one
  // must stop at parse time as an unknown option.
  const std::string pair = std::string("--impl ") + SYSECO_SOURCE_DIR +
                           "/data/alu_impl.blif --spec " + SYSECO_SOURCE_DIR +
                           "/data/alu_spec.blif ";
  for (const char* flag :
       {"--no-oracle", "--bdd-reorder off", "--bdd-cache-bits 14",
        "--bdd-reorder-threshold 4096", "--patch-minimize on"})
    EXPECT_EQ(runCliExit(pair + flag), 2) << flag;
}

#endif  // SYSECO_CLI_BIN

}  // namespace
}  // namespace syseco
