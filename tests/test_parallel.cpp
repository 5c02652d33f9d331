// Parallel rectification: the FIFO thread pool, the shared structural
// analyses, and the engine's determinism guarantee - `jobs = N` must be
// bit-identical to `jobs = 1` in reports, patches and journal records
// (wall-clock timing excepted). These tests carry the `sanitize` label so
// a ThreadSanitizer build (`-DSYSECO_SANITIZE=thread`) exercises exactly
// the concurrent paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "already_fixed.hpp"
#include "eco/resume.hpp"
#include "eco/syseco.hpp"
#include "expect_certificates.hpp"
#include "gen/eco_case.hpp"
#include "io/blif_io.hpp"
#include "io/journal_io.hpp"
#include "netlist/analysis.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace syseco {
namespace {

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kTasks = 200;
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i)
    futures.push_back(
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, ZeroThreadsRunsInlineAtSubmit) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threadCount(), 0u);
  bool ran = false;
  std::future<void> f = pool.submit([&ran] { ran = true; });
  // Inline mode: the task has already run when submit() returns.
  EXPECT_TRUE(ran);
  f.get();
}

TEST(ThreadPool, ExceptionsPropagateThroughTheFuture) {
  ThreadPool pool(2);
  std::future<void> f =
      pool.submit([] { throw std::runtime_error("worker boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives a throwing task.
  std::atomic<bool> ok{false};
  pool.submit([&ok] { ok = true; }).get();
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i)
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }  // destructor joins; every queued task must have executed
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, TasksStartInSubmissionOrder) {
  // The only thread is held busy while eight tasks queue up behind it; they
  // must then start first-in first-out. (The plan-order supervisor submits
  // its window in plan order so the output due next for commit starts
  // first.)
  ThreadPool pool(1);
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  std::future<void> blocker = pool.submit([gate] { gate.wait(); });
  std::vector<int> order;  // written by the single worker only
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  release.set_value();
  blocker.get();
  for (auto& f : futures) f.get();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ThreadPool, FreedThreadsTakeTheOldestQueuedTasks) {
  // Both threads are held busy while six tasks queue up; when they are
  // freed, they must pick up the two oldest, never a later one.
  ThreadPool pool(2);
  std::promise<void> release, finish;
  const std::shared_future<void> gate = release.get_future().share();
  const std::shared_future<void> done = finish.get_future().share();
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 2; ++i)
    futures.push_back(pool.submit([gate] { gate.wait(); }));
  std::mutex m;
  std::condition_variable cv;
  std::vector<int> started;
  for (int i = 0; i < 6; ++i)
    futures.push_back(pool.submit([&, i] {
      {
        std::lock_guard<std::mutex> lock(m);
        started.push_back(i);
      }
      cv.notify_all();
      done.wait();
    }));
  release.set_value();
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return started.size() >= 2; });
    EXPECT_EQ(std::set<int>(started.begin(), started.end()),
              (std::set<int>{0, 1}));
  }
  finish.set_value();
  for (auto& f : futures) f.get();
  EXPECT_EQ(started.size(), 6u);
}

// --- NetlistAnalysis ------------------------------------------------------

/// Brute-force transitive PI support of one net.
std::set<std::uint32_t> bruteSupport(const Netlist& nl, NetId net) {
  std::set<std::uint32_t> pis;
  std::vector<NetId> stack{net};
  std::set<NetId> seen;
  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;
    const auto& rec = nl.net(n);
    if (rec.srcKind == Netlist::SourceKind::Input) {
      pis.insert(rec.srcIdx);
    } else if (rec.srcKind == Netlist::SourceKind::Gate) {
      for (NetId f : nl.gate(rec.srcIdx).fanins) stack.push_back(f);
    }
  }
  return pis;
}

TEST(NetlistAnalysis, MatchesPerQueryRecomputation) {
  Rng rng(77);
  const SpecCircuit sc = buildSpec(SpecParams{3, 6, 3, 2, 5, 4, 3, 3}, rng);
  const Netlist& nl = sc.netlist;
  const NetlistAnalysis an(nl);

  EXPECT_EQ(an.gatesAtBuild(), nl.numGatesTotal());
  EXPECT_EQ(an.netsAtBuild(), nl.numNetsTotal());
  EXPECT_EQ(an.topoOrder(), nl.topoOrder());
  EXPECT_EQ(an.netLevels(), nl.netLevels());

  for (std::uint32_t o = 0; o < nl.numOutputs(); ++o) {
    const std::vector<GateId> cone = nl.coneGates({nl.outputNet(o)});
    EXPECT_EQ(an.outputConeGates(o), cone) << "output " << o;
    EXPECT_EQ(an.outputConeSize(o), cone.size());
    // Cone membership bitset agrees with the cone list.
    const std::set<GateId> inCone(cone.begin(), cone.end());
    for (GateId g = 0; g < nl.numGatesTotal(); ++g)
      EXPECT_EQ(an.inOutputCone(o, g), inCone.count(g) > 0)
          << "output " << o << " gate " << g;
    // Output support equals the brute-force transitive PI set.
    const std::set<std::uint32_t> want = bruteSupport(nl, nl.outputNet(o));
    const std::vector<std::uint32_t>& got = an.outputSupport(o);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_EQ(std::set<std::uint32_t>(got.begin(), got.end()), want)
        << "output " << o;
  }

  // Per-net support masks agree with brute force on a sample of nets.
  for (NetId n = 0; n < nl.numNetsTotal(); n += 7) {
    const auto mask = an.supports().supportMask(n);
    std::set<std::uint32_t> got;
    for (std::size_t w = 0; w < mask.size(); ++w)
      for (std::uint32_t b = 0; b < 64; ++b)
        if ((mask[w] >> b) & 1)
          got.insert(static_cast<std::uint32_t>(w * 64 + b));
    EXPECT_EQ(got, bruteSupport(nl, n)) << "net " << n;
  }
}

// --- Determinism under parallelism ----------------------------------------

EcoCase parallelCase(std::uint64_t seed) {
  CaseRecipe r;
  r.name = "par" + std::to_string(seed);
  r.spec = SpecParams{3, 6, 3, 2, 5, 4, 3, 3};
  r.mutations = 3;
  r.targetRevisedFraction = 0.3;
  r.optRounds = 2;
  r.seed = seed;
  return makeCase(r);
}

/// The replay-cycle regression case, as committed in data/ (see its
/// README): after earlier commits, the dirty-commit replay of outputs 14
/// and 15 closes a combinational loop, which must be treated as a conflict
/// and redone. The BLIF round trip reproduces the committed files' net
/// numbering, which is what steers the search into the loop.
EcoCase replayCycleCase() {
  CaseRecipe r;
  for (const CaseRecipe& s : suiteRecipes())
    if (s.name == "eco02") r = s;
  r.mutations = 1;
  r.seed = 0x60fb1c09ee2cec09ULL;
  EcoCase c = makeCase(r);
  for (Netlist* n : {&c.impl, &c.spec}) {
    std::stringstream blif;
    writeBlif(blif, *n);
    *n = readBlif(blif);
  }
  return c;
}

/// Wall-clock fields are the only permitted difference between runs.
std::string stripSeconds(std::string record) {
  static const std::regex kSeconds("\"seconds\":[0-9.eE+-]+");
  return std::regex_replace(record, kSeconds, "\"seconds\":T");
}

struct CapturedRun {
  EcoResult result;
  SysecoDiagnostics diag;
  std::string rectifiedDump;
  std::vector<std::string> journal;  ///< serialized records, seconds masked
};

CapturedRun runWithJobs(const EcoCase& c, std::size_t jobs) {
  CapturedRun run;
  SysecoOptions opt;
  opt.jobs = jobs;
  opt.planHook = [&](const std::vector<std::uint32_t>& order,
                     std::size_t failingBefore) {
    run.journal.push_back(serializeRunStart(
        makeRunStartRecord(c.impl, c.spec, opt, order, failingBefore)));
  };
  opt.checkpointHook = [&](const RunCheckpoint& cp) {
    run.journal.push_back(
        stripSeconds(serializeOutputRecord(makeOutputRecord(cp))));
    return true;
  };
  run.result = runSyseco(c.impl, c.spec, opt, &run.diag);
  run.rectifiedDump = run.result.rectified.dumpRawString();
  return run;
}

void expectIdenticalRuns(const CapturedRun& a, const CapturedRun& b) {
  ASSERT_TRUE(a.result.success);
  ASSERT_TRUE(b.result.success);
  // Patch: bit-identical netlists and stats.
  EXPECT_EQ(a.rectifiedDump, b.rectifiedDump);
  EXPECT_EQ(a.result.stats.gates, b.result.stats.gates);
  EXPECT_EQ(a.result.stats.nets, b.result.stats.nets);
  EXPECT_EQ(a.result.stats.inputs, b.result.stats.inputs);
  EXPECT_EQ(a.result.stats.outputs, b.result.stats.outputs);
  EXPECT_EQ(a.result.failingOutputsBefore, b.result.failingOutputsBefore);
  // Reports: everything except wall-clock timing.
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
  // Run totals and search counters.
  EXPECT_EQ(a.diag.conflictsUsed, b.diag.conflictsUsed);
  EXPECT_EQ(a.diag.bddNodesUsed, b.diag.bddNodesUsed);
  EXPECT_EQ(a.diag.outputsRectified, b.diag.outputsRectified);
  EXPECT_EQ(a.diag.outputsViaRewire, b.diag.outputsViaRewire);
  EXPECT_EQ(a.diag.outputsViaFallback, b.diag.outputsViaFallback);
  EXPECT_EQ(a.diag.candidatesValidated, b.diag.candidatesValidated);
  EXPECT_EQ(a.diag.candidatesRefuted, b.diag.candidatesRefuted);
  EXPECT_EQ(a.diag.sweepMerges, b.diag.sweepMerges);
  // Oracle: certificates are computed on up to `jobs` threads but must
  // come back identical, in output order.
  ASSERT_FALSE(a.diag.certificates.empty());
  expectSameCertificates(a.diag.certificates, b.diag.certificates);
  expectSameDisagreements(a.diag.oracleDisagreements,
                          b.diag.oracleDisagreements);
  // Journal: byte-identical records once timing is masked.
  ASSERT_EQ(a.journal.size(), b.journal.size());
  for (std::size_t i = 0; i < a.journal.size(); ++i)
    EXPECT_EQ(a.journal[i], b.journal[i]) << "journal record " << i;
}

class ParallelSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelSeeds, JobsFourIsBitIdenticalToJobsOne) {
  const EcoCase c = parallelCase(GetParam());
  const CapturedRun one = runWithJobs(c, 1);
  const CapturedRun four = runWithJobs(c, 4);
  expectIdenticalRuns(one, four);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSeeds,
                         ::testing::Values(11, 47, 321));

TEST(Parallel, ReplayCycleCaseIsBitIdenticalAcrossJobs) {
  const EcoCase c = replayCycleCase();
  expectIdenticalRuns(runWithJobs(c, 1), runWithJobs(c, 4));
}

TEST(Parallel, JobsTwoIsBitIdenticalToJobsOne) {
  const EcoCase c = parallelCase(5150);
  expectIdenticalRuns(runWithJobs(c, 1), runWithJobs(c, 2));
}

TEST(Parallel, JobsOneLaunchesNoTaskForAnAlreadyFixedOutput) {
  // Earlier commits fix some outputs of this case for free. The supervisor
  // decides that when such an output becomes the commit frontier, before
  // launching its task - so at jobs 1 the task never runs. A never-due
  // one-shot trigger on every task site counts the launches without
  // failing any of them.
  const EcoCase c = parallelCase(8);
  const std::vector<std::uint32_t> fixed = alreadyFixedOutputs(c);
  ASSERT_FALSE(fixed.empty());
  const CapturedRun clean = runWithJobs(c, 1);
  fault::Injector& inj = fault::Injector::instance();
  for (const OutputReport& r : clean.diag.outputs)
    inj.schedule("syseco.task.o" + std::to_string(r.output), fault::Kind::kOom,
                 /*atHit=*/1u << 30);
  const CapturedRun counted = runWithJobs(c, 1);
  for (const OutputReport& r : clean.diag.outputs) {
    const bool isFixed =
        std::find(fixed.begin(), fixed.end(), r.output) != fixed.end();
    EXPECT_EQ(inj.hits("syseco.task.o" + std::to_string(r.output)),
              isFixed ? 0u : 1u)
        << "output " << r.output;
  }
  inj.reset();
  EXPECT_EQ(counted.diag.frontierSkippedTasks, fixed.size());
  EXPECT_EQ(clean.diag.frontierSkippedTasks, fixed.size());
  expectIdenticalRuns(clean, counted);
}

TEST(Parallel, RepeatedParallelRunsAreStable) {
  // Scheduling nondeterminism must never leak: two jobs=4 runs of the same
  // case are bit-identical to each other as well.
  const EcoCase c = parallelCase(808);
  expectIdenticalRuns(runWithJobs(c, 4), runWithJobs(c, 4));
}


}  // namespace
}  // namespace syseco
