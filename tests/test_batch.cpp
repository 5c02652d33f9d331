// Whole-case batch fan-out: the case-dispatch wire codecs (task envelopes
// and whole-case result envelopes with their embedded report/verdicts/
// netlist texts), the batch manifest parser, batch registrations in the
// job queue (named jobs, fold-on-open crash recovery in manifest order),
// the deterministic case-redispatch backoff (pinned to the per-output
// transports' retryBackoffSeconds contract), and runBatch end to end over
// real in-thread agents - remote and local sweeps of the same manifest
// must drain to bit-identical artifacts.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eco/fleet.hpp"
#include "eco/isolate.hpp"
#include "eco/syseco.hpp"
#include "loopback_agent.hpp"
#include "serve/batch.hpp"
#include "serve/job_queue.hpp"
#include "serve/scheduler.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"
#include "util/timer.hpp"

#ifndef SYSECO_SOURCE_DIR
#define SYSECO_SOURCE_DIR "."
#endif

namespace syseco {
namespace {

using serve::CacheCounters;
using serve::Job;
using serve::JobQueue;
using serve::ManifestCase;
using serve::QueueState;

// --- Case names (they name artifact directories on the supervisor) --------

TEST(BatchCaseName, AcceptsPortablePathComponentsOnly) {
  EXPECT_TRUE(validFleetCaseName("alu-seed1"));
  EXPECT_TRUE(validFleetCaseName("a"));
  EXPECT_TRUE(validFleetCaseName("CASE_2.retry"));
  EXPECT_TRUE(validFleetCaseName(std::string(64, 'x')));
  EXPECT_FALSE(validFleetCaseName(""));
  EXPECT_FALSE(validFleetCaseName(std::string(65, 'x')));
  EXPECT_FALSE(validFleetCaseName(".hidden"));
  EXPECT_FALSE(validFleetCaseName(".."));
  EXPECT_FALSE(validFleetCaseName("has space"));
  EXPECT_FALSE(validFleetCaseName("path/escape"));
  EXPECT_FALSE(validFleetCaseName("back\\slash"));
  EXPECT_FALSE(validFleetCaseName(std::string_view("nul\0byte", 8)));
  EXPECT_FALSE(validFleetCaseName("newline\n"));
}

// --- Case-dispatch wire codecs --------------------------------------------

TEST(BatchCodec, CaseTaskRoundtrips) {
  FleetCaseTask task;
  task.name = "alu-seed3";
  task.caseCrc = 0xdeadbeef;
  task.epoch = 0xfeedfacecafeULL;
  task.leaseSeconds = 2.5;
  task.jobs = 4;
  task.attempt = 3;
  Result<FleetCaseTask> back = decodeFleetCaseTask(encodeFleetCaseTask(task));
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  EXPECT_EQ(back.value().name, "alu-seed3");
  EXPECT_EQ(back.value().caseCrc, 0xdeadbeefu);
  EXPECT_EQ(back.value().epoch, 0xfeedfacecafeULL);
  EXPECT_DOUBLE_EQ(back.value().leaseSeconds, 2.5);
  EXPECT_EQ(back.value().jobs, 4u);
  EXPECT_EQ(back.value().attempt, 3);
}

TEST(BatchCodec, CaseTaskFailsClosedOnHostileInput) {
  EXPECT_FALSE(decodeFleetCaseTask("").isOk());
  EXPECT_FALSE(decodeFleetCaseTask("not json").isOk());
  EXPECT_FALSE(decodeFleetCaseTask("[]").isOk());
  EXPECT_FALSE(decodeFleetCaseTask("{\"name\":\"x\"}").isOk());
  FleetCaseTask task;
  task.name = "ok";
  // A hostile case name must be rejected by the decoder even inside an
  // otherwise valid envelope (it would name a directory on the supervisor).
  std::string evil = encodeFleetCaseTask(task);
  const std::size_t at = evil.find("\"ok\"");
  ASSERT_NE(at, std::string::npos);
  evil.replace(at, 4, "\"../escape\"");
  EXPECT_FALSE(decodeFleetCaseTask(evil).isOk());
  // Zero/oversized jobs and non-positive leases are out of contract.
  task.jobs = 0;
  EXPECT_FALSE(decodeFleetCaseTask(encodeFleetCaseTask(task)).isOk());
  task.jobs = 257;
  EXPECT_FALSE(decodeFleetCaseTask(encodeFleetCaseTask(task)).isOk());
  task.jobs = 1;
  task.leaseSeconds = 0.0;
  EXPECT_FALSE(decodeFleetCaseTask(encodeFleetCaseTask(task)).isOk());
  task.leaseSeconds = 1.0;
  task.attempt = 0;
  EXPECT_FALSE(decodeFleetCaseTask(encodeFleetCaseTask(task)).isOk());
}

FleetCaseResult sampleResult() {
  FleetCaseResult r;
  r.epoch = 41;
  r.exitCode = 4;
  r.report = "{\"success\": true}";
  r.verdicts = "{\"type\":\"verdicts\",\"disagreements\":0}";
  r.netlist = "raw netlist snapshot";
  r.cacheHits = 1;
  r.cacheMisses = 2;
  r.cacheEvictions = 3;
  return r;
}

TEST(BatchCodec, CaseResultRoundtrips) {
  const FleetCaseResult r = sampleResult();
  Result<FleetCaseResult> back =
      decodeFleetCaseResult(encodeFleetCaseResult(r));
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  EXPECT_EQ(back.value().epoch, 41u);
  EXPECT_EQ(back.value().exitCode, 4);
  EXPECT_EQ(back.value().report, r.report);
  EXPECT_EQ(back.value().verdicts, r.verdicts);
  EXPECT_EQ(back.value().netlist, r.netlist);
  EXPECT_EQ(back.value().cacheHits, 1u);
  EXPECT_EQ(back.value().cacheMisses, 2u);
  EXPECT_EQ(back.value().cacheEvictions, 3u);
  // The oracle-disabled shape (no verdicts record) is legal.
  FleetCaseResult noOracle = r;
  noOracle.verdicts.clear();
  EXPECT_TRUE(
      decodeFleetCaseResult(encodeFleetCaseResult(noOracle)).isOk());
}

TEST(BatchCodec, CaseResultFailsClosedOnHostileInput) {
  EXPECT_FALSE(decodeFleetCaseResult("").isOk());
  EXPECT_FALSE(decodeFleetCaseResult("not json").isOk());
  EXPECT_FALSE(decodeFleetCaseResult("{}").isOk());
  // The report is re-served to clients verbatim: non-JSON is rejected at
  // the wire, not discovered by a client later.
  FleetCaseResult r = sampleResult();
  r.report = "not a json object";
  EXPECT_FALSE(decodeFleetCaseResult(encodeFleetCaseResult(r)).isOk());
  r = sampleResult();
  r.report = "[1,2,3]";
  EXPECT_FALSE(decodeFleetCaseResult(encodeFleetCaseResult(r)).isOk());
  // The verdicts record is compared byte-for-byte with local journal lines:
  // embedded newlines and mistagged records are out of contract.
  r = sampleResult();
  r.verdicts = "{\"type\":\"verdicts\"}\n{\"type\":\"verdicts\"}";
  EXPECT_FALSE(decodeFleetCaseResult(encodeFleetCaseResult(r)).isOk());
  r = sampleResult();
  r.verdicts = "{\"type\":\"output\"}";
  EXPECT_FALSE(decodeFleetCaseResult(encodeFleetCaseResult(r)).isOk());
  r = sampleResult();
  r.verdicts = "plain text";
  EXPECT_FALSE(decodeFleetCaseResult(encodeFleetCaseResult(r)).isOk());
  // Exit codes outside the wait-status byte are forgeries.
  std::string evil = encodeFleetCaseResult(sampleResult());
  const std::size_t at = evil.find("\"exit_code\":4");
  ASSERT_NE(at, std::string::npos);
  evil.replace(at, 13, "\"exit_code\":300");
  EXPECT_FALSE(decodeFleetCaseResult(evil).isOk());
  evil = encodeFleetCaseResult(sampleResult());
  evil.replace(evil.find("\"exit_code\":4"), 13, "\"exit_code\":-1");
  EXPECT_FALSE(decodeFleetCaseResult(evil).isOk());
}

// --- Deterministic case-redispatch pacing (the shared jitter contract) ----

TEST(BatchBackoff, IsExactlyTheWorkerRetryContract) {
  // The case scheduler reuses retryBackoffSeconds keyed by a case ordinal
  // (crc32 of the job id) - no new RNG path. Pin bitwise equality so a divergence (a new jitter
  // source, a different cap) fails loudly.
  for (double baseMs : {1.0, 100.0, 250.0}) {
    for (std::uint64_t seed : {1ull, 7ull, 0x12345678ull}) {
      SysecoOptions opt;
      opt.isolateBackoffMs = baseMs;
      opt.seed = seed;
      for (std::uint32_t ordinal : {0u, 3u, 999u}) {
        for (int attempt = 1; attempt <= 12; ++attempt) {
          EXPECT_DOUBLE_EQ(
              serve::caseRedispatchBackoffSeconds(baseMs, seed, ordinal,
                                                  attempt),
              retryBackoffSeconds(opt, ordinal, attempt))
              << baseMs << "/" << seed << "/" << ordinal << "/" << attempt;
        }
      }
    }
  }
}

TEST(BatchBackoff, SameInputsSameScheduleAcrossDriverLives) {
  // A SIGKILLed-and-restarted driver recomputes the schedule from the
  // queue's (seed, ordinal, attempt) alone; two calls must agree exactly.
  const double a = serve::caseRedispatchBackoffSeconds(100.0, 42, 5, 3);
  const double b = serve::caseRedispatchBackoffSeconds(100.0, 42, 5, 3);
  EXPECT_EQ(a, b);
  // And the jitter really keys on seed and ordinal.
  EXPECT_NE(serve::caseRedispatchBackoffSeconds(100.0, 42, 5, 3),
            serve::caseRedispatchBackoffSeconds(100.0, 43, 5, 3));
  EXPECT_NE(serve::caseRedispatchBackoffSeconds(100.0, 42, 5, 3),
            serve::caseRedispatchBackoffSeconds(100.0, 42, 6, 3));
}

// --- Manifest parsing ------------------------------------------------------

TEST(BatchManifest, ParsesCasesWithDefaults) {
  Result<std::vector<ManifestCase>> cases = serve::parseBatchManifest(
      "{\"cases\": ["
      "{\"name\": \"a\", \"impl\": \"i1.blif\", \"spec\": \"s1.blif\"},"
      "{\"name\": \"b\", \"impl\": \"i2.blif\", \"spec\": \"s2.blif\","
      " \"seed\": 9, \"jobs\": 2}]}");
  ASSERT_TRUE(cases.isOk()) << cases.status().toString();
  ASSERT_EQ(cases.value().size(), 2u);
  EXPECT_EQ(cases.value()[0].name, "a");
  EXPECT_FALSE(cases.value()[0].hasSeed);
  EXPECT_FALSE(cases.value()[0].hasJobs);
  EXPECT_EQ(cases.value()[1].name, "b");
  EXPECT_TRUE(cases.value()[1].hasSeed);
  EXPECT_EQ(cases.value()[1].seed, 9u);
  EXPECT_TRUE(cases.value()[1].hasJobs);
  EXPECT_EQ(cases.value()[1].jobs, 2);
}

TEST(BatchManifest, FailsClosedOnHostileInput) {
  const char* corpus[] = {
      "",
      "not json",
      "[]",
      "{}",
      "{\"cases\": []}",
      "{\"cases\": [{}]}",
      "{\"cases\": [{\"name\": \"a\"}]}",
      "{\"cases\": [{\"name\": \"a\", \"impl\": \"i\"}]}",
      // hostile name: path escape
      "{\"cases\": [{\"name\": \"../x\", \"impl\": \"i\", \"spec\": \"s\"}]}",
      // duplicate names would collide on one artifact directory
      "{\"cases\": ["
      "{\"name\": \"a\", \"impl\": \"i\", \"spec\": \"s\"},"
      "{\"name\": \"a\", \"impl\": \"i\", \"spec\": \"s\"}]}",
      // negative seed / zero jobs / absurd jobs
      "{\"cases\": [{\"name\": \"a\", \"impl\": \"i\", \"spec\": \"s\","
      " \"seed\": -1}]}",
      "{\"cases\": [{\"name\": \"a\", \"impl\": \"i\", \"spec\": \"s\","
      " \"jobs\": 0}]}",
      "{\"cases\": [{\"name\": \"a\", \"impl\": \"i\", \"spec\": \"s\","
      " \"jobs\": 100000}]}",
  };
  for (const char* text : corpus)
    EXPECT_FALSE(serve::parseBatchManifest(text).isOk()) << text;
}

// --- Batch registrations in the job queue ---------------------------------

std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "syseco_batch_" + name;
  const std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
  return dir;
}

serve::SubmitRequest caseRequest(const std::string& impl, std::uint64_t seed,
                                 std::int64_t jobs) {
  serve::SubmitRequest r;
  r.implText = impl;
  r.specText = "spec";
  r.seed = seed;
  r.jobs = jobs;
  return r;
}

TEST(BatchLedgerWal, TransitionsAreDurableAndFoldBack) {
  const std::string dir = freshDir("fold");
  {
    Result<JobQueue> queue = JobQueue::open(dir);
    ASSERT_TRUE(queue.isOk()) << queue.status().toString();
    EXPECT_TRUE(queue.value().all().empty());
    // Registered out of id order on purpose: recovery must keep manifest
    // (submission) order, not sort the names.
    Result<Job*> z = queue.value().submit(caseRequest("i", 1, 1), "z");
    Result<Job*> b = queue.value().submit(caseRequest("i", 2, 2), "b");
    ASSERT_TRUE(z.isOk() && b.isOk());
    EXPECT_EQ(z.value()->id, "z");
    ASSERT_TRUE(queue.value().markRunning(*z.value(), 1, "w:1").isOk());
    ASSERT_TRUE(
        queue.value().markDone(*z.value(), 0, CacheCounters{3, 4, 5}).isOk());
    // b stays queued. Drop the queue without any shutdown ceremony.
  }
  Result<JobQueue> back = JobQueue::open(dir);
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  ASSERT_EQ(back.value().all().size(), 2u);
  EXPECT_EQ(back.value().all()[0]->id, "z");
  EXPECT_EQ(back.value().all()[1]->id, "b");
  Job* z = back.value().find("z");
  Job* b = back.value().find("b");
  ASSERT_NE(z, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(z->state, QueueState::kDone);
  EXPECT_EQ(z->exitCode, 0);
  EXPECT_EQ(z->worker, "w:1");
  EXPECT_EQ(z->cache.hits, 3u);
  EXPECT_EQ(z->cache.evictions, 5u);
  EXPECT_EQ(b->state, QueueState::kQueued);
  EXPECT_EQ(b->seed, 2u);
  EXPECT_EQ(b->jobs, 2);
}

TEST(BatchLedgerWal, MidDispatchKillRecoversAsQueuedWithResume) {
  const std::string dir = freshDir("recover");
  {
    Result<JobQueue> queue = JobQueue::open(dir);
    ASSERT_TRUE(queue.isOk());
    Result<Job*> c = queue.value().submit(caseRequest("i", 3, 1), "c");
    ASSERT_TRUE(c.isOk());
    ASSERT_TRUE(
        queue.value().markRunning(*c.value(), 2, "127.0.0.1:1").isOk());
    // SIGKILL here: the WAL's last word about c is "running".
  }
  Result<JobQueue> back = JobQueue::open(dir);
  ASSERT_TRUE(back.isOk());
  Job* c = back.value().find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->state, QueueState::kQueued) << "orphaned case must re-queue";
  EXPECT_TRUE(c->resume) << "recovery must resume the engine journal";
  EXPECT_EQ(c->attempt, 2) << "attempt accounting survives the kill";
  bool noted = false;
  for (const std::string& n : back.value().recoveryNotes())
    noted |= n.find("job c ") != std::string::npos;
  EXPECT_TRUE(noted) << "recovery must be observable";
}

TEST(BatchLedgerWal, ReRegistrationIsIdempotentButGuardsTheManifest) {
  const std::string dir = freshDir("idem");
  Result<JobQueue> queue = JobQueue::open(dir);
  ASSERT_TRUE(queue.isOk());
  Result<Job*> first = queue.value().submit(caseRequest("i", 1, 1), "a");
  ASSERT_TRUE(first.isOk());
  Result<Job*> again = queue.value().submit(caseRequest("i", 1, 1), "a");
  ASSERT_TRUE(again.isOk());
  EXPECT_EQ(first.value(), again.value()) << "same case, same record";
  EXPECT_EQ(queue.value().all().size(), 1u);
  // The same name with different inputs is a different sweep: refuse it
  // rather than silently mixing manifests on one state directory.
  Result<Job*> otherPayload =
      queue.value().submit(caseRequest("OTHER", 1, 1), "a");
  ASSERT_FALSE(otherPayload.isOk());
  EXPECT_EQ(otherPayload.status().code(), StatusCode::kInvalidInput);
  EXPECT_FALSE(queue.value().submit(caseRequest("i", 2, 1), "a").isOk());
  EXPECT_FALSE(queue.value().submit(caseRequest("i", 1, 2), "a").isOk());
  serve::SubmitRequest otherFormat = caseRequest("i", 1, 1);
  otherFormat.format = "v";
  EXPECT_FALSE(queue.value().submit(otherFormat, "a").isOk());
  EXPECT_EQ(queue.value().all().size(), 1u);
}

TEST(BatchLedgerWal, GarbageWalRecordsAreQuarantinedNotFatal) {
  const std::string dir = freshDir("garbage");
  {
    Result<JobQueue> queue = JobQueue::open(dir);
    ASSERT_TRUE(queue.isOk());
    ASSERT_TRUE(queue.value().submit(caseRequest("i", 1, 1), "a").isOk());
  }
  // Append raw garbage past the valid records.
  std::ofstream(dir + "/queue/journal.jsonl", std::ios::app)
      << "J1 zzzz not-a-frame\n";
  Result<JobQueue> back = JobQueue::open(dir);
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  EXPECT_NE(back.value().find("a"), nullptr);
}

// --- End to end: remote and local sweeps are bit-identical -----------------

#ifdef SYSECO_CLI_BIN

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

std::string writeManifest(const std::string& dir) {
  const std::string impl = std::string(SYSECO_SOURCE_DIR) + "/data/alu_impl.blif";
  const std::string spec = std::string(SYSECO_SOURCE_DIR) + "/data/alu_spec.blif";
  const std::string path = dir + "/manifest.json";
  std::ofstream(path) << "{\"cases\": [\n"
                      << "  {\"name\": \"alu-s1\", \"impl\": \"" << impl
                      << "\", \"spec\": \"" << spec << "\", \"seed\": 1},\n"
                      << "  {\"name\": \"alu-s2\", \"impl\": \"" << impl
                      << "\", \"spec\": \"" << spec << "\", \"seed\": 2}\n"
                      << "]}\n";
  return path;
}

serve::BatchOptions baseOptions(const std::string& manifest,
                                const std::string& stateDir) {
  serve::BatchOptions opt;
  opt.manifestPath = manifest;
  opt.stateDir = stateDir;
  opt.selfExe = SYSECO_CLI_BIN;
  opt.poolSize = 2;
  opt.fleetLeaseSeconds = 10.0;
  opt.fleetConnectTimeoutMs = 500;
  return opt;
}

TEST(BatchEndToEnd, RemoteSweepMatchesTheLocalPoolBitForBit) {
  const std::string dir = freshDir("e2e");
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  const std::string manifest = writeManifest(dir);

  // Remote: two real agents over loopback.
  LoopbackAgent a1, a2;
  a1.start();
  a2.start();
  serve::BatchOptions remote = baseOptions(manifest, dir + "/remote");
  remote.workers = {a1.spec(), a2.spec()};
  Result<serve::BatchOutcome> r1 = serve::runBatch(remote);
  ASSERT_TRUE(r1.isOk()) << r1.status().toString();
  EXPECT_EQ(r1.value().done, 2u);
  EXPECT_EQ(r1.value().failed, 0u);
  EXPECT_FALSE(r1.value().degradedToLocal);

  // Local: the pool forks the real CLI per case.
  serve::BatchOptions local = baseOptions(manifest, dir + "/local");
  Result<serve::BatchOutcome> r2 = serve::runBatch(local);
  ASSERT_TRUE(r2.isOk()) << r2.status().toString();
  EXPECT_EQ(r2.value().done, 2u);
  EXPECT_EQ(r2.value().failed, 0u);

  for (const char* name : {"alu-s1", "alu-s2"}) {
    const std::string rc = dir + "/remote/jobs/" + name;
    const std::string lc = dir + "/local/jobs/" + name;
    const std::string rOut = slurp(rc + "/out.blif");
    ASSERT_FALSE(rOut.empty()) << name;
    EXPECT_EQ(rOut, slurp(lc + "/out.blif")) << name << " netlist diverged";
    const std::string rVerdicts = slurp(rc + "/verdicts.txt");
    ASSERT_FALSE(rVerdicts.empty()) << name;
    EXPECT_EQ(rVerdicts, slurp(lc + "/verdicts.txt"))
        << name << " verdicts diverged";
  }
  // Satellite observability: the batch report surfaces agent cache counters.
  const std::string report = slurp(dir + "/remote/batch_report.json");
  EXPECT_NE(report.find("\"cache_totals\""), std::string::npos);
  EXPECT_NE(report.find("\"misses\""), std::string::npos);
}

TEST(BatchEndToEnd, DeadFleetDegradesToTheLocalPool) {
  const std::string dir = freshDir("degrade");
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  const std::string manifest = writeManifest(dir);
  serve::BatchOptions opt = baseOptions(manifest, dir + "/state");
  opt.workers = {"127.0.0.1:1", "127.0.0.1:2"};  // nothing listens there
  opt.fleetConnectTimeoutMs = 200;
  Result<serve::BatchOutcome> out = serve::runBatch(opt);
  ASSERT_TRUE(out.isOk()) << out.status().toString();
  EXPECT_EQ(out.value().done, 2u);
  EXPECT_EQ(out.value().failed, 0u);
  EXPECT_TRUE(out.value().degradedToLocal);
  EXPECT_FALSE(slurp(dir + "/state/jobs/alu-s1/out.blif").empty());
}

TEST(BatchEndToEnd, UnparseableCaseFailsAsInvalidInputAndTheSweepContinues) {
  const std::string dir = freshDir("invalid");
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  const std::string impl =
      std::string(SYSECO_SOURCE_DIR) + "/data/alu_impl.blif";
  const std::string spec =
      std::string(SYSECO_SOURCE_DIR) + "/data/alu_spec.blif";
  std::ofstream(dir + "/junk.blif") << "this is not a blif netlist\n";
  const std::string manifest = dir + "/manifest.json";
  std::ofstream(manifest) << "{\"cases\": [\n"
                          << "  {\"name\": \"junk\", \"impl\": \"" << dir
                          << "/junk.blif\", \"spec\": \"" << spec << "\"},\n"
                          << "  {\"name\": \"alu\", \"impl\": \"" << impl
                          << "\", \"spec\": \"" << spec << "\"}\n"
                          << "]}\n";
  Result<serve::BatchOutcome> out =
      serve::runBatch(baseOptions(manifest, dir + "/state"));
  ASSERT_TRUE(out.isOk()) << out.status().toString();
  EXPECT_EQ(out.value().done, 1u);
  EXPECT_EQ(out.value().failed, 1u);
  Result<JobQueue> queue = JobQueue::open(dir + "/state");
  ASSERT_TRUE(queue.isOk());
  const Job* junk = queue.value().find("junk");
  ASSERT_NE(junk, nullptr);
  EXPECT_EQ(junk->state, QueueState::kFailed);
  EXPECT_EQ(junk->cause, "invalid-input");
  EXPECT_EQ(junk->attempt, 0) << "never dispatched";
  EXPECT_FALSE(slurp(dir + "/state/jobs/alu/verdicts.txt").empty());
}

TEST(BatchEndToEnd, FreshStateDirRefusesAResumedLedger) {
  const std::string dir = freshDir("refuse");
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  const std::string manifest = writeManifest(dir);
  serve::BatchOptions opt = baseOptions(manifest, dir + "/state");
  Result<serve::BatchOutcome> first = serve::runBatch(opt);
  ASSERT_TRUE(first.isOk()) << first.status().toString();
  // Same state dir, expectResume unset: refuse instead of mixing sweeps.
  Result<serve::BatchOutcome> second = serve::runBatch(opt);
  ASSERT_FALSE(second.isOk());
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidInput);
  // With expectResume the finished sweep re-opens and drains trivially.
  opt.expectResume = true;
  Result<serve::BatchOutcome> third = serve::runBatch(opt);
  ASSERT_TRUE(third.isOk()) << third.status().toString();
  EXPECT_EQ(third.value().done, 2u);
}

TEST(BatchEndToEnd, LeaseExpiryThenDisconnectMarksTheAgentDead) {
  const std::string dir = freshDir("lease_then_drop");
  RoguePeer rogue;
  rogue.start([](RoguePeer& self, int& fd, std::string& rx) {
    // Lose the case lease in silence (one strike), then hang up (the
    // second).
    (void)self.readFrame(fd, rx);
    self.sleepMs(1000);
    net::closeSocket(fd);
    self.closeListener();
  });
  LoopbackAgent good;
  good.start();
  serve::SchedulerOptions opt;
  opt.stateDir = dir;
  opt.selfExe = SYSECO_CLI_BIN;
  opt.workers = {rogue.spec(), good.spec()};
  opt.fleetLeaseSeconds = 0.4;
  opt.fleetConnectTimeoutMs = 500;
  Result<JobQueue> queue = JobQueue::open(dir);
  ASSERT_TRUE(queue.isOk()) << queue.status().toString();
  serve::Scheduler sched(opt, queue.take());
  serve::SubmitRequest req;
  req.implText = slurp(std::string(SYSECO_SOURCE_DIR) + "/data/alu_impl.blif");
  req.specText = slurp(std::string(SYSECO_SOURCE_DIR) + "/data/alu_spec.blif");
  Result<Job*> job = sched.queue().submit(req, "alu");
  ASSERT_TRUE(job.isOk()) << job.status().toString();

  const std::string wal = dir + "/queue/journal.jsonl";
  const std::string deadNote = "worker " + rogue.spec() + " marked dead";
  for (Timer t; t.seconds() < 60.0;) {
    sched.tick();
    if (job.value()->state == QueueState::kDone &&
        slurp(wal).find(deadNote) != std::string::npos)
      break;
    subprocess::pollReadable(sched.pollFds(), 20);
  }
  sched.shutdown();
  EXPECT_EQ(job.value()->state, QueueState::kDone) << job.value()->detail;
  EXPECT_EQ(job.value()->worker, good.spec());
  const std::string text = slurp(wal);
  EXPECT_NE(text.find("lease-expired"), std::string::npos);
  EXPECT_NE(text.find(deadNote + " (conn-reset)"), std::string::npos);
}

#endif  // SYSECO_CLI_BIN

}  // namespace
}  // namespace syseco
