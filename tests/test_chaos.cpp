// Deterministic chaos layer: the fallible storage shim, seeded fault
// schedules (util/fault_plan), journal poisoning + truncate-back, the
// torn-tail tolerance of scanJournal, and SIGKILL-during-compaction
// recovery for the serve WALs (old or new WAL, never a mix).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/codec.hpp"
#include "serve/job_queue.hpp"
#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/fault.hpp"
#include "util/fault_plan.hpp"
#include "util/journal.hpp"

namespace syseco {
namespace {

std::string testDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "syseco_chaos_" + name;
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

void spill(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << content;
}

/// Mirrors the journal's frame encoding so tests can hand-craft tails.
std::string frame(std::string_view payload) {
  char head[32];
  std::snprintf(head, sizeof head, "J1 %08x %08x ",
                static_cast<std::uint32_t>(payload.size()), crc32(payload));
  return std::string(head) + std::string(payload) + "\n";
}

std::string marker(std::size_t records, std::size_t bytes) {
  return "syseco-journal-commit-v1 " + std::to_string(records) + " " +
         std::to_string(bytes) + "\n";
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::instance().reset(); }
  void TearDown() override {
    fault::Injector::instance().reset();
    ::unsetenv("SYSECO_FAULT_PLAN");
  }
};

// --- Fallible shim semantics ----------------------------------------------

class ShimTest : public ChaosTest {
 protected:
  void SetUp() override {
    ChaosTest::SetUp();
    // One directory per test: ctest -j runs the shim tests concurrently.
    dir_ = testDir(std::string("shim_") + ::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name());
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
    path_ = dir_ + "/target";
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd_, 0);
  }
  void TearDown() override {
    if (fd_ >= 0) ::close(fd_);
    ChaosTest::TearDown();
  }
  std::string dir_, path_;
  int fd_ = -1;
};

TEST_F(ShimTest, UnarmedSitePassesThrough) {
  EXPECT_EQ(fault::fallibleWrite(fd_, "hello", 5, "shim.write"), 5);
  EXPECT_EQ(fault::fallibleFsync(fd_, "shim.fsync"), 0);
  EXPECT_EQ(slurp(path_), "hello");
}

TEST_F(ShimTest, EnospcFailsWithoutWriting) {
  fault::Injector::instance().arm("shim.write", fault::Kind::kEnospc);
  errno = 0;
  EXPECT_EQ(fault::fallibleWrite(fd_, "hello", 5, "shim.write"), -1);
  EXPECT_EQ(errno, ENOSPC);
  EXPECT_EQ(slurp(path_), "");
}

TEST_F(ShimTest, EioFailsWithoutWriting) {
  fault::Injector::instance().arm("shim.write", fault::Kind::kEio);
  errno = 0;
  EXPECT_EQ(fault::fallibleWrite(fd_, "hello", 5, "shim.write"), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(slurp(path_), "");
}

TEST_F(ShimTest, ShortWritePersistsThePrefixItReports) {
  fault::Injector::instance().arm("shim.write", fault::Kind::kShortWrite,
                                  /*skip=*/0, /*arg=*/3);
  EXPECT_EQ(fault::fallibleWrite(fd_, "hello world", 11, "shim.write"), 3);
  EXPECT_EQ(slurp(path_), "hel");
}

TEST_F(ShimTest, ShortWriteWithoutArgStillWritesSomething) {
  // arg=0 means "auto" (half the buffer) - and a 1-byte buffer must still
  // make progress, or a correct retry loop would spin forever.
  fault::Injector::instance().arm("shim.write", fault::Kind::kShortWrite);
  EXPECT_EQ(fault::fallibleWrite(fd_, "x", 1, "shim.write"), 1);
  EXPECT_EQ(slurp(path_), "x");
}

TEST_F(ShimTest, TornFramePersistsArgBytesThenFails) {
  fault::Injector::instance().arm("shim.write", fault::Kind::kTornFrame,
                                  /*skip=*/0, /*arg=*/4);
  errno = 0;
  EXPECT_EQ(fault::fallibleWrite(fd_, "hello world", 11, "shim.write"), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(slurp(path_), "hell");  // the torn prefix really landed
}

TEST_F(ShimTest, FsyncFailReturnsEioWithoutCrashing) {
  fault::Injector::instance().arm("shim.fsync", fault::Kind::kFsyncFail);
  errno = 0;
  EXPECT_EQ(fault::fallibleFsync(fd_, "shim.fsync"), -1);
  EXPECT_EQ(errno, EIO);
}

TEST_F(ShimTest, NonStorageKindPassesThroughTheShim) {
  // A budget trigger on a storage site must not corrupt the write path.
  fault::Injector::instance().arm("shim.write", fault::Kind::kBudgetExhausted);
  EXPECT_EQ(fault::fallibleWrite(fd_, "hello", 5, "shim.write"), 5);
  EXPECT_EQ(slurp(path_), "hello");
}

// --- Scheduled (hit-exact) triggers ---------------------------------------

TEST_F(ChaosTest, ScheduleFiresExactlyAtTheNamedHit) {
  fault::Injector& inj = fault::Injector::instance();
  inj.schedule("chaos.site", fault::Kind::kEio, /*atHit=*/2);
  EXPECT_FALSE(fault::fire("chaos.site").has_value());  // hit 0
  EXPECT_FALSE(fault::fire("chaos.site").has_value());  // hit 1
  const auto fired = fault::fire("chaos.site");         // hit 2
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(*fired, fault::Kind::kEio);
  // One-shot: never again, and the injector goes back to empty.
  EXPECT_FALSE(fault::fire("chaos.site").has_value());
  EXPECT_TRUE(inj.empty());
}

TEST_F(ChaosTest, SiteHitCountersAreSharedAcrossTriggers) {
  // Two entries on one site must see one ordinal sequence, not one each.
  fault::Injector& inj = fault::Injector::instance();
  inj.schedule("chaos.site", fault::Kind::kEio, 0);
  inj.schedule("chaos.site", fault::Kind::kEnospc, 1);
  EXPECT_EQ(fault::fire("chaos.site"), fault::Kind::kEio);
  EXPECT_EQ(fault::fire("chaos.site"), fault::Kind::kEnospc);
  EXPECT_FALSE(fault::fire("chaos.site").has_value());
}

TEST_F(ChaosTest, FireDetailCarriesTheArgument) {
  fault::Injector::instance().schedule("chaos.site", fault::Kind::kTornFrame,
                                       0, /*arg=*/17);
  const auto fired = fault::fireDetail("chaos.site");
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->kind, fault::Kind::kTornFrame);
  EXPECT_EQ(fired->arg, 17u);
}

TEST_F(ChaosTest, KindNamesRoundTrip) {
  for (fault::Kind k :
       {fault::Kind::kEnospc, fault::Kind::kEio, fault::Kind::kShortWrite,
        fault::Kind::kFsyncFail, fault::Kind::kTornFrame,
        fault::Kind::kCrash, fault::Kind::kBudgetExhausted}) {
    const auto back = fault::kindFromName(fault::kindName(k));
    ASSERT_TRUE(back.has_value()) << fault::kindName(k);
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(fault::kindFromName("no-such-kind").has_value());
  EXPECT_TRUE(fault::isStorageKind(fault::Kind::kTornFrame));
  EXPECT_FALSE(fault::isStorageKind(fault::Kind::kCrash));
}

// --- Fault plans -----------------------------------------------------------

TEST_F(ChaosTest, PlanParsesAndSerializesRoundTrip) {
  const std::string text =
      "# seed 42\n"
      "at 3 journal.write torn-frame 17\n"
      "at 0 queue.wal.fsync fsync-fail\n"
      "from 2 syseco.sampling budget\n";
  Result<fault::FaultPlan> plan = fault::parseFaultPlan(text);
  ASSERT_TRUE(plan.isOk()) << plan.status().toString();
  ASSERT_EQ(plan.value().entries.size(), 3u);
  EXPECT_EQ(plan.value().entries[0].atHit, 3u);
  EXPECT_TRUE(plan.value().entries[0].oneShot);
  EXPECT_EQ(plan.value().entries[0].site, "journal.write");
  EXPECT_EQ(plan.value().entries[0].kind, fault::Kind::kTornFrame);
  EXPECT_EQ(plan.value().entries[0].arg, 17u);
  EXPECT_FALSE(plan.value().entries[2].oneShot);

  const std::string out = fault::serializeFaultPlan(plan.value());
  Result<fault::FaultPlan> again = fault::parseFaultPlan(out);
  ASSERT_TRUE(again.isOk());
  EXPECT_EQ(fault::serializeFaultPlan(again.value()), out);
}

TEST_F(ChaosTest, PlanParserNamesTheOffendingLine) {
  Result<fault::FaultPlan> bad =
      fault::parseFaultPlan("at 0 journal.write eio\nat x site eio\n");
  ASSERT_FALSE(bad.isOk());
  EXPECT_NE(bad.status().toString().find("line 2"), std::string::npos)
      << bad.status().toString();

  EXPECT_FALSE(fault::parseFaultPlan("at 0 site no-such-kind\n").isOk());
  EXPECT_FALSE(fault::parseFaultPlan("maybe 0 site eio\n").isOk());
}

TEST_F(ChaosTest, GeneratedPlansAreSeedDeterministic) {
  const fault::FaultPlan a = fault::generateChaosPlan(42, 8);
  const fault::FaultPlan b = fault::generateChaosPlan(42, 8);
  const fault::FaultPlan c = fault::generateChaosPlan(43, 8);
  EXPECT_EQ(fault::serializeFaultPlan(a), fault::serializeFaultPlan(b));
  EXPECT_NE(fault::serializeFaultPlan(a), fault::serializeFaultPlan(c));
  EXPECT_EQ(a.entries.size(), 8u);
  for (const fault::PlanEntry& e : a.entries) {
    EXPECT_TRUE(e.oneShot);
    bool known = false;
    for (const fault::FaultSite& s : fault::storageFaultSites())
      if (s.name == e.site) known = true;
    EXPECT_TRUE(known) << "unknown site " << e.site;
  }
}

TEST_F(ChaosTest, AppliedPlanArmsTheInjector) {
  fault::FaultPlan plan;
  plan.entries.push_back({1, true, "chaos.site", fault::Kind::kEio, 0});
  ASSERT_TRUE(fault::applyFaultPlan(plan, "").isOk());
  EXPECT_FALSE(fault::fire("chaos.site").has_value());
  EXPECT_EQ(fault::fire("chaos.site"), fault::Kind::kEio);
}

TEST_F(ChaosTest, FiredLogStopsReplayAcrossLives) {
  const std::string dir = testDir("firedlog");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string planPath = dir + "/plan";
  fault::FaultPlan plan;
  plan.entries.push_back({0, true, "chaos.site", fault::Kind::kEio, 0});
  spill(planPath, fault::serializeFaultPlan(plan));

  // First life: the entry fires and records itself in <plan>.fired.
  ASSERT_TRUE(fault::applyFaultPlan(plan, planPath).isOk());
  EXPECT_EQ(fault::fire("chaos.site"), fault::Kind::kEio);
  EXPECT_NE(slurp(planPath + ".fired").find("chaos.site"), std::string::npos);

  // Second life (fresh injector, same plan): the consumed entry is skipped,
  // so a restarted daemon does not loop on the same fault forever.
  fault::Injector::instance().reset();
  ASSERT_TRUE(fault::applyFaultPlan(plan, planPath).isOk());
  EXPECT_FALSE(fault::fire("chaos.site").has_value());
}

TEST_F(ChaosTest, EnvPlanLoadsAndRejectsGarbage) {
  ASSERT_TRUE(fault::loadFaultPlanFromEnv().isOk());  // unset: no-op

  const std::string dir = testDir("envplan");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string planPath = dir + "/plan";
  spill(planPath, "at 0 chaos.site eio\n");
  ::setenv("SYSECO_FAULT_PLAN", planPath.c_str(), 1);
  ASSERT_TRUE(fault::loadFaultPlanFromEnv().isOk());
  EXPECT_EQ(fault::fire("chaos.site"), fault::Kind::kEio);

  // A requested-but-broken plan must be an error, not a silent reference
  // run wearing a chaos run's name.
  ::setenv("SYSECO_FAULT_PLAN", (dir + "/missing").c_str(), 1);
  EXPECT_FALSE(fault::loadFaultPlanFromEnv().isOk());
  spill(planPath, "at x garbage\n");
  ::setenv("SYSECO_FAULT_PLAN", planPath.c_str(), 1);
  EXPECT_FALSE(fault::loadFaultPlanFromEnv().isOk());
}

// --- Atomic-file staging under faults --------------------------------------

TEST_F(ChaosTest, AtomicWriteAbortsCleanlyOnEnospc) {
  const std::string dir = testDir("atomic");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string path = dir + "/report.json";
  ASSERT_TRUE(writeFileAtomic(path, "original\n").isOk());

  fault::Injector::instance().arm("atomic.write", fault::Kind::kEnospc);
  EXPECT_FALSE(writeFileAtomic(path, "replacement\n").isOk());
  fault::Injector::instance().reset();

  // Old content intact, no staging file left behind.
  EXPECT_EQ(slurp(path), "original\n");
  EXPECT_EQ(removeStaleStaging(dir), 0u);
}

TEST_F(ChaosTest, AtomicWriteAbortsCleanlyOnFsyncFail) {
  const std::string dir = testDir("atomicsync");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string path = dir + "/report.json";
  ASSERT_TRUE(writeFileAtomic(path, "original\n").isOk());

  fault::Injector::instance().arm("atomic.fsync", fault::Kind::kFsyncFail);
  EXPECT_FALSE(writeFileAtomic(path, "replacement\n").isOk());
  fault::Injector::instance().reset();
  EXPECT_EQ(slurp(path), "original\n");
  EXPECT_EQ(removeStaleStaging(dir), 0u);
}

TEST_F(ChaosTest, RemoveStaleStagingSweepsOnlyStagingFiles) {
  const std::string dir = testDir("staging");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  spill(dir + "/report.json.tmp.1234", "torn");
  spill(dir + "/other.tmp.99", "torn");
  spill(dir + "/keep.txt", "keep");
  EXPECT_EQ(removeStaleStaging(dir), 2u);
  EXPECT_EQ(slurp(dir + "/keep.txt"), "keep");
  EXPECT_EQ(removeStaleStaging(dir), 0u);
  EXPECT_EQ(removeStaleStaging(dir + "/no-such-dir"), 0u);
}

// --- Journal poisoning (fail closed) ---------------------------------------

TEST_F(ChaosTest, WriteFaultPoisonsTheJournalAndTruncatesBack) {
  const std::string dir = testDir("poisonwrite");
  Result<JournalWriter> w = JournalWriter::create(dir);
  ASSERT_TRUE(w.isOk());
  JournalWriter journal = w.take();
  ASSERT_TRUE(journal.append("{\"type\":\"a\"}").isOk());

  // The torn frame persists a prefix; poisoning must physically remove it.
  fault::Injector::instance().schedule("journal.write",
                                       fault::Kind::kTornFrame, /*atHit=*/0,
                                       /*arg=*/7);
  const Status failed = journal.append("{\"type\":\"b\"}");
  ASSERT_FALSE(failed.isOk());
  EXPECT_TRUE(journal.poisoned());
  EXPECT_FALSE(journal.isOpen());
  EXPECT_NE(failed.toString().find("journal"), std::string::npos);

  // Every later append reports the original cause - the handle never
  // pretends durability came back.
  const Status again = journal.append("{\"type\":\"c\"}");
  ASSERT_FALSE(again.isOk());
  EXPECT_NE(again.toString().find("poisoned"), std::string::npos);

  // Recovery sees exactly the committed prefix: one record, no torn tail.
  fault::Injector::instance().reset();
  Result<JournalScan> scan = scanJournal(dir);
  ASSERT_TRUE(scan.isOk());
  ASSERT_EQ(scan.value().frames.size(), 1u);
  EXPECT_EQ(scan.value().frames[0].payload, "{\"type\":\"a\"}");
  EXPECT_TRUE(scan.value().diagnostics.empty());

  // And a resumed writer heals: appends work again on a fresh handle.
  Result<JournalWriter> healed = JournalWriter::resume(dir, scan.value());
  ASSERT_TRUE(healed.isOk());
  ASSERT_TRUE(healed.value().append("{\"type\":\"d\"}").isOk());
  Result<JournalScan> after = scanJournal(dir);
  ASSERT_TRUE(after.isOk());
  EXPECT_EQ(after.value().frames.size(), 2u);
}

TEST_F(ChaosTest, FsyncFaultPoisonsTheJournal) {
  // fsyncgate: a failed fsync may have synced nothing, so the handle is
  // done - retrying fsync on it would report success without durability.
  const std::string dir = testDir("poisonfsync");
  Result<JournalWriter> w = JournalWriter::create(dir);
  ASSERT_TRUE(w.isOk());
  JournalWriter journal = w.take();
  ASSERT_TRUE(journal.append("{\"type\":\"a\"}").isOk());

  fault::Injector::instance().schedule("journal.fsync",
                                       fault::Kind::kFsyncFail, 0);
  ASSERT_FALSE(journal.append("{\"type\":\"b\"}").isOk());
  EXPECT_TRUE(journal.poisoned());

  fault::Injector::instance().reset();
  Result<JournalScan> scan = scanJournal(dir);
  ASSERT_TRUE(scan.isOk());
  EXPECT_EQ(scan.value().frames.size(), 1u);
}

TEST_F(ChaosTest, MarkerFaultPoisonsButKeepsTheDurableRecord) {
  // The frame was written and fsync'd before the marker replacement
  // failed: the record is durable and recovery must keep it (frames are
  // authoritative, the marker is informational).
  const std::string dir = testDir("poisonmarker");
  Result<JournalWriter> w = JournalWriter::create(dir);
  ASSERT_TRUE(w.isOk());
  JournalWriter journal = w.take();
  ASSERT_TRUE(journal.append("{\"type\":\"a\"}").isOk());

  fault::Injector::instance().schedule("journal.marker.write",
                                       fault::Kind::kEnospc, 0);
  ASSERT_FALSE(journal.append("{\"type\":\"b\"}").isOk());
  EXPECT_TRUE(journal.poisoned());

  fault::Injector::instance().reset();
  Result<JournalScan> scan = scanJournal(dir);
  ASSERT_TRUE(scan.isOk());
  ASSERT_EQ(scan.value().frames.size(), 2u);
  EXPECT_EQ(scan.value().frames[1].payload, "{\"type\":\"b\"}");
}

// --- scanJournal torn-tail tolerance ---------------------------------------

TEST_F(ChaosTest, TrailingZeroLengthFrameIsTruncatedWithAWarning) {
  const std::string dir = testDir("zerolen");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string good = frame("{\"type\":\"a\"}");
  spill(journalDataPath(dir), good + frame(""));
  spill(journalMarkerPath(dir), marker(1, good.size()));

  Result<JournalScan> scan = scanJournal(dir);
  ASSERT_TRUE(scan.isOk());
  ASSERT_EQ(scan.value().frames.size(), 1u);
  EXPECT_EQ(scan.value().retainBytes, good.size());
  ASSERT_FALSE(scan.value().diagnostics.empty());
  EXPECT_NE(scan.value().diagnostics[0].find("zero-length"),
            std::string::npos);
}

TEST_F(ChaosTest, DuplicateFinalFrameBeyondCommitIsTruncated) {
  // A torn append retried after partial success can leave the same frame
  // twice, with the COMMIT marker attesting only the first copy.
  const std::string dir = testDir("dupframe");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string a = frame("{\"type\":\"a\"}");
  const std::string b = frame("{\"type\":\"b\"}");
  spill(journalDataPath(dir), a + b + b);
  spill(journalMarkerPath(dir), marker(2, a.size() + b.size()));

  Result<JournalScan> scan = scanJournal(dir);
  ASSERT_TRUE(scan.isOk());
  ASSERT_EQ(scan.value().frames.size(), 2u);
  EXPECT_EQ(scan.value().retainBytes, a.size() + b.size());
  ASSERT_FALSE(scan.value().diagnostics.empty());
  EXPECT_NE(scan.value().diagnostics[0].find("duplicate"), std::string::npos);
}

TEST_F(ChaosTest, DuplicateFinalFrameTheMarkerAttestsIsKept) {
  // Same bytes, but the marker says all three records committed: then the
  // duplication was deliberate (identical payloads are legal) - keep it.
  const std::string dir = testDir("dupkept");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string a = frame("{\"type\":\"a\"}");
  const std::string b = frame("{\"type\":\"b\"}");
  spill(journalDataPath(dir), a + b + b);
  spill(journalMarkerPath(dir), marker(3, a.size() + 2 * b.size()));

  Result<JournalScan> scan = scanJournal(dir);
  ASSERT_TRUE(scan.isOk());
  EXPECT_EQ(scan.value().frames.size(), 3u);
}

TEST_F(ChaosTest, ZeroFilledTailIsTruncatedWithOneDiagnostic) {
  // A power cut after metadata-only allocation leaves a run of NUL bytes.
  const std::string dir = testDir("zerotail");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string good = frame("{\"type\":\"a\"}");
  spill(journalDataPath(dir), good + std::string(256, '\0'));

  Result<JournalScan> scan = scanJournal(dir);
  ASSERT_TRUE(scan.isOk());
  ASSERT_EQ(scan.value().frames.size(), 1u);
  EXPECT_EQ(scan.value().retainBytes, good.size());
  ASSERT_EQ(scan.value().diagnostics.size(), 1u);
  EXPECT_NE(scan.value().diagnostics[0].find("zero-filled"),
            std::string::npos);
}

TEST_F(ChaosTest, ResumeAfterTornTailPhysicallyRemovesIt) {
  const std::string dir = testDir("resumetorn");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string good = frame("{\"type\":\"a\"}");
  spill(journalDataPath(dir), good + "J1 000000");  // torn mid-header
  Result<JournalScan> scan = scanJournal(dir);
  ASSERT_TRUE(scan.isOk());
  Result<JournalWriter> w = JournalWriter::resume(dir, scan.value());
  ASSERT_TRUE(w.isOk());
  ASSERT_TRUE(w.value().append("{\"type\":\"b\"}").isOk());
  EXPECT_EQ(slurp(journalDataPath(dir)), good + frame("{\"type\":\"b\"}"));
}

// --- SIGKILL during WAL compaction (old or new WAL, never a mix) -----------

serve::SubmitRequest tinySubmit() {
  serve::SubmitRequest r;
  r.tenant = "chaos";
  r.format = "blif";
  r.implText = ".model i\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n";
  r.specText = r.implText;
  return r;
}

/// Runs `open` in a fork with a crash scheduled at `site` hit 0; expects
/// the child to die with the injected-crash exit code.
template <typename OpenFn>
void expectCrashDuringOpen(const std::string& site, OpenFn open) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    fault::Injector::instance().reset();
    fault::Injector::instance().schedule(site, fault::Kind::kCrash, 0);
    open();
    std::_Exit(0);  // the crash did not fire: reported as a test failure
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), fault::kCrashExitCode)
      << "no crash fired at " << site;
}

TEST_F(ChaosTest, QueueCompactionCrashLeavesOldWalRecoverable) {
  const std::string dir = testDir("queuecrash");
  {
    Result<serve::JobQueue> q = serve::JobQueue::open(dir);
    ASSERT_TRUE(q.isOk());
    Result<serve::Job*> job = q.value().submit(tinySubmit());
    ASSERT_TRUE(job.isOk());
    ASSERT_TRUE(q.value().markRunning(*job.value(), 1).isOk());
  }
  // Crash while staging the compacted WAL: the rename never happened, so
  // recovery folds the complete old WAL.
  for (const char* site : {"queue.wal.compact.write", "queue.wal.compact.fsync"})
    expectCrashDuringOpen(site, [&] { (void)serve::JobQueue::open(dir); });

  Result<serve::JobQueue> q = serve::JobQueue::open(dir);
  ASSERT_TRUE(q.isOk());
  ASSERT_EQ(q.value().all().size(), 1u);
  // The mid-run job came back queued-with-resume, exactly as before.
  EXPECT_EQ(q.value().all()[0]->state, serve::QueueState::kQueued);
  EXPECT_TRUE(q.value().all()[0]->resume);
  EXPECT_FALSE(q.value().walPoisoned());
}

TEST_F(ChaosTest, QueueCompactionCrashAfterRenameLeavesNewWalRecoverable) {
  const std::string dir = testDir("queuecrash2");
  {
    Result<serve::JobQueue> q = serve::JobQueue::open(dir);
    ASSERT_TRUE(q.isOk());
    ASSERT_TRUE(q.value().submit(tinySubmit()).isOk());
  }
  // Crash after the compacted WAL renamed into place but before its COMMIT
  // marker updated: recovery reads the new WAL under a stale marker
  // (frames are authoritative).
  expectCrashDuringOpen("queue.wal.marker.write",
                        [&] { (void)serve::JobQueue::open(dir); });

  Result<serve::JobQueue> q = serve::JobQueue::open(dir);
  ASSERT_TRUE(q.isOk());
  ASSERT_EQ(q.value().all().size(), 1u);
  EXPECT_EQ(q.value().all()[0]->state, serve::QueueState::kQueued);
}

TEST_F(ChaosTest, PoisonedQueueWalRefusesFurtherTransitions) {
  const std::string dir = testDir("queuepoison");
  Result<serve::JobQueue> q = serve::JobQueue::open(dir);
  ASSERT_TRUE(q.isOk());
  Result<serve::Job*> job = q.value().submit(tinySubmit());
  ASSERT_TRUE(job.isOk());

  fault::Injector::instance().schedule("queue.wal.fsync",
                                       fault::Kind::kFsyncFail, 0);
  ASSERT_FALSE(q.value().markRunning(*job.value(), 1).isOk());
  EXPECT_TRUE(q.value().walPoisoned());
  EXPECT_FALSE(q.value().walPoisonCause().empty());
  // The in-memory state did not mutate without a durable record.
  EXPECT_EQ(job.value()->state, serve::QueueState::kQueued);

  // Restart heals: a fresh open folds the committed prefix.
  fault::Injector::instance().reset();
  Result<serve::JobQueue> healed = serve::JobQueue::open(dir);
  ASSERT_TRUE(healed.isOk());
  ASSERT_EQ(healed.value().all().size(), 1u);
  EXPECT_FALSE(healed.value().walPoisoned());
}

}  // namespace
}  // namespace syseco
