#pragma once
// WAL-backed durable job queue: the one ledger behind the --serve daemon
// and the --batch sweep driver.
//
// Every queue transition (submitted, running, done, failed, cancelled,
// recovered) is appended to a util/journal write-ahead log *before* the
// in-memory state mutates, with fsync-per-record durability. A process
// killed with SIGKILL at any instant recovers the queue exactly by folding
// the WAL: terminal states stay terminal, queued jobs stay queued, and
// jobs that were mid-run come back as queued-with-resume so the scheduler
// re-runs them with --resume against their own engine journals - which is
// what makes post-crash verdict records bit-identical to an uninterrupted
// run (the engine's resume invariant, proven by the kill-and-resume suite).
//
// On-disk layout under the state directory:
//
//   queue/            the WAL (journal.jsonl + COMMIT), serve-event records
//   jobs/<id>/        one directory per job (daemon id or manifest name):
//     impl.<fmt>, spec.<fmt>   the submitted netlist texts
//     journal/                 the job's own engine run journal
//     report.json, out.<fmt>   the finished run's artifacts
//     verdicts.txt             the oracle's verdicts record (one line)
//     worker.log               captured stdout/stderr of a local worker
//   batch_report.json  (--batch only) the sweep summary
//
// The WAL is compacted on every open: recovery folds the old log, then a
// fresh log is written with one submitted record per live job plus its
// current state, so the WAL length is bounded by queue occupancy, not
// process lifetime. Jobs keep their submission order across recovery.
// Admission control reads its ledgers (resident job count, per-tenant
// depth, resident payload bytes) straight from the folded state.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/codec.hpp"
#include "util/journal.hpp"
#include "util/status.hpp"

namespace syseco::serve {

enum class QueueState { kQueued, kRunning, kDone, kFailed, kCancelled };

const char* queueStateName(QueueState s);

/// Agent CaseCacheLru counters snapshotted with a remote result.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

/// One job's durable record plus dispatch bookkeeping.
struct Job {
  /// "j%06u" for daemon submissions (monotonically assigned, crash-stable)
  /// or the manifest case name for batch registrations.
  std::string id;
  std::string tenant;
  std::string format;  ///< blif | v | netlist (artifact file extensions)
  std::uint64_t seed = 1;
  std::int64_t jobs = 1;
  bool isolate = false;
  bool detach = false;
  std::string faultInject;   ///< test hook, propagated to the worker env
  std::uint64_t bytes = 0;   ///< impl+spec payload bytes (admission ledger)
  QueueState state = QueueState::kQueued;
  std::int64_t attempt = 0;  ///< dispatch ordinal (1 = first attempt)
  std::int64_t exitCode = 0;
  std::string cause;         ///< failure/cancel classification
  std::string detail;
  /// A previous attempt (possibly in a previous daemon life) left an engine
  /// journal behind: dispatch with --resume so committed per-output
  /// progress is kept and the final verdicts stay bit-identical.
  bool resume = false;
  std::string worker;   ///< last dispatch target ("host:port"; "" = local)
  CacheCounters cache;  ///< agent cache counters of the finishing run
};

struct AdmissionLimits {
  std::size_t maxResidentJobs = 16;  ///< queued + running, daemon-wide
  std::size_t maxPerTenant = 8;      ///< queued + running, per tenant
  std::uint64_t maxResidentBytes = 256ull << 20;  ///< payload watermark
};

struct Admission {
  bool admitted = false;
  std::string reason;  ///< Rejected reason token when !admitted
  std::string detail;
};

class JobQueue {
 public:
  /// Opens (creating if needed) the state directory, folds the WAL to
  /// recover every job, re-queues jobs that were mid-run with the resume
  /// flag set, and compacts the WAL. recoveryNotes() describes what was
  /// recovered, for the daemon to log and journal.
  static Result<JobQueue> open(const std::string& stateDir);

  /// Pure admission check against the current ledgers; does not mutate.
  Admission admit(const std::string& tenant, std::uint64_t payloadBytes,
                  const AdmissionLimits& limits) const;

  /// Persists the job: payload files first, then the WAL submitted record,
  /// then the in-memory entry. A crash between the two leaves only an
  /// orphaned payload directory, never a WAL record without its payload.
  /// An empty `name` assigns the next daemon id. A non-empty one (a batch
  /// manifest case, already a validFleetCaseName) registers the job under
  /// that name and is idempotent: a job already recorded under it with the
  /// same seed, jobs, format and payload is returned as-is, while different
  /// inputs are kInvalidInput (resuming a different sweep is refused).
  Result<Job*> submit(const SubmitRequest& request,
                      const std::string& name = {});

  Job* find(const std::string& id);
  std::vector<Job*> all();

  // Durable transitions: WAL append first (fsync'd), then the mutation.
  Status markRunning(Job& job, std::int64_t attempt,
                     const std::string& worker = {});
  Status markDone(Job& job, std::int64_t exitCode,
                  const CacheCounters& cache = {});
  Status markFailed(Job& job, const std::string& cause,
                    const std::string& detail);
  Status markCancelled(Job& job, const std::string& cause,
                       const std::string& detail);
  /// Heals a crashed running job: appends a "recovered" record and flips
  /// it back to queued-with-resume so the next dispatch continues from the
  /// job's own engine journal.
  Status markRequeued(Job& job, const std::string& cause,
                      const std::string& detail);

  /// Appends a daemon-wide note record (observability only; folded away on
  /// the next compaction).
  Status note(const std::string& detail);

  // Admission ledgers (queued + running).
  std::size_t residentCount() const;
  std::size_t tenantResident(const std::string& tenant) const;
  std::uint64_t residentBytes() const;

  // Artifact paths inside the job's directory.
  std::string jobDir(const std::string& id) const;
  std::string implPath(const Job& job) const;
  std::string specPath(const Job& job) const;
  std::string engineJournalDir(const Job& job) const;
  std::string reportPath(const Job& job) const;
  std::string outPath(const Job& job) const;
  std::string verdictsPath(const Job& job) const;
  std::string workerLogPath(const Job& job) const;

  const std::string& stateDir() const { return stateDir_; }
  const std::vector<std::string>& recoveryNotes() const {
    return recoveryNotes_;
  }

  /// True once a storage fault latched the WAL writer (failed write/fsync
  /// or COMMIT-marker replacement). Daemon and batch driver fail closed on
  /// it: no transition can be made durable, so no further work may be
  /// accepted or dispatched - restart (or --resume) and recover instead.
  bool walPoisoned() const { return wal_.poisoned(); }
  const std::string& walPoisonCause() const { return wal_.poisonCause(); }

 private:
  JobQueue() = default;

  Status appendEvent(const std::string& event, const Job& job);

  std::string stateDir_;
  JournalWriter wal_;
  /// Stable addresses (the scheduler holds Job* across ticks), submission
  /// order.
  std::vector<std::unique_ptr<Job>> jobs_;
  std::uint64_t nextId_ = 1;
  std::vector<std::string> recoveryNotes_;
};

}  // namespace syseco::serve
