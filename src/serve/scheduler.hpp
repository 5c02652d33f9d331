#pragma once
// The one job scheduler behind the --serve daemon and the --batch sweep.
//
// Scheduler owns the durable JobQueue and everything that moves a job
// through it: the AgentPool that ships whole cases to --serve-worker
// agents, the PoolWatchdog that fork/execs local engine workers, retry
// clocks, fleet degradation, result settling, reaping, requeue/quarantine
// and artifact writes. It advances in one non-blocking tick(); the daemon
// is client sessions plus that tick, and runBatch is manifest registration
// plus that tick until no job is resident.
//
// One policy for every job:
//   - A job goes to an idle usable agent first, otherwise to an idle local
//     slot. --isolate and fault-inject jobs run locally only.
//   - `running` is journaled only once a worker holds the job: a refused
//     connect strikes the agent, never the job's attempt budget.
//   - Failed attempts re-queue with resume, paced by
//     caseRedispatchBackoffSeconds keyed by crc32(job id), and quarantine
//     (fail) past the attempt ceiling.
//   - Every done job has report.json, out.<fmt> and verdicts.txt, each
//     written atomically and checked before the job is marked done; a
//     failed write re-queues the job through the retry path instead.
//
// Remote jobs travel as kTypeFleetCaseTask assignments through the same
// AgentPool (eco/fleet.hpp) that drives the engine's per-output fleet: it
// owns connects, epochs, need-case uploads, leases and the one peer-health
// rule, and the scheduler folds its events into the queue. When fewer than
// fleetMinWorkers agents stay usable the scheduler degrades - permanently
// for its lifetime - to the local pool.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "eco/fleet.hpp"
#include "eco/isolate.hpp"
#include "serve/codec.hpp"
#include "serve/job_queue.hpp"
#include "serve/watchdog.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

namespace syseco::serve {

/// Per-case engine parallelism ceiling (--jobs), shared by the manifest
/// parser and the case-task wire contract.
inline constexpr std::int64_t kMaxCaseJobs = 256;

/// Case-level redispatch pacing. Deliberately the per-output transports'
/// retryBackoffSeconds contract (same doubling base, same cap, same
/// seed-derived jitter) keyed by a case ordinal - crc32 of the job id - in
/// place of the output index: no new RNG path, and the same job retries on
/// the same deterministic schedule in every process life.
double caseRedispatchBackoffSeconds(double backoffBaseMs, std::uint64_t seed,
                                    std::uint32_t caseOrdinal,
                                    int failedAttempts);

/// Admission-time payload validation: a job whose netlists cannot parse
/// must be refused (daemon) or failed as invalid-input (batch), never
/// dispatched to fail.
Status validatePayload(const SubmitRequest& request);

/// The knobs --serve and --batch share (CLI flags plus plumbing).
struct SchedulerOptions {
  std::string stateDir;  ///< queue WAL + per-job artifact directories
  std::string selfExe;   ///< binary exec'd per local job (the CLI's own)
  std::size_t poolSize = 1;      ///< local fork/exec pool width
  int maxAttempts = 3;           ///< dispatches per job before quarantine
  double backoffBaseMs = 100.0;  ///< caseRedispatchBackoffSeconds base
  /// Remote whole-case dispatch over --serve-worker agents; empty runs
  /// everything on the local pool.
  std::vector<std::string> workers;
  double fleetLeaseSeconds = 10.0;
  int fleetConnectTimeoutMs = 2000;
  int fleetMinWorkers = 1;
  bool verbose = false;
  /// Polled by the driving loop; a set flag drains to a clean shutdown
  /// (running jobs are terminated and recovered as queued-with-resume by
  /// the next process life).
  std::atomic<bool>* stop = nullptr;
};

class Scheduler {
 public:
  /// Takes over an opened queue and journals its recovery notes. `opt` is
  /// held by reference and must outlive the scheduler.
  Scheduler(const SchedulerOptions& opt, JobQueue queue);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  JobQueue& queue() { return queue_; }

  /// Readable fds for the caller's poll wait (agent connections).
  std::vector<int> pollFds() const { return pool_.pollFds(); }

  /// One non-blocking step: settle fleet events, reap local exits, then
  /// dispatch queued jobs onto free capacity.
  void tick();

  /// Cancels a queued or running job (terminating its local worker);
  /// terminal jobs are left alone.
  void cancel(Job& job, const std::string& cause, const std::string& detail);

  /// Terminates in-flight work and closes every agent connection. Running
  /// jobs stay `running` in the WAL, so the next life resumes them.
  void shutdown();

  /// True once the fleet fell below fleetMinWorkers and dispatch degraded
  /// to the local pool for the rest of this scheduler's life.
  bool fleetDegraded() const { return fleetDegraded_; }
  std::size_t localBusy() const { return watchdog_.busy(); }

  /// stderr diagnostics under --verbose.
  void log(const std::string& msg) const;
  /// Journaled warning: visible in the WAL (note record) and on stderr.
  void warn(const std::string& msg);

 private:
  void serviceFleet();
  void settle(const AgentPool::Event& ev, double now);
  void reapExits(double now);
  void dispatchQueued();
  bool dispatchRemote(Job& job);
  void dispatchLocal(Job& job);
  /// Writes a finished job's artifacts, each atomically and checked, then
  /// marks it done; a failed write re-queues it through retryOrQuarantine.
  void finish(Job& job, std::int64_t exitCode, const CacheCounters& cache,
              const std::vector<std::pair<std::string, std::string>>& files,
              double now);
  void retryOrQuarantine(Job& job, const std::string& cause,
                         const std::string& detail, double now);

  const SchedulerOptions& opt_;
  JobQueue queue_;
  PoolWatchdog watchdog_;
  /// Empty (and never polled) when started without workers.
  AgentPool pool_;
  bool fleetDegraded_ = false;
  /// Retry pacing: job id -> monotonic seconds before which it must not be
  /// re-dispatched. Deliberately not persisted: clocks restart at zero in
  /// the next process life.
  std::map<std::string, double> notBefore_;
  Timer clock_;
};

}  // namespace syseco::serve
