#pragma once
// Local worker pool for the job scheduler (serve/scheduler).
//
// The scheduler runs each local job as an exec'd child of its own binary
// (one engine run per job, with the job's own --journal), so a job crash -
// real or injected - can never take the daemon or batch driver down. This
// module owns the pool: spawning children with the containment settings a
// resident service needs (own process group, PR_SET_PDEATHSIG so a
// SIGKILL'd parent takes its in-flight workers down with it - which is
// exactly what makes the kill -9 recovery tests honest), reaping exits
// without blocking, and mapping abnormal exits onto the fleet's
// WorkerExitCause taxonomy. Retry pacing and quarantine belong to the
// scheduler.
//
// The spawn interface is deliberately argv-generic so unit tests can
// supervise /bin/sh stand-ins without a daemon around the pool.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace syseco::serve {

/// One pool slot. pid < 0 means idle.
struct WorkerSlot {
  pid_t pid = -1;
  std::string job;           ///< job id the slot is running
  std::int64_t attempt = 0;  ///< dispatch ordinal of this run
};

/// One reaped child exit, raw (kind/exitCode/signal) plus the taxonomy
/// classification the scheduler journals.
struct WorkerExit {
  std::string job;
  std::int64_t attempt = 0;
  bool signaled = false;
  int exitCode = 0;  ///< valid when !signaled
  int signal = 0;    ///< valid when signaled
  /// workerExitCauseName-style token: "ok" for engine exits the scheduler
  /// treats as the job's verdict (clean/verify-failed/degraded/invalid),
  /// "crash"/"oom"/"cpu-timeout" for deaths worth retrying.
  std::string cause;
  bool retryable = false;
};

class PoolWatchdog {
 public:
  struct Options {
    std::size_t poolSize = 1;
  };

  explicit PoolWatchdog(const Options& options);

  std::size_t poolSize() const { return slots_.size(); }
  std::size_t busy() const;
  bool hasIdleSlot() const { return busy() < slots_.size(); }

  /// True when `job` is currently running in some slot.
  bool isRunning(const std::string& job) const;

  /// Forks and execs `argv` (argv[0] is the binary path) in an idle slot.
  /// The child joins its own process group, arms PR_SET_PDEATHSIG(SIGKILL),
  /// redirects stdout+stderr to `logPath` (appending), and exports
  /// `extraEnv` ("NAME=value" entries) on top of the inherited environment.
  /// kInternal when no slot is idle or the fork fails.
  Status spawn(const std::string& job, std::int64_t attempt,
               const std::vector<std::string>& argv,
               const std::string& logPath,
               const std::vector<std::string>& extraEnv);

  /// Nonblocking reap sweep: collects every slot whose child has exited,
  /// frees the slots, and classifies each exit.
  std::vector<WorkerExit> reap();

  /// SIGTERM -> grace -> SIGKILL for the slot running `job` (cancellation).
  /// No-op when the job is not running.
  void terminate(const std::string& job, double graceSeconds);

  /// Terminates every running child (scheduler shutdown).
  void terminateAll(double graceSeconds);

 private:
  std::vector<WorkerSlot> slots_;
};

}  // namespace syseco::serve
