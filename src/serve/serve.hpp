#pragma once
// ECO-as-a-service: the crash-safe resident rectification daemon
// (`syseco_cli --serve PORT`) and the thin client the CLI's --connect mode
// drives.
//
// The daemon is a single-threaded poll-based event loop: client sessions
// plus the one job Scheduler (serve/scheduler) that --batch also drives.
//
//   sessions  - accept clients, decode kTypeServe* frames (serve/codec),
//               answer submits/status-polls/cancels. fd exhaustion on
//               accept is a journaled warning plus backoff, never death.
//   scheduler - the WAL-backed durable JobQueue (serve/job_queue): every
//               admission verdict and state transition is fsync'd before
//               it is acted on, so SIGKILL at any instant loses nothing.
//               Jobs run on --workers agents or on the PoolWatchdog
//               (serve/watchdog), which execs the daemon's own binary per
//               job with the job's own engine journal; failures are
//               classified, retried with backoff under --resume, and
//               quarantined past the attempt ceiling. Because retries
//               resume the job's journal, a healed job's verdict records
//               are bit-identical to an undisturbed run.
//
// Disconnect semantics: a job is bound to the connection that submitted it
// unless submitted with detach. When the connection dies, bound queued
// jobs are cancelled and bound running jobs are terminated then cancelled;
// detached jobs keep running and are polled by job id from any later
// connection.

#include <cstdint>
#include <functional>
#include <string>

#include "serve/codec.hpp"
#include "serve/scheduler.hpp"
#include "util/status.hpp"

namespace syseco::serve {

/// The daemon's knobs: the scheduler's, plus the session side.
struct ServeOptions : SchedulerOptions {
  std::uint16_t port = 0;  ///< 0: kernel-assigned (see boundHook)
  AdmissionLimits limits;
  /// Called once with the actually-bound listening port.
  std::function<void(std::uint16_t)> boundHook;
};

/// Runs the daemon until `stop` is set. Non-ok only for setup failures
/// (state directory or port unusable); per-job and per-connection failures
/// are contained, journaled and served back as protocol replies.
Status runServeDaemon(const ServeOptions& options);

/// One submit round-trip's outcome: accepted with a job id, or the
/// daemon's structured rejection.
struct SubmitOutcome {
  bool accepted = false;
  std::string job;
  Rejected rejected;
};

/// Blocking client for one daemon connection (the CLI's --connect mode and
/// the tests). Transport failures are non-ok Statuses; protocol-level
/// rejections come back as data.
class ServeClient {
 public:
  static Result<ServeClient> connect(const std::string& host,
                                     std::uint16_t port, int timeoutMs);

  ServeClient(ServeClient&& other) noexcept { *this = std::move(other); }
  ServeClient& operator=(ServeClient&& other) noexcept;
  ~ServeClient();
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  Result<SubmitOutcome> submit(const SubmitRequest& request);
  Result<JobState> status(const std::string& job);
  Result<JobState> cancel(const std::string& job);
  /// Polls `status` every `pollMs` until the job reaches a terminal state
  /// (done/failed/cancelled/unknown).
  Result<JobState> wait(const std::string& job, int pollMs = 200);

 private:
  ServeClient() = default;

  int fd_ = -1;
  std::string rx_;
};

}  // namespace syseco::serve
