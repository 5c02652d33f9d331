#include "serve/watchdog.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>

#include "util/subprocess.hpp"

namespace syseco::serve {

namespace {

/// Classifies a raw exit. The engine's own exit codes (0 clean, 1
/// verify-failed, 3 invalid input, 4 degraded, 130 interrupted) are the
/// job's *verdict* - the run completed and said something - so they are
/// terminal, not retryable. Everything else is a worker death the
/// watchdog heals: signals and the fault injector's simulated kill -9
/// (137) classify as crash, the subprocess layer's reserved codes keep
/// their meaning, and unknown codes default to crash-retry.
void classify(WorkerExit& e) {
  if (e.signaled) {
    e.cause = e.signal == SIGXCPU ? "cpu-timeout" : "crash";
    e.retryable = true;
    return;
  }
  switch (e.exitCode) {
    case 0:
    case 1:
    case 3:
    case 4:
      e.cause = "ok";
      e.retryable = false;
      return;
    case 130:  // interrupted with its journal intact: resume on retry
      e.cause = "crash";
      e.retryable = true;
      return;
    case subprocess::kChildExitOom:
      e.cause = "oom";
      e.retryable = true;
      return;
    case subprocess::kChildExitFaultInjected:
      e.cause = "fault-injected";
      e.retryable = true;
      return;
    default:
      e.cause = "crash";
      e.retryable = true;
      return;
  }
}

}  // namespace

PoolWatchdog::PoolWatchdog(const Options& options)
    : slots_(std::max<std::size_t>(options.poolSize, 1)) {}

std::size_t PoolWatchdog::busy() const {
  std::size_t n = 0;
  for (const WorkerSlot& s : slots_) n += s.pid > 0;
  return n;
}

bool PoolWatchdog::isRunning(const std::string& job) const {
  for (const WorkerSlot& s : slots_)
    if (s.pid > 0 && s.job == job) return true;
  return false;
}

Status PoolWatchdog::spawn(const std::string& job, std::int64_t attempt,
                           const std::vector<std::string>& argv,
                           const std::string& logPath,
                           const std::vector<std::string>& extraEnv) {
  WorkerSlot* slot = nullptr;
  for (WorkerSlot& s : slots_)
    if (s.pid <= 0) {
      slot = &s;
      break;
    }
  if (slot == nullptr) return Status::internal("no idle pool slot");
  if (argv.empty()) return Status::internal("empty worker argv");

  const pid_t pid = ::fork();
  if (pid < 0) return Status::internal("fork() failed");
  if (pid == 0) {
    // Child. Own process group: a cancellation SIGTERM/SIGKILL reaches the
    // whole job (the engine may fork --isolate sandboxes of its own).
    ::setpgid(0, 0);
    // Die with the daemon: a kill -9 of the daemon must leave the job
    // genuinely mid-run (its journal's committed prefix intact), not
    // orphan a worker that finishes behind the recovery's back.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    // The CLI's handlers are inherited across fork but reset by exec;
    // nothing to restore here.
    const int logFd = ::open(logPath.c_str(),
                             O_WRONLY | O_CREAT | O_APPEND, 0666);
    if (logFd >= 0) {
      ::dup2(logFd, STDOUT_FILENO);
      ::dup2(logFd, STDERR_FILENO);
      if (logFd > STDERR_FILENO) ::close(logFd);
    }
    for (const std::string& kv : extraEnv) {
      const std::size_t eq = kv.find('=');
      if (eq != std::string::npos && eq > 0)
        ::setenv(kv.substr(0, eq).c_str(), kv.c_str() + eq + 1, 1);
    }
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv)
      cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    ::execv(cargv[0], cargv.data());
    std::_Exit(127);  // exec failed; classifies as crash upstream
  }
  slot->pid = pid;
  slot->job = job;
  slot->attempt = attempt;
  return Status::ok();
}

std::vector<WorkerExit> PoolWatchdog::reap() {
  std::vector<WorkerExit> exits;
  for (WorkerSlot& s : slots_) {
    if (s.pid <= 0) continue;
    std::optional<subprocess::WaitOutcome> done = subprocess::tryReap(s.pid);
    if (!done) continue;
    WorkerExit e;
    e.job = s.job;
    e.attempt = s.attempt;
    e.signaled = done->kind == subprocess::WaitKind::kSignaled;
    e.exitCode = done->exitCode;
    e.signal = done->signal;
    classify(e);
    exits.push_back(std::move(e));
    s = WorkerSlot{};
  }
  return exits;
}

void PoolWatchdog::terminate(const std::string& job, double graceSeconds) {
  for (WorkerSlot& s : slots_) {
    if (s.pid <= 0 || s.job != job) continue;
    // The child is its own process-group leader: signal the group so the
    // engine's own --isolate children die with it.
    ::kill(-s.pid, SIGTERM);
    subprocess::terminateChild(s.pid, graceSeconds);
    ::kill(-s.pid, SIGKILL);
    s = WorkerSlot{};
  }
}

void PoolWatchdog::terminateAll(double graceSeconds) {
  for (WorkerSlot& s : slots_) {
    if (s.pid <= 0) continue;
    ::kill(-s.pid, SIGTERM);
    subprocess::terminateChild(s.pid, graceSeconds);
    ::kill(-s.pid, SIGKILL);
    s = WorkerSlot{};
  }
}

}  // namespace syseco::serve
