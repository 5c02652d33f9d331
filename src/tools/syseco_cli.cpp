// syseco command-line tool.
//
// Reads an optimized implementation and a revised specification (netlist
// text format, BLIF or structural Verilog, selected by extension), runs one
// of the ECO engines, reports the patch attributes and writes the rectified
// design.
//
//   syseco_cli --impl C.blif --spec Cprime.blif [options]
//
// Options:
//   --engine syseco|deltasyn|conesynth|exactfix|interpfix     (default: syseco)
//   --out FILE          write the rectified netlist (.blif/.v/.netlist)
//   --report FILE       write a machine-readable JSON run report
//   --samples N         sampling-domain size             (default 64)
//   --max-points M      rectification points per try     (default 3)
//   --deadline-ms MS    wall-clock deadline for the whole run
//   --total-conflict-budget N   SAT conflicts across all phases
//   --bdd-node-budget N         BDD nodes across all managers
//   --level-driven      timing-aware rewire selection
//   --uniform-sampling  ablation: uniform instead of error-domain samples
//   --no-sweep          disable the patch-input sweeping post-process
//   --jobs N            worker threads for per-output rectification
//                       (1..256, default 1; results are bit-identical for
//                       every N unless a deadline is set)
//   --isolate           run per-output workers in forked, rlimit-sandboxed
//                       subprocesses (syseco only); a worker crash, OOM,
//                       timeout or garbled reply is retried with backoff and
//                       finally quarantined to the cone-clone fallback
//                       instead of taking the run down. Clean isolated runs
//                       are bit-identical to in-process --jobs runs.
//   --isolate-max-attempts N  contained failures before quarantine (def. 3)
//   --isolate-mem-mb N        per-worker RLIMIT_AS ceiling (0 = inherit)
//   --isolate-cpu-s S         per-worker RLIMIT_CPU ceiling (0 = inherit)
//   --isolate-wall-ms MS      per-attempt wall deadline (default 120000;
//                             0 disables; SIGTERM, then SIGKILL)
//   --isolate-backoff-ms MS   base retry backoff, doubled per attempt and
//                             capped at 5000ms, with deterministic jitter
//   --workers LIST      distribute per-output workers over a TCP fleet of
//                       `--serve-worker` agents (comma-separated host:port
//                       list; syseco only, mutually exclusive with
//                       --isolate). Tasks carry leases renewed by agent
//                       heartbeats; disconnects, truncated frames, lease
//                       expiries and refused connections are classified,
//                       retried with the --isolate backoff/quarantine rules,
//                       and duplicate results from reassigned tasks are
//                       discarded by epoch. When fewer than
//                       --fleet-min-workers agents remain usable the run
//                       degrades to in-process execution. Verdict records
//                       are bit-identical to local --jobs runs.
//   --fleet-lease-ms MS       per-task lease (default 10000); an agent
//                             heartbeats every quarter-lease
//   --fleet-min-workers N     usable-agent threshold before degrading to
//                             in-process execution (default 1)
//   --fleet-connect-timeout-ms MS  per-connect deadline (default 2000)
//   --serve-worker PORT run as a fleet agent: listen on PORT (0 = kernel-
//                       assigned; see --port-file) and serve task requests
//                       until stopped. Ignores --impl/--spec; the case
//                       arrives over the wire, content-addressed by crc32.
//   --serve-once        agent: exit after the first supervisor disconnects
//   --serve-cache-slots N  agent: resident-case LRU slots (netlist families
//                       kept decoded+analyzed; default 4, LRU-evicted)
//   --port-file FILE    agent/daemon: write the actually-bound port to FILE
//                       (atomic; what supervisors and scripts poll for).
//                       A leftover file from a previous life is detected,
//                       warned about and overwritten on startup; the file
//                       is removed again on clean exit.
//   --serve PORT        run as the resident ECO service: accept whole
//                       rectification jobs over TCP (see --connect),
//                       persist every queue transition to a write-ahead
//                       log under --serve-state, dispatch jobs to a
//                       supervised pool of exec'd engine workers, and heal
//                       worker crashes by re-dispatching with --resume.
//                       kill -9 of the daemon recovers the queue on
//                       restart with bit-identical verdict records.
//   --serve-state DIR   daemon: state directory (WAL + per-job artifacts;
//                       required with --serve)
//   --serve-pool N      daemon: concurrent job workers        (default 1)
//   --serve-max-jobs N  daemon: admission cap on resident (queued+running)
//                       jobs                                  (default 16)
//   --serve-max-tenant N   daemon: per-tenant resident-job cap (default 8)
//   --serve-max-bytes-mb N daemon: resident payload watermark (default 256)
//                       (pool size and the three caps must be >= 1)
//   --serve-attempts N  daemon: worker deaths per job before quarantine
//                       (default 3)
//                       With --workers, plain queued jobs go to an idle
//                       --serve-worker agent first (case upload + lease +
//                       epoch protocol) and to the local pool otherwise;
//                       when the usable fleet shrinks below
//                       --fleet-min-workers it degrades to the local pool.
//   --batch MANIFEST    sweep mode: submit every case of a JSON manifest
//                       ({"cases":[{"name","impl","spec"[,"seed"][,"jobs"]}
//                       ...]}) to an embedded --serve job queue, one job
//                       per case named by the case. The daemon's scheduler
//                       runs each on an idle --workers agent or else the
//                       local --serve-pool, retries with deterministic
//                       backoff, and quarantines past --serve-attempts; a
//                       case whose inputs do not parse fails as
//                       invalid-input. kill -9 of the driver resumes with
//                       --resume DIR, draining to verdicts bit-identical to
//                       serial local runs.
//   --batch-state DIR   batch: fresh sweep state directory (queue WAL +
//                       jobs/<case>/ artifacts + batch_report.json);
//                       refuses a dir that already holds a sweep (use
//                       --resume DIR for that)
//   --connect HOST:PORT client mode: submit --impl/--spec as a job to a
//                       --serve daemon, wait for it, and write --out /
//                       --report from the delivered artifacts. Structured
//                       rejections (queue-full, tenant-quota, ...) print
//                       their reason and exit 3.
//   --tenant NAME       client: admission-control tenant    (default
//                       "default")
//   --detach            client: exit right after acceptance; the job
//                       survives the connection (poll with --status)
//   --status JOB        client: print one job's queue state and exit
//   --wait JOB          client: block until JOB finishes, then deliver
//                       artifacts and exit with the job's verdict
//   --cancel JOB        client: cancel JOB (terminates a running worker)
//   --submit-fault SPEC client test hook: SYSECO_FAULT_INJECT spec exported
//                       into the job's worker process
//   --fault-plan FILE   chaos hook: load a seeded fault schedule (see
//                       util/fault_plan.hpp for the `at <hit> <site>
//                       <kind> [arg]` format) and export it via
//                       SYSECO_FAULT_PLAN so exec'd workers inherit it.
//                       One-shot firings are consumed through FILE.fired,
//                       so a restarted process does not re-inject them.
//   --seed S            RNG seed                          (default 1)
//   --journal DIR       crash-safe run journal: one checksummed record per
//                       completed per-output rectification (syseco only)
//   --resume DIR        replay DIR's journal, independently re-certify the
//                       newest checkpoint with fresh SAT miters, and re-run
//                       only the remaining outputs (implies --journal DIR)
//   --audit LEVEL       netlist invariant auditing: off|boundaries|paranoid
//                       (default off; boundaries checks the working netlist
//                       at phase boundaries, paranoid adds deep checks)
//   --oracle-bdd-budget N  oracle BDD-route node budget (default 1048576;
//                       exhaustion reports skipped(budget), never a verdict)
//   --repro-dir DIR     package every oracle disagreement into an atomic
//                       repro bundle (netlists, patch, seed, minimized
//                       counterexample, build info) under DIR
//   --version           print build info (git hash, compiler) and exit
//   --verbose           trace the search to stderr
//
// Unsigned values (counts, sizes, seeds) must be plain decimal digits: a
// negative value is a bad value (exit 3), never a wrapped-around huge one.
//
// Exit codes:
//   0   rectification SAT-verified, no resource limit interfered
//   1   verification failed
//   2   usage error or internal failure (including a failed --audit)
//   3   invalid input (unreadable/malformed file, nonsensical options,
//       a journal recorded for different inputs)
//   4   rectification SAT-verified, but a resource limit degraded the
//       search (some outputs fell back to cone cloning; see the report),
//       or the certification oracle quarantined a refuted output
//   130 interrupted (SIGINT/SIGTERM) with progress journaled; rerun with
//       --resume to continue from the last committed checkpoint

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <sstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "eco/conesynth.hpp"
#include "eco/deltasyn.hpp"
#include "eco/exactfix.hpp"
#include "eco/fleet.hpp"
#include "eco/report.hpp"
#include "eco/resume.hpp"
#include "eco/syseco.hpp"
#include "itp/interp_fix.hpp"
#include "io/journal_io.hpp"
#include "io/netlist_format.hpp"
#include "serve/batch.hpp"
#include "serve/serve.hpp"
#include "util/atomic_file.hpp"
#include "util/socket.hpp"
#include "util/build_info.hpp"
#include "util/fault.hpp"
#include "util/fault_plan.hpp"
#include "util/journal.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

namespace {

using namespace syseco;

constexpr int kExitClean = 0;
constexpr int kExitVerifyFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitInvalidInput = 3;
constexpr int kExitDegraded = 4;
constexpr int kExitInterrupted = 130;  ///< 128 + SIGINT, journal intact

/// First signal: finish the in-flight output, journal a clean interrupted
/// record, exit kExitInterrupted. Second signal: give up immediately (the
/// journal is still consistent - its last append either committed or will
/// be dropped as a torn record on resume). A repeat within
/// kSignalRepeatNs is the first interrupt delivered twice - `timeout`
/// signals the child and then its whole process group - not a second one.
volatile std::sig_atomic_t gInterrupted = 0;
std::atomic<std::int64_t> gFirstSignalNs{0};
constexpr std::int64_t kSignalRepeatNs = 50'000'000;

/// Agent-mode mirror of gInterrupted (the fleet agent polls a
/// std::atomic<bool>; lock-free stores are async-signal-safe).
std::atomic<bool> gAgentStop{false};

void onSignal(int /*sig*/) {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  const std::int64_t now = ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
  if (gInterrupted) {
    if (now - gFirstSignalNs.load() > kSignalRepeatNs)
      std::_Exit(kExitInterrupted);
    return;
  }
  gFirstSignalNs.store(now);
  gInterrupted = 1;
  gAgentStop.store(true, std::memory_order_relaxed);
}

void installSignalHandlers() {
  struct sigaction sa = {};
  sa.sa_handler = onSignal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

/// The binary the daemon execs per job: /proc/self/exe when resolvable
/// (robust against chdir and PATH games), argv[0] otherwise.
std::string selfExePath(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

/// Port-file hygiene, shared by the agent and the daemon: a file already
/// present at startup is stale state from a previous life (a crash skipped
/// the cleanup) - warn and overwrite rather than let a supervisor dial a
/// dead port. removeStalePortFile() runs before binding; the exit paths
/// unlink the file so the stale case stays rare.
void removeStalePortFile(const std::string& path) {
  if (path.empty()) return;
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return;
  std::fprintf(stderr,
               "warning: overwriting stale port file %s (left by a "
               "previous run)\n",
               path.c_str());
  ::unlink(path.c_str());
}

void cleanupPortFile(const std::string& path) {
  if (!path.empty()) ::unlink(path.c_str());
}

/// Shared --port-file hook: atomic write of the actually-bound port.
std::function<void(std::uint16_t)> portFileHook(const std::string& path) {
  return [path](std::uint16_t bound) {
    const Status s = writeFileAtomic(path, std::to_string(bound) + "\n");
    if (!s.isOk())
      std::fprintf(stderr, "warning: cannot write port file %s: %s\n",
                   path.c_str(), s.toString().c_str());
  };
}

/// Atomic failure report: a run that dies before producing diagnostics
/// still leaves machine-readable evidence of what went wrong. Best-effort -
/// a report-write failure must not mask the original error.
void writeFailureReport(const std::string& reportPath,
                        const std::string& engine, const std::string& error,
                        int exitCode) {
  if (reportPath.empty()) return;
  std::ostringstream rf;
  rf << "{\n";
  rf << "  \"engine\": \"" << jsonEscape(engine) << "\",\n";
  rf << "  \"success\": false,\n";
  rf << "  \"degraded\": false,\n";
  rf << "  \"exit_code\": " << exitCode << ",\n";
  rf << "  \"error\": \"" << jsonEscape(error) << "\",\n";
  rf << "  \"outputs\": []\n";
  rf << "}\n";
  const Status s = writeFileAtomic(reportPath, rf.str());
  if (!s.isOk())
    std::fprintf(stderr, "warning: cannot write report file %s: %s\n",
                 reportPath.c_str(), s.toString().c_str());
}

/// Parses an unsigned option value. std::stoull would accept "-1" and wrap
/// it to 2^64-1, so anything but plain decimal digits is a bad value.
std::uint64_t parseUnsigned(const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos)
    throw std::invalid_argument("expected a non-negative integer, got '" +
                                text + "'");
  return std::stoull(text);
}

/// parseUnsigned for counts where 0 would disable the feature outright
/// (a daemon with a zero cap refuses every job).
std::uint64_t parsePositive(const std::string& text) {
  const std::uint64_t v = parseUnsigned(text);
  if (v == 0) throw std::invalid_argument("must be >= 1");
  return v;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --impl FILE --spec FILE [--engine "
               "syseco|deltasyn|conesynth|exactfix|interpfix]\n"
               "          [--out FILE] [--report FILE] [--samples N] "
               "[--max-points M]\n"
               "          [--deadline-ms MS] [--total-conflict-budget N] "
               "[--bdd-node-budget N]\n"
               "          [--level-driven] [--uniform-sampling] [--no-sweep]"
               "\n          [--jobs N] [--isolate] [--isolate-max-attempts N]"
               " [--isolate-mem-mb N]\n"
               "          [--isolate-cpu-s S] [--isolate-wall-ms MS] "
               "[--isolate-backoff-ms MS]\n"
               "          [--workers host:port,...] [--fleet-lease-ms MS] "
               "[--fleet-min-workers N]\n"
               "          [--fleet-connect-timeout-ms MS]\n"
               "          [--journal DIR] [--resume DIR] "
               "[--audit off|boundaries|paranoid]\n"
               "          [--oracle-bdd-budget N] [--repro-dir DIR]\n"
               "          [--fault-plan FILE] [--seed S] [--version] "
               "[--verbose]\n"
               "       %s --serve-worker PORT [--serve-once] "
               "[--serve-cache-slots N]\n"
               "          [--port-file FILE] [--verbose]\n"
               "       %s --serve PORT --serve-state DIR [--serve-pool N] "
               "[--serve-max-jobs N]\n"
               "          [--serve-max-tenant N] [--serve-max-bytes-mb N] "
               "[--serve-attempts N]\n"
               "          [--port-file FILE] [--verbose]\n"
               "       %s --batch MANIFEST (--batch-state DIR | --resume "
               "DIR)\n"
               "          [--workers host:port,...] [--fleet-lease-ms MS] "
               "[--fleet-min-workers N]\n"
               "          [--serve-pool N] [--serve-attempts N] [--seed S] "
               "[--jobs N] [--verbose]\n"
               "       %s --connect HOST:PORT --impl FILE --spec FILE "
               "[--tenant NAME]\n"
               "          [--detach] [--out FILE] [--report FILE] [--seed S] "
               "[--jobs N] [--isolate]\n"
               "       %s --connect HOST:PORT "
               "--status JOB | --wait JOB | --cancel JOB\n",
               argv0, argv0, argv0, argv0, argv0, argv0);
  std::exit(kExitUsage);
}

}  // namespace

int main(int argc, char** argv) {
  std::string implPath, specPath, outPath, reportPath, engine = "syseco";
  std::string journalDir, resumeDir, portFilePath;
  int servePort = -1;  ///< >= 0: run as a fleet agent instead of an engine
  bool serveOnce = false;
  std::size_t serveCacheSlots = 4;
  int daemonPort = -1;  ///< >= 0: run as the resident --serve daemon
  std::string serveStateDir;
  std::size_t servePool = 1;
  serve::AdmissionLimits serveLimits;
  int serveAttempts = 3;
  std::string connectSpec, tenant = "default", submitFault;
  std::string faultPlanPath;
  std::string statusJob, waitJob, cancelJob;
  std::string batchManifest, batchStateDir;
  bool detach = false;
  SysecoOptions opt;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Both spellings work: "--audit paranoid" and "--audit=paranoid".
    std::optional<std::string> inlineValue;
    if (arg.rfind("--", 0) == 0) {
      if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
        inlineValue = arg.substr(eq + 1);
        arg.resize(eq);
      }
    }
    auto value = [&]() -> std::string {
      if (inlineValue) {
        std::string v = std::move(*inlineValue);
        inlineValue.reset();
        return v;
      }
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    try {
      if (arg == "--impl") implPath = value();
      else if (arg == "--spec") specPath = value();
      else if (arg == "--out") outPath = value();
      else if (arg == "--report") reportPath = value();
      else if (arg == "--engine") engine = value();
      else if (arg == "--samples") opt.numSamples = parseUnsigned(value());
      else if (arg == "--max-points") opt.maxPoints = std::stoi(value());
      else if (arg == "--deadline-ms")
        opt.deadlineSeconds = std::stod(value()) / 1000.0;
      else if (arg == "--total-conflict-budget")
        opt.totalConflictBudget = std::stoll(value());
      else if (arg == "--bdd-node-budget")
        opt.totalBddNodeBudget = std::stoll(value());
      else if (arg == "--level-driven") opt.levelDriven = true;
      else if (arg == "--uniform-sampling") opt.useErrorDomainSampling = false;
      else if (arg == "--no-sweep") opt.enableSweeping = false;
      else if (arg == "--jobs") opt.jobs = parseUnsigned(value());
      else if (arg == "--isolate") opt.isolate = true;
      else if (arg == "--isolate-max-attempts")
        opt.isolateMaxAttempts = std::stoi(value());
      else if (arg == "--isolate-mem-mb")
        opt.isolateMemoryBytes = parseUnsigned(value()) * 1024 * 1024;
      else if (arg == "--isolate-cpu-s")
        opt.isolateCpuSeconds = std::stod(value());
      else if (arg == "--isolate-wall-ms")
        opt.isolateWallSeconds = std::stod(value()) / 1000.0;
      else if (arg == "--isolate-backoff-ms")
        opt.isolateBackoffMs = std::stod(value());
      else if (arg == "--workers") {
        std::string list = value();
        std::size_t pos = 0;
        while (pos <= list.size()) {
          const std::size_t comma = list.find(',', pos);
          const std::string entry =
              list.substr(pos, comma == std::string::npos ? std::string::npos
                                                          : comma - pos);
          if (!entry.empty()) opt.workers.push_back(entry);
          if (comma == std::string::npos) break;
          pos = comma + 1;
        }
        if (opt.workers.empty())
          throw std::invalid_argument("expected a host:port list");
      }
      else if (arg == "--fleet-lease-ms")
        opt.fleetLeaseSeconds = std::stod(value()) / 1000.0;
      else if (arg == "--fleet-min-workers")
        opt.fleetMinWorkers = std::stoi(value());
      else if (arg == "--fleet-connect-timeout-ms")
        opt.fleetConnectTimeoutMs = std::stoi(value());
      else if (arg == "--serve-worker") {
        servePort = std::stoi(value());
        if (servePort < 0 || servePort > 65535)
          throw std::invalid_argument("port must be in 0..65535");
      }
      else if (arg == "--serve-once") serveOnce = true;
      else if (arg == "--serve-cache-slots")
        serveCacheSlots = parsePositive(value());
      else if (arg == "--serve") {
        daemonPort = std::stoi(value());
        if (daemonPort < 0 || daemonPort > 65535)
          throw std::invalid_argument("port must be in 0..65535");
      }
      else if (arg == "--serve-state") serveStateDir = value();
      else if (arg == "--serve-pool") servePool = parsePositive(value());
      else if (arg == "--serve-max-jobs")
        serveLimits.maxResidentJobs = parsePositive(value());
      else if (arg == "--serve-max-tenant")
        serveLimits.maxPerTenant = parsePositive(value());
      else if (arg == "--serve-max-bytes-mb")
        serveLimits.maxResidentBytes = parsePositive(value()) * 1024 * 1024;
      else if (arg == "--serve-attempts") {
        serveAttempts = std::stoi(value());
        if (serveAttempts < 1)
          throw std::invalid_argument("attempts must be >= 1");
      }
      else if (arg == "--batch") batchManifest = value();
      else if (arg == "--batch-state") batchStateDir = value();
      else if (arg == "--connect") connectSpec = value();
      else if (arg == "--tenant") tenant = value();
      else if (arg == "--detach") detach = true;
      else if (arg == "--status") statusJob = value();
      else if (arg == "--wait") waitJob = value();
      else if (arg == "--cancel") cancelJob = value();
      else if (arg == "--submit-fault") submitFault = value();
      else if (arg == "--fault-plan") faultPlanPath = value();
      else if (arg == "--port-file") portFilePath = value();
      else if (arg == "--seed") opt.seed = parseUnsigned(value());
      else if (arg == "--journal") journalDir = value();
      else if (arg == "--resume") resumeDir = value();
      else if (arg == "--audit") {
        const std::string level = value();
        const auto parsed = auditLevelFromName(level);
        if (!parsed) throw std::invalid_argument(
            "expected off|boundaries|paranoid, got '" + level + "'");
        opt.audit = *parsed;
      }
      else if (arg == "--oracle-bdd-budget")
        opt.oracle.bddNodeBudget = parseUnsigned(value());
      else if (arg == "--repro-dir") opt.reproDir = value();
      else if (arg == "--version") {
        std::printf("%s\n", buildInfoLine().c_str());
        return kExitClean;
      }
      else if (arg == "--verbose") opt.verbose = true;
      else if (arg == "--help" || arg == "-h") usage(argv[0]);
      else {
        std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
        usage(argv[0]);
      }
      if (inlineValue) {
        std::fprintf(stderr, "option '%s' does not take a value\n",
                     arg.c_str());
        usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad value for option '%s': %s\n", arg.c_str(),
                   e.what());
      // reportPath holds whatever was parsed so far; if --report already
      // appeared, record the failure there too so automation sees it.
      writeFailureReport(reportPath, engine,
                         "bad value for option '" + arg + "': " + e.what(),
                         kExitInvalidInput);
      return kExitInvalidInput;
    }
  }
  // Chaos schedules load before any mode dispatch, so every storage and
  // process fault site in daemon, batch, agent and engine modes is armed
  // from the first syscall. Exec'd workers inherit SYSECO_FAULT_PLAN and
  // arm themselves the same way (minus entries already consumed through
  // the .fired log).
  if (!faultPlanPath.empty())
    ::setenv("SYSECO_FAULT_PLAN", faultPlanPath.c_str(), 1);
  if (const Status s = fault::loadFaultPlanFromEnv(); !s.isOk()) {
    std::fprintf(stderr, "error: %s\n", s.toString().c_str());
    return kExitInvalidInput;
  }
  if (servePort >= 0) {
    // Fleet-agent mode: serve task requests over TCP until stopped. No
    // netlists are loaded here - the case arrives over the wire.
    installSignalHandlers();
    removeStalePortFile(portFilePath);
    FleetAgentOptions agentOpt;
    agentOpt.port = static_cast<std::uint16_t>(servePort);
    agentOpt.serveOnce = serveOnce;
    agentOpt.verbose = opt.verbose;
    agentOpt.cacheSlots = serveCacheSlots;
    agentOpt.stop = &gAgentStop;
    if (!portFilePath.empty()) agentOpt.boundHook = portFileHook(portFilePath);
    const Status served = runWorkerAgent(agentOpt);
    cleanupPortFile(portFilePath);
    if (!served.isOk()) {
      std::fprintf(stderr, "error: %s\n", served.toString().c_str());
      return kExitUsage;
    }
    return kExitClean;  // a signal-initiated stop is the normal shutdown
  }
  // The scheduler knobs --serve and --batch share.
  const auto fillScheduler = [&](serve::SchedulerOptions& so) {
    so.selfExe = selfExePath(argv[0]);
    so.poolSize = servePool;
    so.maxAttempts = serveAttempts;
    so.backoffBaseMs = opt.isolateBackoffMs;
    so.workers = opt.workers;
    so.fleetLeaseSeconds = opt.fleetLeaseSeconds;
    so.fleetConnectTimeoutMs = opt.fleetConnectTimeoutMs;
    so.fleetMinWorkers = opt.fleetMinWorkers;
    so.verbose = opt.verbose;
    so.stop = &gAgentStop;
  };
  if (daemonPort >= 0) {
    // Resident-daemon mode: accept whole rectification jobs over TCP,
    // queue them durably, dispatch to a supervised pool of exec'd engine
    // workers. Survives kill -9 by construction (see src/serve/).
    if (serveStateDir.empty()) {
      std::fprintf(stderr, "error: --serve needs --serve-state DIR\n");
      return kExitUsage;
    }
    installSignalHandlers();
    removeStalePortFile(portFilePath);
    serve::ServeOptions so;
    fillScheduler(so);
    so.port = static_cast<std::uint16_t>(daemonPort);
    so.stateDir = serveStateDir;
    so.limits = serveLimits;
    if (!portFilePath.empty()) so.boundHook = portFileHook(portFilePath);
    const Status served = serve::runServeDaemon(so);
    cleanupPortFile(portFilePath);
    if (!served.isOk()) {
      std::fprintf(stderr, "error: %s\n", served.toString().c_str());
      return served.code() == StatusCode::kInvalidInput ? kExitInvalidInput
                                                        : kExitUsage;
    }
    return kExitClean;
  }
  if (!batchManifest.empty()) {
    // Batch-sweep mode: submit a manifest of whole cases to an embedded
    // job queue and drain it with the daemon's scheduler - idle --workers
    // agents first, the local pool otherwise. SIGKILL-safe: re-run with
    // --resume to drain the same sweep to identical verdicts.
    if (!batchStateDir.empty() && !resumeDir.empty()) {
      std::fprintf(stderr,
                   "error: --batch takes --batch-state DIR (fresh sweep) or "
                   "--resume DIR (continue), not both\n");
      return kExitUsage;
    }
    installSignalHandlers();
    serve::BatchOptions bo;
    fillScheduler(bo);
    bo.manifestPath = batchManifest;
    bo.expectResume = !resumeDir.empty();
    bo.stateDir = bo.expectResume ? resumeDir : batchStateDir;
    if (bo.stateDir.empty()) {
      std::fprintf(stderr,
                   "error: --batch needs --batch-state DIR (fresh sweep) or "
                   "--resume DIR (continue)\n");
      return kExitUsage;
    }
    bo.defaultSeed = opt.seed;
    bo.defaultJobs = static_cast<std::int64_t>(opt.jobs);
    Result<serve::BatchOutcome> ran = serve::runBatch(bo);
    if (!ran.isOk()) {
      std::fprintf(stderr, "error: %s\n", ran.status().toString().c_str());
      return ran.status().code() == StatusCode::kInvalidInput
                 ? kExitInvalidInput
                 : kExitUsage;
    }
    const serve::BatchOutcome& oc = ran.value();
    std::printf("batch: %zu done, %zu failed%s%s\n", oc.done, oc.failed,
                oc.degradedToLocal ? ", degraded to local pool" : "",
                oc.interrupted ? ", interrupted" : "");
    if (oc.interrupted) return kExitInterrupted;
    if (oc.failed > 0) return kExitDegraded;
    return static_cast<int>(oc.worstCaseExit);
  }
  if (!connectSpec.empty()) {
    // Client mode: talk to a --serve daemon. Transport failures exit 2;
    // structured rejections and unknown jobs exit 3; otherwise the job's
    // own verdict becomes the client's exit code.
    Result<std::pair<std::string, std::uint16_t>> hostPort =
        net::parseHostPort(connectSpec);
    if (!hostPort.isOk()) {
      std::fprintf(stderr, "error: %s\n",
                   hostPort.status().toString().c_str());
      return kExitInvalidInput;
    }
    Result<serve::ServeClient> connected = serve::ServeClient::connect(
        hostPort.value().first, hostPort.value().second, 5000);
    if (!connected.isOk()) {
      std::fprintf(stderr, "error: %s\n",
                   connected.status().toString().c_str());
      return kExitUsage;
    }
    serve::ServeClient client = connected.take();
    // Delivers a finished job's artifacts and maps its state to an exit
    // code: the daemon's verdict passes through for done jobs.
    auto finish = [&](const serve::JobState& st) -> int {
      std::printf("job %s: %s", st.job.c_str(), st.state.c_str());
      if (st.state == "done")
        std::printf(" (exit %lld, attempt %lld)",
                    static_cast<long long>(st.exitCode),
                    static_cast<long long>(st.attempt));
      else if (!st.cause.empty())
        std::printf(" (%s: %s)", st.cause.c_str(), st.detail.c_str());
      std::printf("\n");
      if (!reportPath.empty() && !st.reportText.empty()) {
        const Status s = writeFileAtomic(reportPath, st.reportText);
        if (!s.isOk())
          std::fprintf(stderr, "warning: cannot write %s: %s\n",
                       reportPath.c_str(), s.toString().c_str());
        else
          std::printf("run report written to %s\n", reportPath.c_str());
      }
      if (!outPath.empty() && !st.outText.empty()) {
        const Status s = writeFileAtomic(outPath, st.outText);
        if (!s.isOk())
          std::fprintf(stderr, "warning: cannot write %s: %s\n",
                       outPath.c_str(), s.toString().c_str());
        else
          std::printf("rectified design written to %s\n", outPath.c_str());
      }
      if (st.state == "done") return static_cast<int>(st.exitCode);
      if (st.state == "failed") return kExitUsage;
      if (st.state == "cancelled") return kExitInterrupted;
      return kExitInvalidInput;  // unknown job
    };
    auto clientAct = [&]() -> Result<int> {
      if (!cancelJob.empty()) {
        Result<serve::JobState> st = client.cancel(cancelJob);
        if (!st.isOk()) return st.status();
        std::printf("job %s: %s\n", st.value().job.c_str(),
                    st.value().state.c_str());
        return st.value().state == "unknown" ? kExitInvalidInput
                                             : kExitClean;
      }
      if (!statusJob.empty()) {
        Result<serve::JobState> st = client.status(statusJob);
        if (!st.isOk()) return st.status();
        std::printf("job %s: %s", st.value().job.c_str(),
                    st.value().state.c_str());
        if (!st.value().cause.empty())
          std::printf(" (%s: %s)", st.value().cause.c_str(),
                      st.value().detail.c_str());
        std::printf("\n");
        return st.value().state == "unknown" ? kExitInvalidInput
                                             : kExitClean;
      }
      if (!waitJob.empty()) {
        Result<serve::JobState> st = client.wait(waitJob);
        if (!st.isOk()) return st.status();
        return finish(st.value());
      }
      if (implPath.empty() || specPath.empty()) usage(argv[0]);
      Result<std::string> implText = readFileText(implPath);
      if (!implText.isOk()) return implText.status();
      Result<std::string> specText = readFileText(specPath);
      if (!specText.isOk()) return specText.status();
      serve::SubmitRequest req;
      req.tenant = tenant;
      req.format = netlistFormatOf(implPath);
      req.implText = implText.take();
      req.specText = specText.take();
      req.seed = opt.seed;
      req.jobs = static_cast<std::int64_t>(opt.jobs);
      req.isolate = opt.isolate;
      req.detach = detach;
      req.faultInject = submitFault;
      Result<serve::SubmitOutcome> sub = client.submit(req);
      if (!sub.isOk()) return sub.status();
      if (!sub.value().accepted) {
        std::fprintf(stderr, "rejected: %s (%s)\n",
                     sub.value().rejected.reason.c_str(),
                     sub.value().rejected.detail.c_str());
        return kExitInvalidInput;
      }
      std::printf("accepted: job %s\n", sub.value().job.c_str());
      if (detach) return kExitClean;
      Result<serve::JobState> st = client.wait(sub.value().job);
      if (!st.isOk()) return st.status();
      return finish(st.value());
    };
    Result<int> rc = clientAct();
    if (!rc.isOk()) {
      std::fprintf(stderr, "error: %s\n", rc.status().toString().c_str());
      return kExitUsage;
    }
    return rc.value();
  }
  if (implPath.empty() || specPath.empty()) usage(argv[0]);
  if (!resumeDir.empty() && journalDir.empty()) journalDir = resumeDir;
  if (!journalDir.empty() && engine != "syseco") {
    std::fprintf(stderr,
                 "error: --journal/--resume support only the syseco engine\n");
    writeFailureReport(reportPath, engine,
                       "--journal/--resume support only the syseco engine",
                       kExitUsage);
    return kExitUsage;
  }
  if (!opt.workers.empty() && engine != "syseco") {
    std::fprintf(stderr, "error: --workers supports only the syseco engine\n");
    writeFailureReport(reportPath, engine,
                       "--workers supports only the syseco engine", kExitUsage);
    return kExitUsage;
  }

  try {
    Result<Netlist> implLoaded = loadAnyNetlistChecked(implPath);
    if (!implLoaded.isOk()) {
      std::fprintf(stderr, "error: %s\n",
                   implLoaded.status().toString().c_str());
      writeFailureReport(reportPath, engine, implLoaded.status().toString(),
                         kExitInvalidInput);
      return kExitInvalidInput;
    }
    Result<Netlist> specLoaded = loadAnyNetlistChecked(specPath);
    if (!specLoaded.isOk()) {
      std::fprintf(stderr, "error: %s\n",
                   specLoaded.status().toString().c_str());
      writeFailureReport(reportPath, engine, specLoaded.status().toString(),
                         kExitInvalidInput);
      return kExitInvalidInput;
    }
    const Netlist impl = implLoaded.take();
    const Netlist spec = specLoaded.take();
    std::printf("implementation: %zu gates, %zu inputs, %zu outputs\n",
                impl.countLiveGates(), impl.numInputs(), impl.numOutputs());
    std::printf("revised spec:   %zu gates\n", spec.countLiveGates());

    // Post-parse boundary audit: the parsers validate their own formats,
    // but a structurally corrupt netlist (e.g. a handcrafted file that
    // round-trips the reader) should be diagnosed here, not after the
    // engine has chewed on it. Clean audits are folded into the report's
    // boundary accounting after the run.
    std::vector<AuditReport> postParseAudits;
    if (opt.audit != AuditLevel::kOff) {
      const std::pair<const char*, const Netlist*> toAudit[] = {
          {"impl", &impl}, {"spec", &spec}};
      for (const auto& [name, nl] : toAudit) {
        AuditReport report = auditNetlist(
            *nl, opt.audit, std::string("post-parse(") + name + ")");
        if (!report.ok) {
          const Status s = auditFailure(report);
          std::fprintf(stderr, "error: %s\n", s.toString().c_str());
          writeFailureReport(reportPath, engine, s.toString(), kExitUsage);
          return kExitUsage;
        }
        postParseAudits.push_back(std::move(report));
      }
    }

    EcoResult result;
    SysecoDiagnostics diag;
    if (engine == "syseco") {
      // --- Crash-safe journaling setup -----------------------------------
      JournalWriter journal;
      ResumePlan plan;
      Netlist restoredWorking;
      bool resumed = false;
      bool haveRunStart = false;
      // First storage fault the journal hooks observe; once set, the
      // checkpoint hook stops the run (fail closed) instead of silently
      // losing durability for later outputs.
      std::string journalFault;
      if (!resumeDir.empty()) {
        Result<JournalContents> read = readJournal(resumeDir);
        if (!read.isOk()) {
          std::fprintf(stderr, "error: %s\n",
                       read.status().toString().c_str());
          writeFailureReport(reportPath, engine, read.status().toString(),
                             kExitInvalidInput);
          return kExitInvalidInput;
        }
        Result<ResumeOutcome> prepared =
            prepareResume(impl, spec, opt, read.value());
        if (!prepared.isOk()) {
          std::fprintf(stderr, "error: %s\n",
                       prepared.status().toString().c_str());
          writeFailureReport(reportPath, engine, prepared.status().toString(),
                             kExitInvalidInput);
          return kExitInvalidInput;
        }
        ResumeOutcome outcome = prepared.take();
        for (const std::string& note : outcome.notes)
          std::fprintf(stderr, "journal: %s\n", note.c_str());
        haveRunStart = read.value().hasRunStart;
        if (outcome.adopted) {
          resumed = true;
          restoredWorking = std::move(outcome.netlist);
          plan = std::move(outcome.plan);
          opt.resumePlan = &plan;
          std::printf("resume: %zu output(s) re-certified, %zu record(s) "
                      "demoted to redo\n",
                      outcome.certified.size(), outcome.demotedRecords);
        } else {
          std::printf("resume: no adoptable checkpoint; running fresh\n");
        }
      }
      if (!journalDir.empty()) {
        Result<JournalScan> scan = scanJournal(journalDir);
        if (!scan.isOk()) {
          std::fprintf(stderr, "error: %s\n",
                       scan.status().toString().c_str());
          writeFailureReport(reportPath, engine, scan.status().toString(),
                             kExitInvalidInput);
          return kExitInvalidInput;
        }
        Result<JournalWriter> opened =
            (!resumeDir.empty() && (haveRunStart ||
                                    !scan.value().frames.empty()))
                ? JournalWriter::resume(journalDir, scan.value())
                : JournalWriter::create(journalDir);
        if (!opened.isOk()) {
          std::fprintf(stderr, "error: %s\n",
                       opened.status().toString().c_str());
          writeFailureReport(reportPath, engine, opened.status().toString(),
                             kExitUsage);
          return kExitUsage;
        }
        journal = opened.take();
        installSignalHandlers();
        opt.planHook = [&](const std::vector<std::uint32_t>& order,
                           std::size_t failingBefore) {
          if (haveRunStart) return;  // the resumed journal already has one
          const Status s = journal.append(serializeRunStart(
              makeRunStartRecord(impl, spec, opt, order, failingBefore)));
          if (!s.isOk()) {
            if (journalFault.empty()) journalFault = s.toString();
            std::fprintf(stderr, "warning: journal write failed: %s\n",
                         s.toString().c_str());
          }
        };
        opt.checkpointHook = [&](const RunCheckpoint& cp) -> bool {
          const Status s =
              journal.append(serializeOutputRecord(makeOutputRecord(cp)));
          if (!s.isOk()) {
            if (journalFault.empty()) journalFault = s.toString();
            std::fprintf(stderr, "warning: journal write failed: %s\n",
                         s.toString().c_str());
          }
          // Crash-injection site, deliberately *after* the commit: a crash
          // here loses no progress, which is exactly what the
          // kill-and-resume tests assert.
          fault::fire("journal.checkpoint");
          // Fail closed on a storage fault: the journal can no longer
          // commit progress, so continuing would burn work that a crash
          // would silently lose. Stop as interrupted; --resume recovers
          // from the last COMMIT-consistent prefix.
          return gInterrupted == 0 && journalFault.empty();
        };
        // Fleet lifecycle events become "fleet" records: the journal keeps
        // the full failure/retry/degradation history of a --workers run.
        // Timing-dependent by design, ignored by resume, and never part of
        // the bit-compared verdict records.
        opt.fleetEventHook = [&](const FleetEvent& ev) {
          JournalFleetEvent rec;
          rec.kind = ev.kind;
          rec.worker = ev.worker;
          rec.output = ev.output;
          rec.attempt = ev.attempt;
          rec.detail = ev.detail;
          const Status s = journal.append(serializeFleetEvent(rec));
          if (!s.isOk())
            std::fprintf(stderr, "warning: journal write failed: %s\n",
                         s.toString().c_str());
        };
      }

      Result<EcoResult> run = runSysecoChecked(
          resumed ? restoredWorking : impl, spec, opt, &diag);
      if (!run.isOk()) {
        std::fprintf(stderr, "error: %s\n", run.status().toString().c_str());
        const int rc = run.status().code() == StatusCode::kInvalidInput
                           ? kExitInvalidInput
                           : kExitUsage;
        writeFailureReport(reportPath, engine, run.status().toString(), rc);
        return rc;
      }
      result = run.take();
      if (diag.interrupted) {
        const Status s = journal.append(serializeInterrupted(
            diag.outputs.size(), result.failingOutputsBefore));
        if (!s.isOk())
          std::fprintf(stderr, "warning: journal write failed: %s\n",
                       s.toString().c_str());
        if (!journalFault.empty())
          std::fprintf(stderr,
                       "fatal: journal unusable (%s); run stopped at the "
                       "last committed checkpoint\n",
                       journalFault.c_str());
        std::printf("interrupted: %zu output(s) journaled to %s; rerun "
                    "with --resume %s to continue\n",
                    diag.outputs.size(), journalDir.c_str(),
                    journalDir.c_str());
        return kExitInterrupted;
      }
      // Journal the oracle's verdicts: the record is timing-free, so
      // --jobs N, --isolate and --resume runs of the same inputs append
      // bit-identical payloads (the resume parser keeps the last one).
      if (!journalDir.empty()) {
        const Status s =
            journal.append(serializeVerdicts(makeVerdictsRecord(diag)));
        if (!s.isOk())
          std::fprintf(stderr, "warning: journal write failed: %s\n",
                       s.toString().c_str());
      }
    } else if (engine == "deltasyn") {
      DeltaSynOptions d;
      d.seed = opt.seed;
      result = runDeltaSyn(impl, spec, d);
    } else if (engine == "conesynth") {
      result = runConeSynth(impl, spec, opt.seed);
    } else if (engine == "exactfix") {
      ExactFixOptions x;
      x.seed = opt.seed;
      result = runExactFix(impl, spec, x);
    } else if (engine == "interpfix") {
      InterpFixOptions x;
      x.seed = opt.seed;
      result = runInterpFix(impl, spec, x);
    } else {
      std::fprintf(stderr, "unknown engine '%s'\n", engine.c_str());
      writeFailureReport(reportPath, engine, "unknown engine '" + engine + "'",
                         kExitUsage);
      return kExitUsage;
    }

    std::printf("failing outputs: %zu\n", result.failingOutputsBefore);
    std::printf("patch: inputs=%zu outputs=%zu gates=%zu nets=%zu\n",
                result.stats.inputs, result.stats.outputs,
                result.stats.gates, result.stats.nets);
    if (engine == "syseco") {
      std::printf("rewired in place: %zu, cone fallbacks: %zu, sweep "
                  "merges: %zu, isop rewrites: %zu (-%zu gates)\n",
                  diag.outputsViaRewire, diag.outputsViaFallback,
                  diag.sweepMerges, diag.isopRewrites, diag.isopGatesSaved);
      if (diag.resourceDegraded()) {
        std::size_t degraded = 0, fallback = 0;
        for (const OutputReport& r : diag.outputs) {
          degraded += r.status == OutputRectStatus::kDegraded;
          fallback += r.status == OutputRectStatus::kFallback;
        }
        std::printf("resource limits tripped (%s): %zu output(s) degraded, "
                    "%zu via fallback\n",
                    statusCodeName(diag.runLimit), degraded, fallback);
      }
    }
    std::printf("runtime: %s\n", formatHms(result.seconds).c_str());
    const bool oracleRan = engine == "syseco";
    std::printf("verification: %s\n",
                result.success
                    ? (oracleRan ? "CERTIFIED (SAT+BDD+simulation)"
                                 : "EQUIVALENT (SAT-proven)")
                    : "FAILED");
    if (oracleRan) {
      std::size_t certified = 0;
      for (const OutputCertificate& c : diag.certificates)
        certified += c.certified;
      std::printf("oracle: %zu/%zu output pair(s) certified, "
                  "%zu disagreement(s)%s\n",
                  certified, diag.certificates.size(),
                  diag.oracleDisagreements.size(),
                  diag.oracleDisagreements.empty() ? ""
                                                   : " (quarantined)");
    }
    // Fold the CLI's post-parse audits into the boundary accounting so the
    // report counts every audited site, not just the engine's.
    if (!postParseAudits.empty()) {
      for (AuditReport& a : postParseAudits)
        diag.secondsAudit += a.seconds;
      diag.audits.insert(diag.audits.begin(),
                         std::make_move_iterator(postParseAudits.begin()),
                         std::make_move_iterator(postParseAudits.end()));
    }

    int exitCode = kExitVerifyFailed;
    if (result.success)
      exitCode = (engine == "syseco" && diag.resourceDegraded())
                     ? kExitDegraded
                     : kExitClean;

    if (!reportPath.empty()) {
      // Atomic temp-file + rename write: a crash mid-report leaves either
      // the previous report or none, never a truncated JSON document.
      std::ostringstream rf;
      writeRunReport(rf, engine, result, diag, opt.audit, exitCode);
      const Status s = writeFileAtomic(reportPath, rf.str());
      if (!s.isOk()) {
        std::fprintf(stderr, "error: cannot write report file %s: %s\n",
                     reportPath.c_str(), s.toString().c_str());
        return kExitUsage;
      }
      std::printf("run report written to %s\n", reportPath.c_str());
    }
    if (!outPath.empty()) {
      saveAnyNetlist(outPath, result.rectified);
      std::printf("rectified design written to %s\n", outPath.c_str());
    }
    return exitCode;
  } catch (const StatusError& e) {
    std::fprintf(stderr, "error: %s\n", e.status().toString().c_str());
    const int rc = e.status().code() == StatusCode::kInvalidInput
                       ? kExitInvalidInput
                       : kExitUsage;
    writeFailureReport(reportPath, engine, e.status().toString(), rc);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    writeFailureReport(reportPath, engine, e.what(), kExitUsage);
    return kExitUsage;
  }
}
