// Chaos soak: sweeps N seeded storage-fault schedules across the CLI's
// execution modes and proves the system invariant of the storage stack -
// every interrupted run either completes with bit-identical verdicts or
// exits with a structured cause, and a fault-free heal (--resume, daemon
// restart, batch --resume) converges on the fault-free reference.
//
// Per schedule: generate a plan from the seed (util/fault_plan), run the
// mode under SYSECO_FAULT_PLAN, require a structured exit (never a signal
// death, a hang, or silent corruption), heal fault-free, then compare the
// healed verdict record and rectified netlist byte-for-byte against a
// fault-free reference run, and sweep the state tree for leaked staging
// files. A violated schedule keeps its directory - plan, logs, journals -
// as the repro bundle, and the binary exits nonzero.
//
//   chaos_soak --cli BIN --impl F --spec F --out-dir DIR
//              [--schedules N] [--seed-base S] [--plan-len K]
//              [--modes jobs,isolate,fleet,serve,batch] [--keep] [--verbose]

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/watchdog.hpp"
#include "util/fault_plan.hpp"
#include "util/journal.hpp"

using syseco::JournalScan;
using syseco::Result;
using syseco::scanJournal;
using syseco::serve::PoolWatchdog;
using syseco::serve::WorkerExit;

namespace {

bool gVerbose = false;

void vlog(const std::string& msg) {
  if (gVerbose) std::fprintf(stderr, "chaos-soak: %s\n", msg.c_str());
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

bool mkdirs(const std::string& path) {
  return ::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST;
}

void rmTree(const std::string& path) {
  std::string cmd = "rm -rf '" + path + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
}

/// Leaked writeFileAtomic staging files anywhere under `dir`. After a
/// fault-free heal the recovery sweeps must have removed every one.
void findStaging(const std::string& dir, std::vector<std::string>* out) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st {};
    if (::lstat(path.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) findStaging(path, out);
    else if (name.find(".tmp.") != std::string::npos) out->push_back(path);
  }
  ::closedir(d);
}

/// Last journaled verdicts payload in `dir`, or "" when none committed.
std::string verdictsFrom(const std::string& dir) {
  Result<JournalScan> scan = scanJournal(dir);
  if (!scan.isOk()) return "";
  std::string last;
  for (const syseco::JournalFrame& f : scan.value().frames)
    if (f.payload.rfind("{\"type\":\"verdicts\"", 0) == 0) last = f.payload;
  return last;
}

struct RunResult {
  bool finished = false;  ///< reaped before the deadline
  bool signaled = false;
  int exitCode = -1;
  int signal = 0;
};

std::string describe(const RunResult& r) {
  if (!r.finished) return "timed out (hang)";
  if (r.signaled) return "died on signal " + std::to_string(r.signal);
  return "exit " + std::to_string(r.exitCode);
}

/// Spawns argv under the watchdog and blocks until it exits or the
/// deadline passes (then SIGTERM -> SIGKILL; reported as not finished).
RunResult runToCompletion(PoolWatchdog& dog, const std::string& name,
                          const std::vector<std::string>& argv,
                          const std::string& logPath,
                          const std::vector<std::string>& extraEnv,
                          double deadlineSeconds) {
  RunResult out;
  if (!dog.spawn(name, 1, argv, logPath, extraEnv).isOk()) return out;
  const int ticks = static_cast<int>(deadlineSeconds * 50);
  bool terminated = false;
  for (int tick = 0; tick < ticks + 400; ++tick) {
    for (const WorkerExit& e : dog.reap()) {
      if (e.job != name) continue;
      out.finished = !terminated;
      out.signaled = e.signaled;
      out.exitCode = e.exitCode;
      out.signal = e.signal;
      return out;
    }
    if (tick >= ticks && !terminated) {
      dog.terminate(name, 2.0);
      terminated = true;
    }
    ::usleep(20000);
  }
  return out;
}

/// Polls an ephemeral-port file written by --serve / --serve-worker.
std::string waitPort(const std::string& portFile, double deadlineSeconds) {
  for (int tick = 0; tick < static_cast<int>(deadlineSeconds * 20); ++tick) {
    std::string text = slurp(portFile);
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
      text.pop_back();
    if (!text.empty()) return text;
    ::usleep(50000);
  }
  return "";
}

/// The storage sites a schedule for `mode` may target. Daemon modes stay
/// off atomic.* (the port-file write shares that site - faulting it would
/// test the harness's patience, not the WAL) and engine modes off the
/// serve WALs they never touch. repro.* only fires on oracle
/// disagreements, which a clean reference case never produces.
std::vector<syseco::fault::FaultSite> sitesForMode(const std::string& mode) {
  std::vector<std::string> prefixes;
  if (mode == "serve" || mode == "batch") prefixes = {"queue.wal."};
  else prefixes = {"journal.", "atomic."};
  std::vector<syseco::fault::FaultSite> out;
  for (const syseco::fault::FaultSite& s : syseco::fault::storageFaultSites())
    for (const std::string& p : prefixes)
      if (std::string(s.name).rfind(p, 0) == 0) out.push_back(s);
  return out;
}

bool allowedFaultedExit(int code) {
  // Structured outcomes only: clean (0), usage/internal (2), invalid
  // input (3), degraded (4), interrupted (130), injected crash (137).
  // Anything else - notably 1 (verify failed) - is silent corruption.
  return code == 0 || code == 2 || code == 3 || code == 4 || code == 130 ||
         code == 137;
}

struct Context {
  std::string cli, impl, spec, outDir;
  std::string refVerdicts, refOut;
  double deadline = 120.0;
};

std::vector<std::string> engineArgs(const Context& ctx) {
  return {ctx.cli,    "--impl", ctx.impl, "--spec", ctx.spec,
          "--seed", "1",      "--jobs", "2"};
}

void append(std::vector<std::string>& v,
            std::initializer_list<std::string> more) {
  v.insert(v.end(), more);
}

// --- Per-mode schedule drivers (fill `vio` with invariant violations) ------

void checkHealedArtifacts(const Context& ctx, const std::string& journalDir,
                          const std::string& healedOut,
                          std::vector<std::string>* vio) {
  const std::string verdicts = verdictsFrom(journalDir);
  if (verdicts.empty())
    vio->push_back("healed journal has no verdicts record");
  else if (verdicts != ctx.refVerdicts)
    vio->push_back("healed verdicts diverged from the fault-free reference");
  if (slurp(healedOut) != ctx.refOut)
    vio->push_back("healed netlist diverged from the fault-free reference");
}

void runEngineSchedule(const Context& ctx, PoolWatchdog& dog,
                       const std::string& mode, const std::string& sdir,
                       const std::string& planPath,
                       std::vector<std::string>* vio) {
  const std::string jdir = sdir + "/j";

  std::string workers;
  if (mode == "fleet") {
    for (int a = 1; a <= 2; ++a) {
      const std::string pf = sdir + "/port" + std::to_string(a);
      if (!dog.spawn("agent" + std::to_string(a), 1,
                     {ctx.cli, "--serve-worker", "0", "--port-file", pf},
                     sdir + "/agent" + std::to_string(a) + ".log", {})
               .isOk()) {
        vio->push_back("cannot spawn fleet agent " + std::to_string(a));
        break;
      }
      const std::string port = waitPort(pf, 20.0);
      if (port.empty()) {
        vio->push_back("fleet agent " + std::to_string(a) +
                       " never published a port");
        break;
      }
      if (!workers.empty()) workers += ",";
      workers += "127.0.0.1:" + port;
    }
  }

  std::vector<std::string> argv = engineArgs(ctx);
  append(argv, {"--journal", jdir, "--out", sdir + "/faulted.blif"});
  if (mode == "isolate") append(argv, {"--isolate"});
  if (mode == "fleet" && !workers.empty()) append(argv, {"--workers", workers});
  const RunResult faulted =
      runToCompletion(dog, "faulted", argv, sdir + "/faulted.log",
                      {"SYSECO_FAULT_PLAN=" + planPath}, ctx.deadline);
  if (!faulted.finished || faulted.signaled ||
      !allowedFaultedExit(faulted.exitCode))
    vio->push_back("faulted run: unstructured outcome (" + describe(faulted) +
                   ")");
  vlog(mode + " faulted run: " + describe(faulted));

  if (mode == "fleet") {
    dog.terminate("agent1", 1.0);
    dog.terminate("agent2", 1.0);
  }

  // Heal fault-free: --resume adopts the committed prefix (or runs fresh
  // over an empty journal) and must land the reference result.
  std::vector<std::string> heal = engineArgs(ctx);
  append(heal, {"--resume", jdir, "--out", sdir + "/healed.blif"});
  const RunResult healed = runToCompletion(dog, "heal", heal,
                                           sdir + "/heal.log", {}, ctx.deadline);
  if (!healed.finished || healed.signaled || healed.exitCode != 0) {
    vio->push_back("heal run failed (" + describe(healed) + ")");
    return;
  }
  checkHealedArtifacts(ctx, jdir, sdir + "/healed.blif", vio);

  std::vector<std::string> leaks;
  findStaging(jdir, &leaks);
  for (const std::string& leak : leaks)
    vio->push_back("leaked staging file: " + leak);
}

void runServeSchedule(const Context& ctx, PoolWatchdog& dog,
                      const std::string& sdir, const std::string& planPath,
                      std::vector<std::string>* vio) {
  const std::string state = sdir + "/state";
  const auto daemonArgs = [&](const std::string& portFile) {
    return std::vector<std::string>{
        ctx.cli,       "--serve",     "0",       "--serve-state", state,
        "--port-file", portFile,      "--serve-pool", "1",
        "--serve-attempts", "5"};
  };

  // Faulted life: the daemon (and the workers it execs) load the plan.
  if (!dog.spawn("daemon", 1, daemonArgs(sdir + "/port1"),
                 sdir + "/daemon1.log", {"SYSECO_FAULT_PLAN=" + planPath})
           .isOk()) {
    vio->push_back("cannot spawn faulted daemon");
    return;
  }
  const std::string port = waitPort(sdir + "/port1", 20.0);
  if (!port.empty()) {
    // A faulted daemon may die under the client at any point; every client
    // outcome short of a signal death or a hang is structured.
    std::vector<std::string> submit = {
        ctx.cli,  "--connect", "127.0.0.1:" + port,
        "--impl", ctx.impl,    "--spec",
        ctx.spec, "--seed",    "1",
        "--jobs", "2",         "--out",
        sdir + "/faulted.blif"};
    const RunResult client = runToCompletion(
        dog, "client", submit, sdir + "/client1.log", {}, ctx.deadline);
    if (!client.finished || client.signaled ||
        !allowedFaultedExit(client.exitCode))
      vio->push_back("faulted client: unstructured outcome (" +
                     describe(client) + ")");
    vlog("serve faulted client: " + describe(client));
  } else {
    vlog("serve faulted daemon died before publishing a port (allowed)");
  }
  dog.terminate("daemon", 2.0);
  dog.reap();

  // Heal: restart fault-free on the same state; the recovered queue drains
  // (pool 1, FIFO), then a fresh submission of the same case must land the
  // reference result.
  ::unlink((sdir + "/port1").c_str());
  if (!dog.spawn("daemon", 1, daemonArgs(sdir + "/port2"),
                 sdir + "/daemon2.log", {})
           .isOk()) {
    vio->push_back("cannot spawn healed daemon");
    return;
  }
  const std::string port2 = waitPort(sdir + "/port2", 20.0);
  if (port2.empty()) {
    vio->push_back("healed daemon never published a port");
    dog.terminate("daemon", 2.0);
    return;
  }
  std::vector<std::string> submit = {
      ctx.cli,  "--connect", "127.0.0.1:" + port2,
      "--impl", ctx.impl,    "--spec",
      ctx.spec, "--seed",    "1",
      "--jobs", "2",         "--out",
      sdir + "/healed.blif"};
  const RunResult client = runToCompletion(dog, "client", submit,
                                           sdir + "/client2.log", {},
                                           ctx.deadline);
  if (!client.finished || client.signaled || client.exitCode != 0) {
    vio->push_back("healed client failed (" + describe(client) + ")");
    dog.terminate("daemon", 2.0);
    return;
  }
  if (slurp(sdir + "/healed.blif") != ctx.refOut)
    vio->push_back("healed netlist diverged from the fault-free reference");

  // Every drained job in the state tree ran the same case: each committed
  // verdicts record must match the reference bit for bit.
  if (DIR* d = ::opendir((state + "/jobs").c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      const std::string verdicts =
          verdictsFrom(state + "/jobs/" + name + "/journal");
      if (!verdicts.empty() && verdicts != ctx.refVerdicts)
        vio->push_back("job " + name +
                       " verdicts diverged from the fault-free reference");
    }
    ::closedir(d);
  }
  dog.terminate("daemon", 2.0);
  dog.reap();

  std::vector<std::string> leaks;
  findStaging(state, &leaks);
  for (const std::string& leak : leaks)
    vio->push_back("leaked staging file: " + leak);
}

void runBatchSchedule(const Context& ctx, PoolWatchdog& dog,
                      const std::string& sdir, const std::string& planPath,
                      std::vector<std::string>* vio) {
  const std::string state = sdir + "/state";
  const std::string manifest = sdir + "/manifest.json";
  spill(manifest, "{\"cases\": [{\"name\": \"c1\", \"impl\": \"" + ctx.impl +
                      "\", \"spec\": \"" + ctx.spec +
                      "\", \"seed\": 1, \"jobs\": 2}]}\n");

  const RunResult faulted = runToCompletion(
      dog, "faulted",
      {ctx.cli, "--batch", manifest, "--batch-state", state},
      sdir + "/faulted.log", {"SYSECO_FAULT_PLAN=" + planPath}, ctx.deadline);
  if (!faulted.finished || faulted.signaled ||
      !allowedFaultedExit(faulted.exitCode))
    vio->push_back("faulted sweep: unstructured outcome (" +
                   describe(faulted) + ")");
  vlog("batch faulted sweep: " + describe(faulted));

  const RunResult healed = runToCompletion(
      dog, "heal", {ctx.cli, "--batch", manifest, "--resume", state},
      sdir + "/heal.log", {}, ctx.deadline);
  if (!healed.finished || healed.signaled || healed.exitCode != 0) {
    vio->push_back("healed sweep failed (" + describe(healed) + ")");
    return;
  }
  checkHealedArtifacts(ctx, state + "/jobs/c1/journal",
                       state + "/jobs/c1/out.blif", vio);

  std::vector<std::string> leaks;
  findStaging(state, &leaks);
  for (const std::string& leak : leaks)
    vio->push_back("leaked staging file: " + leak);
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --cli BIN --impl FILE --spec FILE --out-dir DIR\n"
               "          [--schedules N] [--seed-base S] [--plan-len K]\n"
               "          [--modes jobs,isolate,fleet,serve,batch]\n"
               "          [--keep] [--verbose]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  std::size_t schedules = 20;
  std::uint64_t seedBase = 1;
  std::size_t planLen = 4;
  bool keep = false;
  std::vector<std::string> modes = {"jobs", "isolate", "fleet", "serve",
                                    "batch"};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--cli") ctx.cli = value();
    else if (arg == "--impl") ctx.impl = value();
    else if (arg == "--spec") ctx.spec = value();
    else if (arg == "--out-dir") ctx.outDir = value();
    else if (arg == "--schedules") schedules = std::stoull(value());
    else if (arg == "--seed-base") seedBase = std::stoull(value());
    else if (arg == "--plan-len") planLen = std::stoull(value());
    else if (arg == "--keep") keep = true;
    else if (arg == "--verbose") gVerbose = true;
    else if (arg == "--modes") {
      modes.clear();
      std::istringstream ms(value());
      std::string m;
      while (std::getline(ms, m, ','))
        if (!m.empty()) modes.push_back(m);
    } else usage(argv[0]);
  }
  if (ctx.cli.empty() || ctx.impl.empty() || ctx.spec.empty() ||
      ctx.outDir.empty() || modes.empty())
    usage(argv[0]);
  ::signal(SIGPIPE, SIG_IGN);
  if (!mkdirs(ctx.outDir)) {
    std::fprintf(stderr, "chaos-soak: cannot create %s\n", ctx.outDir.c_str());
    return 2;
  }

  PoolWatchdog::Options dogOpt;
  dogOpt.poolSize = 8;
  PoolWatchdog dog(dogOpt);

  // Fault-free reference: one local run defines the verdict record and
  // rectified netlist every healed schedule must reproduce byte-for-byte.
  const std::string refDir = ctx.outDir + "/ref";
  mkdirs(refDir);
  std::vector<std::string> refArgs = engineArgs(ctx);
  append(refArgs, {"--journal", refDir + "/j", "--out", refDir + "/out.blif"});
  const RunResult ref = runToCompletion(dog, "ref", refArgs,
                                        refDir + "/ref.log", {}, ctx.deadline);
  if (!ref.finished || ref.signaled || ref.exitCode != 0) {
    std::fprintf(stderr, "chaos-soak: reference run failed (%s)\n",
                 describe(ref).c_str());
    return 2;
  }
  ctx.refVerdicts = verdictsFrom(refDir + "/j");
  ctx.refOut = slurp(refDir + "/out.blif");
  if (ctx.refVerdicts.empty() || ctx.refOut.empty()) {
    std::fprintf(stderr, "chaos-soak: reference run left no verdicts/out\n");
    return 2;
  }

  std::size_t violations = 0;
  for (std::size_t i = 0; i < schedules; ++i) {
    const std::uint64_t seed = seedBase + i;
    const std::string mode = modes[i % modes.size()];
    const std::string sdir =
        ctx.outDir + "/s" + std::to_string(seed) + "-" + mode;
    rmTree(sdir);
    mkdirs(sdir);

    const std::vector<syseco::fault::FaultSite> sites = sitesForMode(mode);
    const syseco::fault::FaultPlan plan =
        syseco::fault::generateChaosPlan(seed, planLen, &sites);
    const std::string planPath = sdir + "/plan";
    spill(planPath, "# chaos schedule seed " + std::to_string(seed) +
                        " mode " + mode + "\n" +
                        syseco::fault::serializeFaultPlan(plan));

    std::vector<std::string> vio;
    if (mode == "serve") runServeSchedule(ctx, dog, sdir, planPath, &vio);
    else if (mode == "batch") runBatchSchedule(ctx, dog, sdir, planPath, &vio);
    else runEngineSchedule(ctx, dog, mode, sdir, planPath, &vio);

    if (vio.empty()) {
      std::printf("schedule seed=%llu mode=%s: OK\n",
                  static_cast<unsigned long long>(seed), mode.c_str());
      if (!keep) rmTree(sdir);
    } else {
      ++violations;
      std::string report;
      for (const std::string& v : vio) report += v + "\n";
      spill(sdir + "/VIOLATION.txt", report);
      std::printf("schedule seed=%llu mode=%s: VIOLATION (repro kept in %s)\n",
                  static_cast<unsigned long long>(seed), mode.c_str(),
                  sdir.c_str());
      std::fputs(report.c_str(), stdout);
    }
    std::fflush(stdout);
  }

  std::printf("chaos-soak: %zu schedule(s), %zu violation(s)\n", schedules,
              violations);
  return violations == 0 ? 0 : 1;
}
