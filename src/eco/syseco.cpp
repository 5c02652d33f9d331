#include "eco/syseco.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bdd/bdd.hpp"
#include "cnf/encode.hpp"
#include "eco/fleet.hpp"
#include "eco/isolate.hpp"
#include "eco/matching.hpp"
#include "eco/sampling.hpp"
#include "netlist/analysis.hpp"
#include "util/budget.hpp"
#include "util/build_info.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/ipc.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/status.hpp"
#include "util/subprocess.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "verify/repro.hpp"

namespace syseco {

namespace {

/// Makes the allocator hand memory back before the oracle's fan-out and
/// while it runs. This is the one place the engine touches allocator
/// settings, and only a process that certifies on more than one thread
/// reaches it. glibc slides its mmap and trim thresholds upward each time
/// a large block is freed; with several certifying threads, every thread's
/// arena then keeps tens of MiB of freed BDD tables and simulator words,
/// and peak RSS grows with the thread count rather than with the work. So
/// the first call pins both thresholds at glibc's own starting value
/// (128 KiB) for the rest of the process, which keeps large blocks
/// mmap-backed and lets arenas shrink, and every call returns what the
/// earlier phases left in the arenas.
void releaseMemoryForFanOut() {
#if defined(__GLIBC__)
  static std::once_flag pinned;
  std::call_once(pinned, [] {
    constexpr int kThreshold = 128 * 1024;
    mallopt(M_MMAP_THRESHOLD, kThreshold);
    mallopt(M_TRIM_THRESHOLD, kThreshold);
  });
  malloc_trim(0);
#endif
}

/// Candidate rectification point with an error-domain observability score.
/// Either a single sink pin of the failing output's cone (or the output
/// itself), or a *group* of sink pins sharing one driving net - rewiring
/// the group replaces that net inside the cone while protecting its other
/// sinks (the paper's Figure 1 "all but one sink" pattern generalized; the
/// group shares one free variable y_i, so m stays small).
struct PinCandidate {
  std::vector<Sink> sinks;
  NetId driver = kNullId;
  std::size_t score = 0;
  std::uint32_t driverLevel = 0;  ///< arrival of the current driver
  /// Error-sample observability mask of the point (which error samples the
  /// pin can flip); drives required-function synthesis.
  std::vector<std::uint64_t> obsMask;
  /// Observability over *all* genuine samples; samples outside it are
  /// don't-cares for this point's required function.
  std::vector<std::uint64_t> obsFullMask;

  bool isOutputPin() const {
    return sinks.size() == 1 && sinks[0].isOutput();
  }
};

/// Candidate rewiring net for one rectification point (paper §4.3).
struct NetCandidate {
  NetId net = kNullId;   ///< net in W, or in the spec when fromSpec
  bool fromSpec = false;
  std::uint32_t level = 0;
  std::uint32_t cloneCost = 0;   ///< approx. gates a spec clone would add
  std::ptrdiff_t rankScore = 0;  ///< balanced sample-agreement key
  Signature sig;                 ///< sampled function of the candidate
};

/// One concrete rewire operation R = p1/s1,...,pm/sm.
struct RewireChoice {
  std::vector<std::size_t> pick;  ///< candidate index per point
  double cost = 0.0;
  /// Tie-break: total arrival of the touched pins' drivers. Upstream
  /// rewires win ties - they perturb less and their patch logic is more
  /// reusable by later outputs.
  std::uint64_t tieLevel = 0;
};

std::uint64_t pinKey(const Sink& s) {
  return (static_cast<std::uint64_t>(s.gate) << 32) | s.port;
}

/// Per-word partial derivative of a gate output w.r.t. fanin `port`,
/// evaluated at simulated values (classic observability approximation).
std::uint64_t derivWord(GateType type, const std::vector<const Signature*>& in,
                        std::size_t port, std::size_t w) {
  switch (type) {
    case GateType::Const0:
    case GateType::Const1:
      return 0;
    case GateType::Buf:
    case GateType::Not:
    case GateType::Xor:
    case GateType::Xnor:
      return ~0ULL;
    case GateType::And:
    case GateType::Nand: {
      std::uint64_t d = ~0ULL;
      for (std::size_t i = 0; i < in.size(); ++i)
        if (i != port) d &= (*in[i])[w];
      return d;
    }
    case GateType::Or:
    case GateType::Nor: {
      std::uint64_t d = ~0ULL;
      for (std::size_t i = 0; i < in.size(); ++i)
        if (i != port) d &= ~(*in[i])[w];
      return d;
    }
    case GateType::Mux: {
      const std::uint64_t sel = (*in[0])[w];
      if (port == 0) return (*in[1])[w] ^ (*in[2])[w];
      if (port == 1) return ~sel;
      return sel;
    }
  }
  return 0;
}

// SupportTable and the other shared structural analyses moved to
// netlist/analysis.hpp (NetlistAnalysis): they are computed once per
// netlist snapshot and shared read-only across outputs and worker threads.

struct AttemptOutcome {
  bool applied = false;
  std::vector<InputPattern> counterexamples;        ///< SAT refutations
  std::vector<InputPattern> screenCounterexamples;  ///< sim-screen refutations
  /// Resource trip that cut this attempt short; the refinement loop stops
  /// iterating and degrades to the fallback when set.
  StatusCode limit = StatusCode::kOk;
};

/// Pre-simulated reference data for the cheap validation screen: the
/// current samples plus a block of random patterns, the spec's output
/// signatures, and the implementation's *base* values so each candidate
/// only re-simulates its affected region (incremental ECO simulation).
struct SimScreen {
  SampleSet patterns;               ///< samples + random screen patterns
  std::size_t sampleCount = 0;      ///< leading patterns that are samples
  std::vector<Signature> specOut;   ///< spec signature per *impl* output idx
  std::unique_ptr<Simulator> base;  ///< W values before any tentative rewire
  std::size_t baseNets = 0;         ///< nets covered by `base`
  std::vector<std::uint32_t> topoIndex;  ///< gate -> base topological rank
};

class Engine {
 public:
  Engine(const Netlist& impl, const Netlist& spec,
         const SysecoOptions& options, SysecoDiagnostics& diag)
      : spec_(spec),
        opt_(options),
        diag_(diag),
        rng_(options.seed),
        rootGuard_(ResourceGuard::Limits{options.deadlineSeconds,
                                         options.totalConflictBudget,
                                         options.totalBddNodeBudget}) {
    result_.rectified = impl;
  }

  EcoResult run() {
    Timer timer;
    const ResumePlan* plan = opt_.resumePlan;
    if (plan)
      trackerStore_.emplace(result_.rectified, plan->tracker);
    else
      trackerStore_.emplace(result_.rectified);
    tracker_ = &*trackerStore_;
    Netlist& w = working();
    // A restored snapshot crossed a serialization boundary; audit it before
    // the search trusts any of its structure.
    if (plan) auditBoundary("post-resume-restore");

    // Structural analyses of the (immutable) specification: computed once
    // and shared read-only by every output and every worker thread.
    ownedSpecAnalysis_ = std::make_unique<NetlistAnalysis>(spec_);
    specAnalysis_ = ownedSpecAnalysis_.get();

    std::vector<std::uint32_t> failing;
    if (plan) {
      // Resume: the journal already proved which outputs were failing and
      // in what order they were (and must keep being) processed - the
      // order was computed against the unpatched netlist, which no longer
      // exists. Outputs with an adopted report are skipped outright.
      result_.failingOutputsBefore = plan->failingOutputsBefore;
      // What the interrupted run already spent counts against this run's
      // budgets: the root guard resumes exactly where the checkpoint left it.
      rootGuard_.chargeConflicts(plan->conflictsUsed);
      rootGuard_.chargeBddNodes(plan->bddNodesUsed);
      diag_.outputs = plan->restored;
      std::unordered_set<std::uint32_t> done;
      for (const OutputReport& r : plan->restored) done.insert(r.output);
      for (std::uint32_t o : plan->order) {
        if (done.count(o)) continue;
        failing.push_back(o);
        failingSet_.insert(o);
      }
      plannedOutputs_ = plan->order.size();
      ownedBaseAnalysis_ = std::make_unique<NetlistAnalysis>(plan->base);
      baseAnalysis_ = ownedBaseAnalysis_.get();
    } else {
      // Failing-output detection runs under the governor: outputs it cannot
      // confirm healthy in time are treated as failing, so they end up
      // provably correct via the fallback instead of silently unchecked.
      std::vector<std::uint32_t> unresolved;
      failing =
          findFailingOutputs(w, spec_, rng_, -1, &rootGuard_, &unresolved);
      result_.failingOutputsBefore = failing.size();
      failing.insert(failing.end(), unresolved.begin(), unresolved.end());
      failingSet_.insert(failing.begin(), failing.end());

      // Shared structural analyses of the still-unpatched netlist. Also
      // backs the plan ordering below (the cone lists are precomputed).
      ownedBaseAnalysis_ = std::make_unique<NetlistAnalysis>(w);
      baseAnalysis_ = ownedBaseAnalysis_.get();

      // Increasing logical complexity: smallest cones first (§5.2).
      std::sort(failing.begin(), failing.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return baseAnalysis_->outputConeSize(a) <
                         baseAnalysis_->outputConeSize(b);
                });
      plannedOutputs_ = failing.size();
      if (opt_.planHook) opt_.planHook(failing, result_.failingOutputsBefore);
    }

    const bool interrupted = runSupervised(failing, plan);
    diag_.interrupted = interrupted;

    if (!interrupted) {
      Timer phase;
      // Sweeping is optional polish; an exhausted governor skips it and
      // keeps the (larger but correct) patch.
      if (opt_.enableSweeping && !rootGuard_.exhausted()) sweepPatch();
      diag_.secondsSweep += phase.seconds();
      if (opt_.audit == AuditLevel::kParanoid) auditBoundary("post-sweep");
    }

    diag_.runLimit = rootGuard_.trippedCode();
    diag_.conflictsUsed = rootGuard_.conflictsUsed();
    diag_.bddNodesUsed = rootGuard_.bddNodesUsed();

    if (!interrupted) {
      result_.stats = tracker().finalize();
      if (opt_.audit == AuditLevel::kParanoid) auditBoundary("pre-verify");
      // Final verification is the soundness gate: it always runs unbounded,
      // whatever the governor says - a degraded run still proves its patch.
      Timer verifyPhase;
      certifyRun();
      const double verifyWall = verifyPhase.seconds();
      diag_.secondsVerify += verifyWall;
      diag_.secondsVerifyCpu += verifyWall;
    }
    result_.seconds = timer.seconds();
    return std::move(result_);
  }

 private:
  Netlist& working() { return result_.rectified; }
  PatchTracker& tracker() { return *tracker_; }

  /// Post-commit bookkeeping: audits the phase boundary, then hands the
  /// checkpoint hook the report just pushed.
  /// Returns false when the hook interrupted the run.
  bool checkpointCommit(const char* auditPhase) {
    auditBoundary(auditPhase);
    if (!opt_.checkpointHook) return true;
    const RunCheckpoint cp{
        diag_.outputs.back(),
        diag_.outputs,
        working(),
        tracker(),
        diag_.outputs.size(),
        plannedOutputs_,
        rootGuard_.conflictsUsed(),
        rootGuard_.bddNodesUsed()};
    return opt_.checkpointHook(cp);
  }

  // --- The plan-order supervisor: one commit loop, three executors --------

  /// Everything a per-output task is a pure function of, minus the output.
  struct TaskContext {
    const Netlist& base;
    const SysecoOptions& opt;
    const std::vector<std::uint32_t>& protect;
  };

  /// What an executor reports about one task: the worker's patch, or why
  /// the attempt failed.
  struct TaskOutcome {
    std::size_t slot = 0;
    std::optional<WorkerPatch> patch;  ///< set on success
    WorkerExitCause cause = WorkerExitCause::kNone;
    std::string reason;
    std::string worker;  ///< who ran it (fleet peer or "local")
  };

  /// A transport for per-output tasks: it launches, waits and cancels. The
  /// supervisor owns everything else - the commit window, retry, backoff,
  /// quarantine and the plan-order commit - so every transport shares one
  /// commit discipline. Outcomes are reported synchronously, in the order
  /// the executor observes them.
  class TaskExecutor {
   public:
    using Report = std::function<void(TaskOutcome)>;
    TaskExecutor() = default;
    TaskExecutor(const TaskExecutor&) = delete;
    TaskExecutor& operator=(const TaskExecutor&) = delete;
    virtual ~TaskExecutor() = default;
    /// Plan positions past the next commit that may be in flight.
    virtual std::size_t window() const = 0;
    /// True when one more task can start now.
    virtual bool hasCapacity() const = 0;
    /// Starts the task in `slot`. True when it is now running; false when
    /// it is not (a failed attempt has then been reported, or the launch
    /// cost no attempt and the slot stays pending).
    virtual bool launch(std::size_t slot, std::uint32_t output,
                        int attempt) = 0;
    /// Waits for progress and reports what finished. `focus` is the slot
    /// due next for commit; when it is not running, the executor may idle
    /// up to `idleSeconds` (its retry backoff).
    virtual void wait(std::size_t focus, double idleSeconds) = 0;
    /// Gives up on the task in `slot`: its outcome, if one still comes, is
    /// ignored. True when the task had not started and now never will.
    /// The default lets it finish (a fleet agent then rejoins the pool
    /// exactly as after any result).
    virtual bool abandon(std::size_t /*slot*/) { return false; }
    /// Non-empty (the reason) once the transport can take no more work.
    virtual std::string lost() const { return {}; }
    /// Stops every running task; their results are abandoned.
    virtual void cancelAll() = 0;
  };

  /// In-process threads: the whole window is queued, in plan order, on the
  /// FIFO pool and the supervisor blocks on the task due next for commit.
  /// With zero threads every task runs inline at launch with a window of
  /// 1 - the jobs = 1 run and the degraded fleet.
  class ThreadExecutor final : public TaskExecutor {
   public:
    ThreadExecutor(const Engine& eng, const TaskContext& ctx,
                   std::size_t slots, std::size_t threads, Report report)
        : eng_(eng),
          ctx_(ctx),
          report_(std::move(report)),
          window_(threads > 0 ? std::max<std::size_t>(2 * threads, 4) : 1),
          results_(slots),
          futures_(slots),
          starts_(slots),
          pool_(threads) {}
    ~ThreadExecutor() override { cancelAll(); }

    std::size_t window() const override { return window_; }
    bool hasCapacity() const override { return true; }

    bool launch(std::size_t slot, std::uint32_t output, int) override {
      std::optional<Result<WorkerPatch>>* out = &results_[slot];
      std::atomic<Start>* start = &starts_[slot];
      start->store(Start::kQueued);
      const ResourceGuard::Limits limits = eng_.taskLimits();
      futures_[slot] = pool_.submit([this, out, start, output, limits] {
        Start queued = Start::kQueued;
        if (!start->compare_exchange_strong(queued, Start::kStarted)) return;
        out->emplace(computeTask(ctx_.base, eng_.spec_, ctx_.opt, limits,
                                 output, ctx_.protect, eng_.baseAnalysis_,
                                 eng_.specAnalysis_));
      });
      return true;
    }

    /// A still-queued task is skipped when its turn comes; a running one
    /// finishes into a slot nobody reads.
    bool abandon(std::size_t slot) override {
      Start queued = Start::kQueued;
      return starts_[slot].compare_exchange_strong(queued, Start::kAbandoned);
    }

    void wait(std::size_t focus, double idleSeconds) override {
      if (!futures_[focus].valid()) {
        std::this_thread::sleep_for(std::chrono::duration<double>(idleSeconds));
        return;
      }
      try {
        futures_[focus].get();
      } catch (...) {
        // computeTask contains every std::exception; only a foreign
        // exception type gets this far.
        results_[focus].emplace(
            Status::internal("non-standard exception escaped the worker"));
      }
      Result<WorkerPatch> r = std::move(*results_[focus]);
      results_[focus].reset();
      TaskOutcome ev;
      ev.slot = focus;
      ev.worker = "local";
      if (r.isOk()) {
        ev.patch.emplace(r.take());
      } else {
        ev.cause = workerExitCauseOf(r.status());
        ev.reason = r.status().message();
      }
      report_(std::move(ev));
    }

    void cancelAll() override {
      for (std::future<void>& f : futures_)
        if (f.valid()) f.wait();
    }

   private:
    enum class Start : std::uint8_t { kQueued, kStarted, kAbandoned };

    const Engine& eng_;
    const TaskContext ctx_;
    const Report report_;
    const std::size_t window_;
    std::vector<std::optional<Result<WorkerPatch>>> results_;
    std::vector<std::future<void>> futures_;
    std::vector<std::atomic<Start>> starts_;
    ThreadPool pool_;  ///< last: joins before the slots its tasks write
  };

  /// Forked, rlimit-sandboxed worker subprocesses (--isolate): at most
  /// `jobs` children at once, each inheriting the base snapshot over COW
  /// fork, its resource slice included. Exits are classified into the
  /// WorkerExitCause taxonomy and a worker past its wall deadline is
  /// killed. The parent stays single-threaded by design - the children
  /// provide the parallelism, and a thread-free parent keeps fork safe.
  class ForkedExecutor final : public TaskExecutor {
   public:
    ForkedExecutor(const Engine& eng, const TaskContext& ctx,
                   std::size_t slots, Report report)
        : eng_(eng),
          opt_(eng.opt_),
          ctx_(ctx),
          report_(std::move(report)),
          kids_(slots) {}
    ~ForkedExecutor() override { cancelAll(); }

    std::size_t window() const override {
      return std::max<std::size_t>(2 * opt_.jobs, 4);
    }
    bool hasCapacity() const override { return running_ < opt_.jobs; }

    bool launch(std::size_t slot, std::uint32_t output, int attempt) override {
      subprocess::Limits limits;
      limits.memoryBytes = opt_.isolateMemoryBytes;
      limits.cpuSeconds = opt_.isolateCpuSeconds;
      const ResourceGuard::Limits slice = eng_.taskLimits();
      Result<subprocess::Child> forked = subprocess::forkWorker(
          limits, [this, &slice](int requestFd, int responseFd) {
            return childBody(requestFd, responseFd, slice);
          });
      if (!forked.isOk()) {
        fail(slot, WorkerExitCause::kCrash, forked.status().message());
        return false;
      }
      Kid& kid = kids_[slot];
      kid.proc = forked.value();
      kid.buf.clear();
      kid.startedAt = clock_.seconds();
      ++running_;
      const IsolateTaskRequest req{output, attempt};
      // A write failure means the child already died; the reap probe in
      // wait() classifies it.
      (void)subprocess::writeAll(
          kid.proc.requestFd,
          ipc::encodeFrame(ipc::kTypeTaskRequest, encodeTaskRequest(req)));
      subprocess::closeRequestFd(kid.proc);  // EOF: the request is complete
      return true;
    }

    void wait(std::size_t, double) override {
      // A worker event, or a backoff / wall-deadline tick.
      std::vector<int> fds;
      for (const Kid& kid : kids_)
        if (kid.proc.valid() && kid.proc.responseFd >= 0)
          fds.push_back(kid.proc.responseFd);
      subprocess::pollReadable(fds, 20);

      // Drain pipes, reap exits, enforce wall deadlines.
      for (std::size_t k = 0; k < kids_.size(); ++k) {
        Kid& kid = kids_[k];
        if (!kid.proc.valid()) continue;
        (void)subprocess::drainAvailable(kid.proc.responseFd, &kid.buf);
        if (const auto wo = subprocess::tryReap(kid.proc.pid)) {
          settleReaped(k, *wo);
          continue;
        }
        if (opt_.isolateWallSeconds > 0.0 &&
            clock_.seconds() - kid.startedAt > opt_.isolateWallSeconds) {
          const subprocess::WaitOutcome wo =
              subprocess::terminateChild(kid.proc.pid, 0.5);
          release(kid);
          fail(k, WorkerExitCause::kWallTimeout,
               wo.killEscalated ? "SIGTERM ignored; SIGKILL delivered" : "");
        }
      }
    }

    bool abandon(std::size_t slot) override {
      Kid& kid = kids_[slot];
      if (kid.proc.valid()) {
        subprocess::terminateChild(kid.proc.pid, 0.2);
        release(kid);
      }
      return false;
    }

    void cancelAll() override {
      for (std::size_t k = 0; k < kids_.size(); ++k) abandon(k);
    }

   private:
    struct Kid {
      subprocess::Child proc;
      std::string buf;         ///< response bytes accumulated so far
      double startedAt = 0.0;  ///< executor clock at launch
    };

    void release(Kid& kid) {
      subprocess::closeChildFds(kid.proc);
      kid.proc = subprocess::Child{};
      --running_;
    }

    void fail(std::size_t slot, WorkerExitCause cause,
              const std::string& reason) {
      TaskOutcome ev;
      ev.slot = slot;
      ev.cause = cause;
      ev.reason = reason;
      report_(std::move(ev));
    }

    void settleReaped(std::size_t k, const subprocess::WaitOutcome& wo) {
      Kid& kid = kids_[k];
      // The pipe can still hold the tail of a response after the child is
      // reaped; drain to EOF before judging the bytes.
      while (true) {
        const std::size_t before = kid.buf.size();
        Result<bool> more =
            subprocess::drainAvailable(kid.proc.responseFd, &kid.buf);
        if (!more.isOk() || !more.value() || kid.buf.size() == before) break;
      }
      release(kid);
      if (wo.kind == subprocess::WaitKind::kSignaled) {
        fail(k,
             wo.signal == SIGXCPU ? WorkerExitCause::kCpuTimeout
                                  : WorkerExitCause::kCrash,
             "signal " + std::to_string(wo.signal));
        return;
      }
      switch (wo.exitCode) {
        case subprocess::kChildExitOk:
          break;
        case subprocess::kChildExitOom:
          fail(k, WorkerExitCause::kOom, "");
          return;
        case subprocess::kChildExitFaultInjected:
          fail(k, WorkerExitCause::kFaultInjected, "");
          return;
        case subprocess::kChildExitBadRequest:
          fail(k, WorkerExitCause::kGarbageIpc,
               "worker rejected the task request");
          return;
        default:
          fail(k, WorkerExitCause::kCrash,
               "exit code " + std::to_string(wo.exitCode));
          return;
      }
      Result<ipc::Frame> frame = ipc::decodeFrame(kid.buf);
      if (!frame.isOk() || frame.value().type != ipc::kTypeWorkerResult) {
        fail(k, WorkerExitCause::kGarbageIpc,
             frame.isOk() ? "unexpected frame type"
                          : frame.status().message());
        return;
      }
      Result<WorkerPatch> decoded =
          decodeWorkerPatch(frame.value().payload, ctx_.base);
      if (!decoded.isOk()) {
        fail(k, WorkerExitCause::kGarbageIpc, decoded.status().message());
        return;
      }
      TaskOutcome ev;
      ev.slot = k;
      ev.patch.emplace(decoded.take());
      report_(std::move(ev));
    }

    /// Runs inside the forked worker: decode the request, honor
    /// worker-side fault injection, compute the pure task against the
    /// (COW-inherited) base snapshot and ship the WorkerPatch back. The
    /// return value becomes the child's exit code via forkWorker.
    int childBody(int requestFd, int responseFd,
                  const ResourceGuard::Limits& slice) const {
      Result<std::string> raw = subprocess::readAll(requestFd);
      if (!raw.isOk()) return subprocess::kChildExitBadRequest;
      Result<ipc::Frame> frame = ipc::decodeFrame(raw.value());
      if (!frame.isOk() || frame.value().type != ipc::kTypeTaskRequest)
        return subprocess::kChildExitBadRequest;
      Result<IsolateTaskRequest> req = decodeTaskRequest(frame.value().payload);
      if (!req.isOk() || req.value().output >= ctx_.base.numOutputs())
        return subprocess::kChildExitBadRequest;
      const std::uint32_t o = req.value().output;

      // Worker-side fault sites: "isolate.worker" hits every task; the
      // per-output variant pins the blast radius to one output in tests
      // and CI. (kCrash fires centrally inside fault::fire - _Exit(137).)
      const std::string persite = "isolate.worker.o" + std::to_string(o);
      const char* sites[2] = {"isolate.worker", persite.c_str()};
      for (const char* site : sites) {
        const auto kind = fault::fire(site);
        if (!kind) continue;
        switch (*kind) {
          case fault::Kind::kOom:
            // Escapes the whole body; forkWorker maps it to kChildExitOom.
            throw std::bad_alloc{};
          case fault::Kind::kHang:
            // A worker stuck in a loop that shrugs off SIGTERM: the wall
            // deadline must escalate to SIGKILL.
            std::signal(SIGTERM, SIG_IGN);
            for (;;) subprocess::pollReadable({}, 1000);
          case fault::Kind::kGarbageIpc: {
            std::string garbled = ipc::encodeFrame(ipc::kTypeWorkerResult,
                                                   "{\"produced\":true}");
            garbled[garbled.size() / 2] =
                static_cast<char>(garbled[garbled.size() / 2] ^ 0x40);
            (void)subprocess::writeAll(responseFd, garbled);
            return subprocess::kChildExitOk;
          }
          default:
            // The engine-internal kinds (budget/deadline/bdd/alloc) have
            // no meaning at this site; report a cleanly contained
            // injection.
            return subprocess::kChildExitFaultInjected;
        }
      }

      Result<WorkerPatch> patch =
          computeTask(ctx_.base, eng_.spec_, ctx_.opt, slice, o, ctx_.protect,
                      eng_.baseAnalysis_, eng_.specAnalysis_);
      if (!patch.isOk())
        return workerExitCauseOf(patch.status()) == WorkerExitCause::kOom
                   ? subprocess::kChildExitOom
                   : subprocess::kChildExitUncaught;
      const std::string resp = ipc::encodeFrame(
          ipc::kTypeWorkerResult, encodeWorkerPatch(patch.value()));
      if (!subprocess::writeAll(responseFd, resp).isOk())
        return subprocess::kChildExitUncaught;
      return subprocess::kChildExitOk;
    }

    const Engine& eng_;
    const SysecoOptions& opt_;
    const TaskContext ctx_;
    const Report report_;
    std::vector<Kid> kids_;  ///< per slot; a valid proc while running
    std::size_t running_ = 0;
    Timer clock_;
  };

  /// The TCP fleet (--workers): a thin adapter from plan slots to
  /// AgentPool assignments (eco/fleet.hpp). The pool owns the agent
  /// protocol - lazy connects, epochs, the one-time crc32-addressed case
  /// upload, leases, stale-epoch discards and peer health; the executor
  /// decodes results into WorkerPatches and journals the pool's events.
  /// It is lost once fewer than fleetMinWorkers peers remain usable.
  class FleetExecutor final : public TaskExecutor {
   public:
    FleetExecutor(const Engine& eng, const TaskContext& ctx, std::size_t slots,
                  Report report)
        : eng_(eng),
          base_(ctx.base),
          report_(std::move(report)),
          case_(std::make_shared<const AgentPool::Case>(encodeFleetCase(
              ctx.base, eng.spec_, ctx.opt, ctx.protect))),
          outputs_(slots),
          pool_(AgentPool::Options{eng.opt_.workers, eng.opt_.fleetLeaseSeconds,
                                   eng.opt_.fleetConnectTimeoutMs,
                                   eng.opt_.fleetMinWorkers}) {}

    std::size_t window() const override {
      return std::max<std::size_t>(2 * pool_.size(), 4);
    }

    bool hasCapacity() const override { return pool_.hasIdlePeer(); }

    /// A refused connect or send costs the task no attempt: the pool
    /// strikes the peer and the slot stays pending.
    bool launch(std::size_t k, std::uint32_t output, int attempt) override {
      outputs_[k] = output;
      const ResourceGuard::Limits limits = eng_.taskLimits();
      const auto encode = [&](std::uint64_t epoch) {
        FleetTaskRequest req;
        req.output = output;
        req.attempt = attempt;
        req.epoch = epoch;
        req.leaseSeconds = eng_.opt_.fleetLeaseSeconds;
        req.caseCrc = case_->crc;
        req.limits = limits;
        return encodeFleetTaskRequest(req);
      };
      return pool_
          .assign(std::to_string(k), ipc::kTypeFleetTask, encode, case_)
          .isOk();
    }

    void wait(std::size_t, double) override {
      // A fleet event, or a backoff / lease tick.
      subprocess::pollReadable(pool_.pollFds(), 20);
      for (AgentPool::Event& ev : pool_.poll()) handle(ev);
    }

    std::string lost() const override { return pool_.degraded(); }

    /// Abandons the agents (no attempt is charged: the supervisor is
    /// leaving them, not the other way around).
    void cancelAll() override { pool_.closeAll(); }

   private:
    /// Assignments are labelled with their slot.
    static std::size_t slotOf(const AgentPool::Event& ev) {
      return std::stoul(ev.name);
    }

    void handle(AgentPool::Event& ev) {
      switch (ev.kind) {
        case AgentPool::EventKind::kResult: {
          const std::size_t k = slotOf(ev);
          Result<WorkerPatch> decoded = decodeWorkerPatch(ev.payload, base_);
          if (!decoded.isOk()) {
            const std::string why = decoded.status().message();
            pool_.reject(ev.peer,
                         workerExitCauseName(WorkerExitCause::kGarbageIpc),
                         "undecodable result: " + why);
            fail(k, WorkerExitCause::kGarbageIpc, ev.worker, why);
            return;
          }
          TaskOutcome out;
          out.slot = k;
          out.patch.emplace(decoded.take());
          out.worker = ev.worker;
          report_(std::move(out));
          return;
        }
        case AgentPool::EventKind::kFailure:
          fail(slotOf(ev),
               workerExitCauseFromName(ev.cause).value_or(
                   WorkerExitCause::kCrash),
               ev.worker, ev.detail);
          return;
        case AgentPool::EventKind::kStale:
          eng_.fleetEvent(ev.cause, ev.worker, outputs_[slotOf(ev)], 0,
                          ev.detail);
          return;
        case AgentPool::EventKind::kStrike:
          eng_.fleetEvent(ev.cause, ev.worker, 0, 0, ev.detail);
          return;
        case AgentPool::EventKind::kDead:
          eng_.fleetEvent("worker-dead", ev.worker, 0, 0, ev.detail);
          std::fprintf(stderr, "[syseco] fleet worker %s marked dead: %s\n",
                       ev.worker.c_str(), ev.detail.c_str());
          return;
        case AgentPool::EventKind::kUpload:
          eng_.fleetEvent("case-upload", ev.worker, 0, 0, ev.detail);
          return;
      }
    }

    void fail(std::size_t k, WorkerExitCause cause, const std::string& worker,
              const std::string& reason) {
      TaskOutcome ev;
      ev.slot = k;
      ev.cause = cause;
      ev.reason = reason;
      ev.worker = worker;
      report_(std::move(ev));
    }

    const Engine& eng_;
    const Netlist& base_;
    const Report report_;
    /// The one-time case upload: everything a task is a pure function of,
    /// minus the output index.
    const std::shared_ptr<const AgentPool::Case> case_;
    std::vector<std::uint32_t> outputs_;  ///< per slot, set at launch
    AgentPool pool_;
  };

  /// One planned output's slice of the run's resources, fixed up front from
  /// the options and the plan: 1/n of each run-wide budget (plus one) and
  /// 1/n of the deadline, for n planned outputs. The wall clock counts from
  /// when the task starts, capped at the run's time left now. On unlimited
  /// runs every limit is zero.
  ResourceGuard::Limits taskLimits() const {
    const auto n = static_cast<std::int64_t>(
        std::max<std::size_t>(plannedOutputs_, 1));
    ResourceGuard::Limits l;
    if (opt_.totalConflictBudget > 0)
      l.conflictBudget = opt_.totalConflictBudget / n + 1;
    if (opt_.totalBddNodeBudget > 0)
      l.bddNodeBudget = opt_.totalBddNodeBudget / n + 1;
    // A zero deadline means none: an expired run still hands out a positive
    // sliver, which trips at the task's first checkpoint.
    if (opt_.deadlineSeconds > 0.0)
      l.deadlineSeconds =
          std::min(opt_.deadlineSeconds / static_cast<double>(n),
                   std::max(rootGuard_.remainingSeconds(), 1e-9));
    return l;
  }

  /// The plan-order supervisor: the engine's one cascade. Each planned
  /// output is searched by an independent pure task against the unpatched
  /// base snapshot (in-process threads, forked --isolate workers or the TCP
  /// fleet), and results commit strictly in plan order through
  /// commitWorker. The per-output search is a pure function of (base
  /// netlist, spec, options, output, resource slice) - the RNG is reseeded
  /// per output and the slice is fixed from the options and the plan - and
  /// every commit-time decision is a deterministic function of the
  /// canonical state and the root guard's ledger, so the patch, reports and
  /// journal are bit-identical for every jobs value and transport (a
  /// deadline is the one input that depends on timing). A failed attempt
  /// retries with deterministic capped backoff; an output that exhausts
  /// isolateMaxAttempts is quarantined to the cone-clone fallback. A fleet
  /// that drops below fleetMinWorkers degrades to the inline in-process
  /// executor - slower, never wrong, never aborted.
  ///
  /// Earlier commits often fix later outputs for free (global favoring).
  /// That is decided once per output, when it becomes the commit frontier
  /// - every earlier output has committed, so the canonical netlist it
  /// reads is final - and before its task is launched or waited on. A
  /// fixed output commits a no-op at once: its task never starts (jobs 1,
  /// and any still-pending slot) or is abandoned, and whatever the task
  /// did - failed attempts, quarantine - never reaches its report. Once the
  /// root guard has tripped, every output still to commit takes the
  /// cone-clone fallback at the frontier the same way, whatever its task
  /// found: the run's budgets are spent. Returns true when a checkpoint
  /// hook interrupted the run.
  bool runSupervised(const std::vector<std::uint32_t>& failing,
                     const ResumePlan* plan) {
    // Workers search from the unpatched base. When not resuming, w *is*
    // that base right now - but it mutates as commits land, so snapshot it.
    const Netlist base = plan ? plan->base : working();
    commitBaseGates_ = base.numGatesTotal();
    commitBaseNets_ = base.numNetsTotal();
    // Workers protect the *full* planned output set, not just the still-
    // pending remainder: an uninterrupted run's workers see every planned
    // output as failing, and a resumed run must reproduce those workers
    // bit-exactly even though some outputs are already committed.
    const TaskContext ctx{base, opt_, plan ? plan->order : failing};

    enum class SlotState : std::uint8_t { kPending, kRunning, kDone };
    struct Slot {
      SlotState st = SlotState::kPending;
      int attemptsFailed = 0;
      WorkerExitCause lastCause = WorkerExitCause::kNone;
      bool quarantined = false;
      double notBefore = 0.0;  ///< backoff: earliest relaunch time
      std::optional<WorkerPatch> patch;
    };
    std::vector<Slot> slots(failing.size());
    const bool fleet = !opt_.workers.empty();
    Timer clock;
    std::size_t nextCommit = 0;

    const TaskExecutor::Report report = [&](TaskOutcome ev) {
      // A slot behind the frontier was committed as already fixed; its
      // abandoned task's outcome means nothing.
      if (ev.slot < nextCommit) return;
      Slot& s = slots[ev.slot];
      const std::uint32_t o = failing[ev.slot];
      if (ev.patch) {
        s.patch = std::move(ev.patch);
        s.st = SlotState::kDone;
        return;
      }
      ++s.attemptsFailed;
      s.lastCause = ev.cause;
      if (fleet)
        fleetEvent(workerExitCauseName(ev.cause), ev.worker, o,
                   s.attemptsFailed, ev.reason);
      std::fprintf(stderr,
                   "[syseco] worker out=%u attempt %d/%d failed: %s%s%s%s\n",
                   o, s.attemptsFailed, opt_.isolateMaxAttempts,
                   workerExitCauseName(ev.cause),
                   ev.reason.empty() ? "" : " (", ev.reason.c_str(),
                   ev.reason.empty() ? "" : ")");
      if (s.attemptsFailed >= opt_.isolateMaxAttempts) {
        s.quarantined = true;
        s.st = SlotState::kDone;
        std::fprintf(stderr,
                     "[syseco] out=%u quarantined after %d attempts; "
                     "degrading to the cone-clone fallback\n",
                     o, s.attemptsFailed);
      } else {
        s.st = SlotState::kPending;
        s.notBefore = clock.seconds() + backoffSeconds(o, s.attemptsFailed);
      }
    };

    // The audit phase names the boundary the committed patch crossed.
    std::unique_ptr<TaskExecutor> exec;
    const char* auditPhase = "post-patch-commit";
    if (fleet) {
      exec = std::make_unique<FleetExecutor>(*this, ctx, slots.size(), report);
      auditPhase = "post-fleet-decode";
    } else if (opt_.isolate) {
      exec = std::make_unique<ForkedExecutor>(*this, ctx, slots.size(), report);
      auditPhase = "post-isolate-decode";
    } else {
      exec = std::make_unique<ThreadExecutor>(
          *this, ctx, slots.size(), opt_.jobs > 1 ? opt_.jobs : 0, report);
    }

    // Commit-time state of the output at the frontier, once decided.
    std::optional<FrontierCheck> frontier;
    bool interrupted = false;
    while (!interrupted) {
      // Commit phase: decide each output as it becomes the frontier, then
      // adopt finished tasks strictly in plan order.
      while (nextCommit < slots.size()) {
        Slot& s = slots[nextCommit];
        const std::uint32_t o = failing[nextCommit];
        if (!frontier) {
          frontier.emplace(opt_.seed, o, rootGuard_);
          frontier->fixed =
              !rootGuard_.exhausted() && frontierFixed(o, *frontier);
        }
        bool reported = false;
        if (frontier->fixed || rootGuard_.exhausted()) {
          if (s.st == SlotState::kPending ||
              (s.st == SlotState::kRunning && exec->abandon(nextCommit)))
            ++diag_.frontierSkippedTasks;
          else if (s.patch && s.patch->produced)
            diag_.secondsDiscardedSpeculation += workerPhaseSeconds(*s.patch);
          s.st = SlotState::kDone;
          reported = frontier->fixed
                         ? commitAlreadyFixed(o, *frontier)
                         : commitFallback(o, rootGuard_.trippedCode(), 0,
                                          WorkerExitCause::kNone, *frontier);
        } else if (s.st != SlotState::kDone) {
          break;
        } else if (s.quarantined) {
          reported = commitFallback(o, quarantineLimit(s.lastCause),
                                    s.attemptsFailed, s.lastCause, *frontier);
        } else if (s.patch->produced) {
          reported = commitWorker(o, *s.patch, *frontier);
          if (reported && s.attemptsFailed > 0) {
            // The commit path reproduces the clean report; the supervisor
            // grafts on what the retries cost.
            diag_.outputs.back().workerFailedAttempts = s.attemptsFailed;
            diag_.outputs.back().workerExitCause = s.lastCause;
          }
        }
        s.patch.reset();
        frontier.reset();
        ++nextCommit;
        if (reported && !checkpointCommit(auditPhase)) {
          interrupted = true;
          break;
        }
      }
      if (interrupted || nextCommit == slots.size()) break;

      const std::string lost = exec->lost();
      if (!lost.empty()) {
        fleetEvent("fleet-degraded", "", 0, 0,
                   lost + "; continuing in-process");
        std::fprintf(stderr,
                     "[syseco] fleet degraded below --fleet-min-workers; "
                     "continuing in-process\n");
        exec->cancelAll();
        for (Slot& s : slots)
          if (s.st == SlotState::kRunning) s.st = SlotState::kPending;
        exec = std::make_unique<ThreadExecutor>(*this, ctx, slots.size(), 0,
                                                report);
      }

      // Launch phase: start due pending tasks from the commit window.
      const double now = clock.seconds();
      const std::size_t horizon =
          std::min(slots.size(), nextCommit + exec->window());
      for (std::size_t k = nextCommit; k < horizon; ++k) {
        Slot& s = slots[k];
        if (s.st != SlotState::kPending || s.notBefore > now) continue;
        if (!exec->hasCapacity()) break;
        if (exec->launch(k, failing[k], s.attemptsFailed + 1))
          s.st = SlotState::kRunning;
      }

      const Slot& due = slots[nextCommit];
      const double backoffLeft =
          due.st == SlotState::kPending ? due.notBefore - clock.seconds() : 0.0;
      exec->wait(nextCommit, std::max(0.0, backoffLeft));
    }
    exec->cancelAll();
    return interrupted;
  }

  /// The commit-time state of the output at the commit frontier: the
  /// per-output commit RNG and the guard that every commit-time solve for
  /// it draws from and charges, whichever commit path it takes. The guard
  /// has no limits of its own; it charges, and trips with, the root guard.
  struct FrontierCheck {
    FrontierCheck(std::uint64_t runSeed, std::uint32_t o,
                  const ResourceGuard& root)
        : rng(runSeed ^
              (0xc2b2ae3d27d4eb4fULL * (static_cast<std::uint64_t>(o) + 1))),
          guard(ResourceGuard::Limits{}, &root) {}
    Rng rng;
    ResourceGuard guard;
    Timer timer;
    bool fixed = false;  ///< already fixed on the canonical netlist
  };

  /// True when earlier commits already fixed output `o` - global
  /// favoring, the same query as rectifyOutput's own already-fixed fast
  /// path. Only a dirty canonical netlist can have: on the untouched base
  /// every planned output is failing.
  bool frontierFixed(std::uint32_t o, FrontierCheck& check) {
    const std::uint32_t op = specOutput(o);
    if (op == kNullId || tracker().rewires().empty()) return false;
    Timer phase;
    PairEncoding pe(working(), spec_);
    pe.setResourceGuard(&check.guard);
    const bool fixed = pe.solveDiffSwept(o, op, opt_.validationBudget,
                                         check.rng) == Solver::Result::Unsat;
    diag_.secondsSampling += phase.seconds();
    return fixed;
  }

  /// Commits the no-op of an output found already fixed at the frontier.
  bool commitAlreadyFixed(std::uint32_t o, const FrontierCheck& check) {
    OutputReport report;
    report.output = o;
    report.name = working().outputName(o);
    report.conflictsUsed = check.guard.conflictsUsed();
    report.bddNodesUsed = check.guard.bddNodesUsed();
    report.seconds = check.timer.seconds();
    failingSet_.erase(o);
    pushCommittedReport(std::move(report));
    return true;
  }

  /// The search phase-seconds a worker spent on its result (what
  /// mergeWorkerDiag adds to the run totals when the result is adopted).
  static double workerPhaseSeconds(const WorkerPatch& patch) {
    const SysecoDiagnostics& f = patch.frag;
    return f.secondsSampling + f.secondsSymbolic + f.secondsScreening +
           f.secondsValidation + f.secondsFallback;
  }

  /// Applies one worker's speculative result to the canonical netlist. A
  /// patch that earlier commits invalidated, or that rewires onto newly
  /// created logic while earlier commits changed the netlist, is discarded
  /// and the output is redone: its search runs again against the canonical
  /// netlist, under a fresh slice of its own. (Already-fixed outputs never get here: they commit a
  /// no-op at the frontier.) All commit-time solving continues the
  /// frontier check's per-output commit RNG and root-parented guard, so the
  /// decision depends only on (seed, output, canonical netlist, root
  /// ledger) - never on scheduling or on which executor ran the worker.
  /// Returns true when a report was pushed.
  bool commitWorker(std::uint32_t o, const WorkerPatch& patch,
                    FrontierCheck& check) {
    const std::uint32_t op = specOutput(o);
    if (op == kNullId) return false;
    Netlist& w = working();
    const SysecoDiagnostics& frag = patch.frag;
    // Commits before this one may have changed the canonical netlist; if
    // none did, the worker searched the canonical netlist itself and its
    // result is adopted verbatim.
    const bool dirty = !tracker().rewires().empty();
    Rng& commitRng = check.rng;
    ResourceGuard& commitGuard = check.guard;

    // Discards the speculative patch and searches the output again in
    // process, against the canonical netlist, under a fresh slice charged
    // to the root guard; the commit-time checks are charged to its report.
    auto redo = [&] {
      diag_.secondsDiscardedSpeculation += workerPhaseSeconds(patch);
      ResourceGuard redoGuard(taskLimits(), &rootGuard_);
      const bool reported = rectifyOutput(o, redoGuard);
      if (reported) {
        OutputReport& rep = diag_.outputs.back();
        rep.conflictsUsed += commitGuard.conflictsUsed();
        rep.bddNodesUsed += commitGuard.bddNodesUsed();
      }
      return reported;
    };

    if (dirty) {
      // Patches that rewire onto newly-created logic (synthesized gates or
      // cone clones) lose cross-output reuse: searched against the
      // canonical netlist, a later output could absorb an earlier output's
      // patch logic - or its search leftovers - instead of instantiating a
      // private copy. Redo those against the canonical netlist.
      // Pure rewires onto pre-existing nets (the common case, and the
      // paper's central claim) transplant exactly and stay parallel.
      std::vector<std::pair<Sink, NetId>> finalBySink;
      for (const PatchTracker::RewireRecord& r : patch.rewires) {
        auto it = std::find_if(
            finalBySink.begin(), finalBySink.end(),
            [&](const auto& p) { return p.first == r.sink; });
        if (it != finalBySink.end())
          it->second = r.newNet;
        else
          finalBySink.emplace_back(r.sink, r.newNet);
      }
      for (const auto& [sink, newNet] : finalBySink)
        if (newNet >= commitBaseNets_) return redo();
    }

    // Replay the worker's patch onto the canonical netlist. Worker gate and
    // net ids above the shared base snapshot are pure offsets (addGate is
    // the only creator of gates and nets), so the remap is arithmetic; the
    // SYSECO_CHECK below pins that invariant.
    const std::size_t baseGates = commitBaseGates_;
    const std::size_t baseNets = commitBaseNets_;
    const std::size_t canonGates = w.numGatesTotal();
    const std::size_t canonNets = w.numNetsTotal();
    auto remapNet = [&](NetId n) {
      return n < baseNets ? n : static_cast<NetId>(n - baseNets + canonNets);
    };
    auto remapSink = [&](Sink s) {
      if (!s.isOutput() && s.gate >= baseGates)
        s.gate = static_cast<GateId>(s.gate - baseGates + canonGates);
      return s;
    };

    std::optional<Netlist> backup;
    std::optional<PatchTracker::State> preState;
    if (dirty) {
      backup.emplace(w);
      preState.emplace(tracker().state());
    }

    for (const WorkerPatch::NewGate& gate : patch.gates) {
      std::vector<NetId> fanins;
      fanins.reserve(gate.fanins.size());
      for (NetId f : gate.fanins) fanins.push_back(remapNet(f));
      const NetId out = w.addGate(gate.type, std::move(fanins));
      SYSECO_CHECK(out == remapNet(gate.out));
    }
    std::vector<Sink> replayedPins;
    replayedPins.reserve(patch.rewires.size());
    for (const PatchTracker::RewireRecord& r : patch.rewires) {
      const Sink sink = remapSink(r.sink);
      tracker().rewire(sink, remapNet(r.newNet));
      replayedPins.push_back(sink);
    }

    if (dirty) {
      // The worker proved its patch only against the unpatched base;
      // re-prove every output the replayed patch touches on the canonical
      // netlist before keeping it. A rewire that was acyclic on the base
      // can close a combinational loop through logic earlier commits
      // rewired; that is a conflict too, and must never reach the encoder.
      Timer phase;
      bool ok = w.isAcyclic();
      if (!ok) ++diag_.cyclicReplayRedos;
      if (ok) {
        PairEncoding pe(w, spec_);
        pe.setResourceGuard(&commitGuard);
        for (std::uint32_t ao : affectedOutputs(replayedPins, o)) {
          const std::uint32_t aop = specOutput(ao);
          if (aop == kNullId) continue;
          if (pe.solveDiffSwept(ao, aop, opt_.validationBudget, commitRng) !=
              Solver::Result::Unsat) {
            ok = false;
            break;
          }
        }
      }
      diag_.secondsValidation += phase.seconds();
      if (!ok) {
        // The speculative patch conflicts with earlier commits: roll the
        // canonical netlist back before the redo.
        w = std::move(*backup);
        trackerStore_.emplace(w, *preState);
        tracker_ = &*trackerStore_;
        return redo();
      }
    }

    // Adopt: merge the worker's account of its search into the run totals,
    // charge what it spent to the root guard and take its report, plus
    // whatever the commit-time checks cost.
    mergeWorkerDiag(frag);
    SYSECO_CHECK(!frag.outputs.empty());
    OutputReport report = frag.outputs.back();
    rootGuard_.chargeConflicts(report.conflictsUsed);
    rootGuard_.chargeBddNodes(report.bddNodesUsed);
    report.conflictsUsed += commitGuard.conflictsUsed();
    report.bddNodesUsed += commitGuard.bddNodesUsed();
    failingSet_.erase(o);
    pushCommittedReport(std::move(report));
    return true;
  }

  void pushCommittedReport(OutputReport report) {
    if (opt_.verbose)
      std::fprintf(stderr, "[syseco] out=%u -> %s (commit, %.2fs)\n",
                   report.output, outputRectStatusName(report.status),
                   report.seconds);
    diag_.outputs.push_back(std::move(report));
  }

  /// Folds a worker fragment's search counters and phase timings into the
  /// run diagnostics. The outputs vector, runLimit and sweep counters are
  /// owned by the canonical engine and never merged.
  void mergeWorkerDiag(const SysecoDiagnostics& f) {
    diag_.outputsRectified += f.outputsRectified;
    diag_.outputsViaRewire += f.outputsViaRewire;
    diag_.outputsViaFallback += f.outputsViaFallback;
    diag_.candidatesValidated += f.candidatesValidated;
    diag_.candidatesRefuted += f.candidatesRefuted;
    diag_.candidatesScreenRejected += f.candidatesScreenRejected;
    diag_.refinementRounds += f.refinementRounds;
    diag_.secondsSampling += f.secondsSampling;
    diag_.secondsSymbolic += f.secondsSymbolic;
    diag_.secondsScreening += f.secondsScreening;
    diag_.secondsValidation += f.secondsValidation;
    diag_.secondsFallback += f.secondsFallback;
  }

  // --- Invariant audits + tri-modal certification (verify/) ---------------

  /// Audits the working netlist at a phase boundary. A clean audit is
  /// recorded in the diagnostics; a failed one aborts the run with a
  /// structured kInternal naming every violated invariant - the corruption
  /// is diagnosed where it first became observable instead of surfacing as
  /// downstream nonsense.
  void auditBoundary(const char* phase) {
    if (opt_.audit == AuditLevel::kOff) return;
    AuditReport report = auditNetlist(working(), opt_.audit, phase);
    diag_.secondsAudit += report.seconds;
    diag_.audits.push_back(report);
    if (!report.ok) throw StatusError(auditFailure(report));
  }

  /// Tri-modal final verification: every label-matched output is certified
  /// through the independent SAT / BDD / simulation routes. A refuted
  /// output (the engine committed it as correct, the oracle disagrees) is
  /// diagnosed - minimized counterexample, optional repro bundle - and
  /// quarantined to a fresh clone of its revised cone (Proposition 1), then
  /// re-certified. The run only succeeds when every pair ends certified.
  void certifyRun() {
    Netlist& w = working();
    // Deliberate-corruption site (SYSECO_FAULT_INJECT=oracle.wrong-patch=
    // wrong-patch): silently complement the last committed output, the
    // honest simulation of a miscompiled patch the search believed in. Runs
    // after sweep/finalize so nothing downstream can undo it, and picks its
    // victim from the committed reports, which are identical across --jobs,
    // --isolate and --resume.
    if (fault::fire("oracle.wrong-patch") == fault::Kind::kWrongPatch &&
        !diag_.outputs.empty()) {
      const std::uint32_t victim = diag_.outputs.back().output;
      const NetId bad = w.addGate(GateType::Not, {w.outputNet(victim)});
      w.rewireOutput(victim, bad);
    }

    OracleOptions oopt = opt_.oracle;
    // All oracle randomness derives from the run seed so the verdict
    // records are bit-identical across execution modes.
    oopt.seed = opt_.seed ^ 0x0bac1e5eedULL;
    const CertificationOracle oracle(w, spec_, oopt);

    // Fan-out: the first-pass certificate of every label-matched pair, on
    // up to `jobs` threads, each written to its own slot. The fault-site
    // decisions are drawn here, serially in output order, so a scheduled
    // "oracle.bdd" hit lands on the same output whatever the thread timing.
    //
    // Computing them all up front, before any quarantine below, returns
    // the certificates the one-at-a-time loop would: a quarantine only
    // rewires the refuted output to freshly cloned gates, so no other
    // output's cone changes. The BDD and simulation routes read nothing
    // but the output's own cone and the input list; the SAT route's
    // verdict is a property of that cone pair too (the clones can at most
    // lend its sweep extra equivalence hints). The netlist is not touched
    // until every task has finished.
    struct Pair {
      std::uint32_t o = 0;
      std::uint32_t op = 0;
      std::optional<fault::Kind> bddFault;
      OutputCertificate cert;
    };
    std::vector<Pair> pairs;
    for (std::uint32_t o = 0; o < w.numOutputs(); ++o) {
      const std::uint32_t op = specOutput(o);
      if (op == kNullId) continue;
      Pair p;
      p.o = o;
      p.op = op;
      p.bddFault = CertificationOracle::drawBddFault();
      pairs.push_back(std::move(p));
    }
    // On several threads, largest pairs (impl + spec cone gates) first, so
    // the longest certifications start at once instead of trailing at the
    // end. Threads pull from this shared order; one thread walks the pairs
    // in order.
    const std::size_t width = std::min(opt_.jobs, pairs.size());
    std::vector<std::size_t> order(pairs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (width > 1) {
      std::vector<std::size_t> cost;
      for (const Pair& p : pairs)
        cost.push_back(w.coneGates({w.outputNet(p.o)}).size() +
                       spec_.coneGates({spec_.outputNet(p.op)}).size());
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                       });
      releaseMemoryForFanOut();
    }
    std::atomic<std::size_t> next{0};
    auto drain = [&] {
      for (std::size_t k; (k = next.fetch_add(1)) < order.size();) {
        Pair& p = pairs[order[k]];
        p.cert = oracle.certify(p.o, p.op, p.bddFault);
      }
    };
    const Timer fanOut;
    {
      // Joined before this scope ends: the forked executor relies on a
      // thread-free process between runs.
      ThreadPool pool(width > 1 ? width : 0);
      std::vector<std::future<void>> drains;
      for (std::size_t t = 0; t < std::max<std::size_t>(width, 1); ++t)
        drains.push_back(pool.submit(drain));
      for (std::future<void>& f : drains) f.get();
    }
    // --report's CPU figures sum across threads: count the fan-out at its
    // summed per-certificate time instead of its wall time.
    double fanOutCpu = 0.0;
    for (const Pair& p : pairs) fanOutCpu += p.cert.seconds();
    diag_.secondsVerifyCpu += fanOutCpu - fanOut.seconds();

    // Serial consume, in output order: disagreement records, repro bundles,
    // quarantine and re-certification exactly as one output at a time.
    bool allCertified = true;
    bool anyQuarantine = false;
    diag_.certificates.clear();
    for (Pair& p : pairs) {
      const std::uint32_t o = p.o;
      const std::uint32_t op = p.op;
      OutputCertificate cert = std::move(p.cert);
      const bool refuted =
          cert.sat.verdict == RouteVerdict::kNotEquivalent ||
          cert.bdd.verdict == RouteVerdict::kNotEquivalent ||
          cert.sim.verdict == RouteVerdict::kNotEquivalent;
      if (refuted) {
        OracleDisagreement d;
        d.output = o;
        d.name = w.outputName(o);
        d.detail = std::string("sat=") + routeVerdictName(cert.sat.verdict) +
                   " bdd=" + routeVerdictName(cert.bdd.verdict) +
                   " sim=" + routeVerdictName(cert.sim.verdict);
        d.cex = cert.cex;
        if (!opt_.reproDir.empty()) d.bundleDir = writeDisagreementBundle(d, cert);
        std::fprintf(stderr,
                     "[syseco] ORACLE DISAGREEMENT out=%u (%s): %s; "
                     "quarantining to the cone-clone fallback%s%s\n",
                     o, d.name.c_str(), d.detail.c_str(),
                     d.bundleDir.empty() ? "" : "; repro bundle: ",
                     d.bundleDir.c_str());
        // Never ship a refuted output: replace whatever drives it with a
        // fresh clone of its revised cone and prove *that*.
        tracker().rewire(Sink{kNullId, o},
                         tracker().cloneSpecCone(spec_, spec_.outputNet(op)));
        markQuarantined(o);
        anyQuarantine = true;
        if (opt_.audit == AuditLevel::kParanoid)
          auditBoundary("post-quarantine");
        cert = oracle.certify(o, op, CertificationOracle::drawBddFault());
        diag_.oracleDisagreements.push_back(std::move(d));
      }
      if (!cert.certified) allCertified = false;
      diag_.certificates.push_back(std::move(cert));
    }
    if (anyQuarantine) result_.stats = tracker().finalize();
    result_.success = allCertified;
  }

  /// Flags output `o`'s report as a quarantined fallback: status kFallback
  /// with limit kInternal, the pair that drives the degraded exit code. An
  /// output the engine never reported on (a corruption caught on a healthy
  /// output) gets a fresh report.
  void markQuarantined(std::uint32_t o) {
    for (OutputReport& r : diag_.outputs) {
      if (r.output != o) continue;
      r.status = OutputRectStatus::kFallback;
      r.limit = StatusCode::kInternal;
      return;
    }
    OutputReport report;
    report.output = o;
    report.name = working().outputName(o);
    report.status = OutputRectStatus::kFallback;
    report.limit = StatusCode::kInternal;
    diag_.outputs.push_back(std::move(report));
  }

  /// Packages a disagreement into an atomic repro bundle: the exact
  /// netlists, the recorded patch, the seed, the minimized counterexample
  /// and the build that produced it. Returns the published directory, or
  /// "" when writing failed (the quarantine still proceeds - evidence is
  /// best-effort, shipping a wrong patch is not).
  std::string writeDisagreementBundle(const OracleDisagreement& d,
                                      const OutputCertificate& cert) {
    auto esc = [](const std::string& s) {
      std::string out;
      for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
      }
      return out;
    };
    std::string cexTxt;
    if (d.cex.empty()) {
      cexTxt = "(counterexample unavailable)\n";
    } else {
      const Netlist& w = working();
      for (std::uint32_t i = 0; i < w.numInputs(); ++i)
        cexTxt += w.inputName(i) + " " + (d.cex[i] ? "1" : "0") + "\n";
    }
    std::string patchTxt;
    for (const PatchTracker::RewireRecord& r : tracker().rewires()) {
      patchTxt += (r.sink.isOutput() ? "output " + std::to_string(r.sink.port)
                                     : "gate " + std::to_string(r.sink.gate) +
                                           " pin " +
                                           std::to_string(r.sink.port)) +
                  ": net " + std::to_string(r.oldNet) + " -> net " +
                  std::to_string(r.newNet) + "\n";
    }
    std::string meta = "{\n";
    meta += "  \"schema_version\": 1,\n";
    meta += "  \"output\": " + std::to_string(d.output) + ",\n";
    meta += "  \"output_name\": \"" + esc(d.name) + "\",\n";
    meta += "  \"seed\": " + std::to_string(opt_.seed) + ",\n";
    meta += "  \"verdicts\": {\n";
    meta += std::string("    \"sat\": \"") +
            routeVerdictName(cert.sat.verdict) + "\",\n";
    meta += std::string("    \"bdd\": \"") +
            routeVerdictName(cert.bdd.verdict) + "\",\n";
    meta += std::string("    \"sim\": \"") +
            routeVerdictName(cert.sim.verdict) + "\"\n";
    meta += "  },\n";
    meta += "  \"cex_reproduced\": ";
    meta += cert.cexReproduced ? "true" : "false";
    meta += ",\n";
    meta += "  \"cex_deviations\": " + std::to_string(cert.cexDeviations) +
            ",\n";
    meta += "  \"build\": " + buildInfoJson("  ") + "\n";
    meta += "}\n";
    const std::vector<ReproFile> files{
        {"impl_patched.raw", working().dumpRawString()},
        {"spec.raw", spec_.dumpRawString()},
        {"patch.txt", patchTxt},
        {"cex.txt", cexTxt},
        {"meta.json", meta},
    };
    Result<std::string> bundle = writeReproBundle(
        opt_.reproDir, "disagreement-o" + std::to_string(d.output), files);
    if (!bundle.isOk()) {
      std::fprintf(stderr, "[syseco] repro bundle write failed: %s\n",
                   bundle.status().toString().c_str());
      return "";
    }
    return bundle.take();
  }

  /// Deterministic capped exponential backoff; see retryBackoffSeconds
  /// (isolate.hpp) for the transport-independence contract.
  double backoffSeconds(std::uint32_t o, int failedAttempts) const {
    return retryBackoffSeconds(opt_, o, failedAttempts);
  }

  /// The resource-limit code a quarantined output reports: it makes
  /// resourceDegraded() true (the CLI's degraded exit code) and names the
  /// closest-matching resource family for the failure cause.
  static StatusCode quarantineLimit(WorkerExitCause cause) {
    switch (cause) {
      case WorkerExitCause::kCpuTimeout:
      case WorkerExitCause::kWallTimeout:
      case WorkerExitCause::kLeaseExpired:
        return StatusCode::kDeadlineExceeded;
      case WorkerExitCause::kOom:
        return StatusCode::kBudgetExhausted;
      default:
        return StatusCode::kInternal;
    }
  }

  /// Commits the guaranteed cone-clone fallback against the canonical
  /// netlist (Proposition 1) without adopting any worker result: for an
  /// output quarantined after isolateMaxAttempts contained failures, and
  /// for every output that reaches the frontier after the root guard has
  /// tripped. Deterministic, with the same per-output re-derivation as
  /// rectifyOutput; it reports kFallback with the non-ok `limit` so the
  /// run surfaces as degraded. The frontier check is charged to its report.
  bool commitFallback(std::uint32_t o, StatusCode limit, int attempts,
                      WorkerExitCause cause, const FrontierCheck& check) {
    const std::uint32_t op = specOutput(o);
    if (op == kNullId) return false;
    rng_.reseed(opt_.seed ^ (0x9e3779b97f4a7c15ULL *
                             (static_cast<std::uint64_t>(o) + 1)));
    cloner_.reset();
    Timer timer;
    fallback(o, op);
    ++diag_.outputsRectified;
    failingSet_.erase(o);
    OutputReport report;
    report.output = o;
    report.name = working().outputName(o);
    report.status = OutputRectStatus::kFallback;
    report.limit = limit;
    report.conflictsUsed = check.guard.conflictsUsed();
    report.bddNodesUsed = check.guard.bddNodesUsed();
    report.seconds = timer.seconds();
    report.workerFailedAttempts = attempts;
    report.workerExitCause = cause;
    pushCommittedReport(std::move(report));
    return true;
  }

  // --- Pure per-output tasks and fleet observability ---------------------

 public:
  /// The pure per-output task and the one place a WorkerPatch is built:
  /// in-process threads, forked --isolate workers and --serve-worker agents
  /// (through runFleetTask) all compute it, which is what keeps every
  /// executor's result byte-identical. Escaping exceptions are contained
  /// into a non-ok Status - a worker reports a task failure, never dies.
  static Result<WorkerPatch> computeTask(
      const Netlist& base, const Netlist& spec, const SysecoOptions& opt,
      const ResourceGuard::Limits& limits, std::uint32_t output,
      const std::vector<std::uint32_t>& protect,
      const NetlistAnalysis* baseAnalysis, const NetlistAnalysis* specAnalysis) {
    if (output >= base.numOutputs())
      return Status::invalidInput("worker task output out of range");
    try {
      // Task fault sites fail the pure task the same way under every
      // executor: oom/alloc as an allocation failure, any other engine
      // kind as a crash. "syseco.task" hits every task; the per-output
      // variant pins the blast radius to one output.
      const std::string persite = "syseco.task.o" + std::to_string(output);
      for (const char* site : {"syseco.task", persite.c_str()}) {
        const auto kind = fault::fire(site);
        if (kind == fault::Kind::kOom || kind == fault::Kind::kAllocFailure)
          throw std::bad_alloc{};
        if (kind) throw StatusError(Status::internal("injected task fault"));
      }
      // The worker borrows the caller's immutable analyses, protects every
      // planned output (none of them has committed on the base snapshot),
      // and searches under its slice of the run's resources. It only runs
      // rectifyOutput, which reads nothing but the search-shaping options,
      // so the run's options serve as-is: hooks, transports, audits and
      // the oracle stay the canonical engine's. A produced report is
      // frag's only entry.
      SysecoDiagnostics frag;
      Engine eng(base, spec, opt, frag);
      eng.baseAnalysis_ = baseAnalysis;
      eng.specAnalysis_ = specAnalysis;
      eng.trackerStore_.emplace(eng.result_.rectified);
      eng.tracker_ = &*eng.trackerStore_;
      eng.failingSet_.insert(protect.begin(), protect.end());
      ResourceGuard guard(limits);
      const bool produced = eng.rectifyOutput(output, guard);
      WorkerPatch p;
      p.produced = produced;
      p.baseGates = base.numGatesTotal();
      p.baseNets = base.numNetsTotal();
      if (produced) {
        const Netlist& wn = eng.result_.rectified;
        for (GateId g = static_cast<GateId>(p.baseGates);
             g < wn.numGatesTotal(); ++g) {
          const auto& gate = wn.gate(g);
          p.gates.push_back(
              WorkerPatch::NewGate{gate.type, gate.fanins, gate.out});
        }
        p.rewires = eng.tracker_->rewires();
        p.frag = eng.diag_;
      }
      return p;
    } catch (const std::bad_alloc&) {
      return Status::budgetExhausted("worker task allocation failure");
    } catch (const StatusError& e) {
      return e.status();
    } catch (const std::exception& e) {
      return Status::internal(std::string("worker task threw: ") + e.what());
    }
  }

 private:
  /// Emits one fleet lifecycle event to the journaling hook and, under
  /// --verbose, to stderr. Events are observability only - they carry
  /// timing-dependent scheduling history and never feed the verdict
  /// records, which is what keeps fleet runs bit-comparable to --jobs.
  void fleetEvent(const std::string& kind, const std::string& worker,
                  std::uint32_t output, int attempt,
                  const std::string& detail) const {
    if (opt_.fleetEventHook) {
      FleetEvent ev;
      ev.kind = kind;
      ev.worker = worker;
      ev.output = output;
      ev.attempt = attempt;
      ev.detail = detail;
      opt_.fleetEventHook(ev);
    }
    if (opt_.verbose)
      std::fprintf(stderr, "[syseco] fleet %s worker=%s out=%u attempt=%d%s%s\n",
                   kind.c_str(), worker.c_str(), output, attempt,
                   detail.empty() ? "" : ": ", detail.c_str());
  }

  /// True while the working netlist is still byte-identical to the base
  /// analysis' snapshot: nothing rewired, nothing added. Gate/net counts
  /// only ever grow and rewiring is the only other mutation, so the check
  /// is exact.
  bool baseAnalysisFresh() const {
    return baseAnalysis_ != nullptr && tracker_ != nullptr &&
           tracker_->rewires().empty() &&
           result_.rectified.numGatesTotal() == baseAnalysis_->gatesAtBuild() &&
           result_.rectified.numNetsTotal() == baseAnalysis_->netsAtBuild();
  }

  std::uint32_t specOutput(std::uint32_t o) const {
    return spec_.findOutput(specOutputName(o));
  }
  const std::string& specOutputName(std::uint32_t o) const {
    return result_.rectified.outputName(o);
  }

  // --- Per-output rectification (the RewireRectification loop body) -------

  /// Returns true when an OutputReport was pushed (the caller's checkpoint
  /// hook fires only on real progress).
  bool rectifyOutput(std::uint32_t o, ResourceGuard& outGuard) {
    const std::uint32_t op = specOutput(o);
    if (op == kNullId) return false;
    Netlist& w = working();

    // The per-output search must depend only on (seed, output, current
    // netlist) - never on how the run got here - so that a journal resume
    // replays the remaining outputs bit-exactly. Both the RNG stream and
    // the spec-matching cloner (whose caches encode search history) are
    // re-derived at each output boundary.
    rng_.reseed(opt_.seed ^ (0x9e3779b97f4a7c15ULL *
                             (static_cast<std::uint64_t>(o) + 1)));
    cloner_.reset();

    Timer outputTimer;
    OutputReport report;
    report.output = o;
    report.name = w.outputName(o);
    activeGuard_ = &outGuard;
    degradeSteps_ = 0;
    effMaxPointSets_ = opt_.maxPointSets;

    // Earlier patches may have fixed this output already (global favoring).
    {
      Timer phase;
      PairEncoding pe(w, spec_);
      pe.setResourceGuard(&outGuard);
      const bool fixed = pe.solveDiffSwept(o, op, opt_.validationBudget,
                                           rng_) == Solver::Result::Unsat;
      diag_.secondsSampling += phase.seconds();
      if (fixed) {
        failingSet_.erase(o);
        finishReport(std::move(report), outGuard, /*viaFallback=*/false,
                     outputTimer.seconds());
        return true;
      }
    }

    Timer samplePhase;
    SampleSet samples = collectSamples(o, op, outGuard);
    diag_.secondsSampling += samplePhase.seconds();
    bool done = false;
    int screenOnlyRefines = 0;
    for (int iter = 0; iter < opt_.maxRefineIters && !done; ++iter) {
      if (!outGuard.checkpoint("syseco.refine").isOk()) break;
      if (iter > 0) ++diag_.refinementRounds;
      AttemptOutcome outcome = attempt(o, op, samples, outGuard);
      if (outcome.applied) {
        done = true;
        ++diag_.outputsViaRewire;
        break;
      }
      if (outcome.limit != StatusCode::kOk) break;  // budget/deadline: stop
      // Refine the sampling domain with whatever refuted the candidates:
      // SAT counterexamples first, then patterns the simulation screen
      // caught (both are genuine members of the mismatch evidence). Screen
      // evidence alone only buys a bounded number of extra rounds - it is
      // plentiful but weak.
      if (outcome.counterexamples.empty() &&
          outcome.screenCounterexamples.empty())
        break;  // refuted symbolically: nothing to learn from
      if (outcome.counterexamples.empty() && ++screenOnlyRefines > 2) break;
      // Cap the domain at 2N: beyond that the per-net BDDs grow while the
      // precision gain flattens (the trade-off of §5.1).
      for (InputPattern& cex : outcome.counterexamples) {
        if (samples.count() >= 2 * opt_.numSamples) break;
        samples.add(std::move(cex));
      }
      std::size_t taken = 0;
      for (InputPattern& cex : outcome.screenCounterexamples) {
        if (taken >= 4 || samples.count() >= 2 * opt_.numSamples) break;
        samples.add(std::move(cex));
        ++taken;
      }
    }
    if (!done) fallback(o, op);
    ++diag_.outputsRectified;
    failingSet_.erase(o);
    finishReport(std::move(report), outGuard, !done, outputTimer.seconds());
    return true;
  }

  void finishReport(OutputReport report, const ResourceGuard& outGuard,
                    bool viaFallback, double seconds) {
    activeGuard_ = nullptr;
    report.limit = outGuard.trippedCode();
    report.degradeSteps = degradeSteps_;
    report.conflictsUsed = outGuard.conflictsUsed();
    report.bddNodesUsed = outGuard.bddNodesUsed();
    report.seconds = seconds;
    if (viaFallback) {
      report.status = OutputRectStatus::kFallback;
    } else if (report.limit != StatusCode::kOk || degradeSteps_ > 0) {
      report.status = OutputRectStatus::kDegraded;
    } else {
      report.status = OutputRectStatus::kExact;
    }
    if (opt_.verbose)
      std::fprintf(stderr, "[syseco] out=%u -> %s (limit=%s, %.2fs)\n",
                   report.output, outputRectStatusName(report.status),
                   statusCodeName(report.limit), report.seconds);
    diag_.outputs.push_back(std::move(report));
  }

  SampleSet collectSamples(std::uint32_t o, std::uint32_t op,
                           ResourceGuard& guard) {
    SampleSet samples;
    // Degraded sampling: when the budget is already gone, skip the SAT
    // error-domain enumeration entirely and fall through to the uniform
    // top-up - weaker evidence, but free.
    const bool canEnumerate = guard.checkpoint("syseco.sampling").isOk();
    if (opt_.useErrorDomainSampling && canEnumerate) {
      PairEncoding pe(working(), spec_);
      pe.setResourceGuard(&guard);
      for (InputPattern& p :
           pe.enumerateErrors(o, op, opt_.numSamples, opt_.samplingBudget,
                              &rng_)) {
        samples.add(std::move(p));
      }
    }
    // Top up with uniform samples: a sparse error domain (sometimes a
    // single assignment on the pair's support) gives the required-function
    // machinery no context about what must be *preserved*. Uniform samples
    // are exactly that context; the error mask keeps them apart. This is
    // also the whole domain in the uniform-sampling ablation mode.
    while (samples.count() < opt_.numSamples) {
      InputPattern p(working().numInputs(), 0);
      for (auto& bit : p) bit = rng_.flip() ? 1 : 0;
      samples.add(std::move(p));
    }
    return samples;
  }

  /// Always succeeds: a circuit output is itself a rectification point with
  /// rectification function f', realized at the corresponding output of C'
  /// (completeness argument of §3.3). The clone is match-aware: spec
  /// sub-cones equivalent to existing implementation logic tap that logic
  /// instead of being replicated (the reuse principle of §1).
  void fallback(std::uint32_t o, std::uint32_t op) {
    Timer phase;
    // The cloner survives across fallbacks: re-driving an output changes no
    // internal net function, so its signatures, encodings and pinned
    // equivalences stay valid. Interior rewires (successful choices)
    // invalidate it - tryChoice resets it there.
    tracker().rewire(Sink{kNullId, o},
                     matchedClone(spec_.outputNet(op)));
    ++diag_.outputsViaFallback;
    diag_.secondsFallback += phase.seconds();
  }

  // --- One sampling-domain attempt ----------------------------------------

  AttemptOutcome attempt(std::uint32_t o, std::uint32_t op,
                         const SampleSet& samples, ResourceGuard& guard) {
    AttemptOutcome outcome;
    Netlist& w = working();

    // Sampled signatures of every net in W and in the spec.
    Rng fillRng = rng_.split();
    Simulator wSim = simulateOnSamples(w, w, samples, fillRng);
    Simulator sSim = simulateOnSamples(spec_, w, samples, fillRng);
    std::vector<std::uint64_t> errMask =
        errorMask(wSim.outputValue(o), sSim.outputValue(op), samples);
    if (countBits(errMask) == 0) {
      // Uniform samples that happen to miss the error domain entirely:
      // score on all samples instead.
      errMask = errorMask(Signature(samples.simWords(), ~0ULL),
                          Signature(samples.simWords(), 0), samples);
    }
    // Genuine samples where the output is already correct.
    std::vector<std::uint64_t> correctMask = errorMask(
        Signature(samples.simWords(), ~0ULL),
        Signature(samples.simWords(), 0), samples);
    for (std::size_t wd = 0; wd < correctMask.size(); ++wd)
      correctMask[wd] &= ~errMask[wd];

    // Shared-analysis fast path: while the working netlist is still the
    // pristine base snapshot (every worker's first attempt), the cone,
    // levels, supports and topological order come from the immutable
    // NetlistAnalysis instead of being recomputed per attempt.
    const bool pristine = baseAnalysisFresh();
    std::vector<GateId> cone = pristine ? baseAnalysis_->outputConeGates(o)
                                        : w.coneGates({w.outputNet(o)});
    std::vector<std::uint32_t> wLevelsLocal;
    if (!pristine) wLevelsLocal = w.netLevels();
    const std::vector<std::uint32_t>& wLevels =
        pristine ? baseAnalysis_->netLevels() : wLevelsLocal;
    std::vector<std::uint64_t> allMask(errMask.size());
    for (std::size_t wd = 0; wd < allMask.size(); ++wd)
      allMask[wd] = errMask[wd] | correctMask[wd];
    std::vector<PinCandidate> pins =
        rankPins(o, cone, wSim, errMask, allMask);
    for (PinCandidate& pin : pins) pin.driverLevel = wLevels[pin.driver];
    if (pins.empty()) return outcome;

    // Validation screen: the samples plus a block of random patterns; a
    // candidate must survive it before the (expensive) SAT validation runs.
    SimScreen screen;
    screen.sampleCount = samples.count();
    for (const InputPattern& p : samples.patterns()) screen.patterns.add(p);
    for (std::size_t k = 0; k < 4096 - std::min<std::size_t>(
                                          samples.count(), 2048); ++k) {
      InputPattern p(w.numInputs(), 0);
      for (auto& bit : p) bit = rng_.flip() ? 1 : 0;
      screen.patterns.add(std::move(p));
    }
    {
      Rng screenFill = rng_.split();
      Simulator specScreen =
          simulateOnSamples(spec_, w, screen.patterns, screenFill);
      screen.specOut.resize(w.numOutputs());
      for (std::uint32_t oo = 0; oo < w.numOutputs(); ++oo) {
        const std::uint32_t sop = specOutput(oo);
        if (sop != kNullId) screen.specOut[oo] = specScreen.outputValue(sop);
      }
      Rng baseFill = rng_.split();
      screen.base = std::make_unique<Simulator>(
          simulateOnSamples(w, w, screen.patterns, baseFill));
      screen.baseNets = w.numNetsTotal();
      screen.topoIndex.assign(w.numGatesTotal(), 0);
      std::vector<GateId> topoLocal;
      if (!pristine) topoLocal = w.topoOrder();
      const std::vector<GateId>& topo =
          pristine ? baseAnalysis_->topoOrder() : topoLocal;
      for (std::size_t k = 0; k < topo.size(); ++k)
        screen.topoIndex[topo[k]] = static_cast<std::uint32_t>(k);
    }

    std::optional<SupportTable> wSupportsLocal;
    if (!pristine) wSupportsLocal.emplace(w);
    const SupportTable& wSupports =
        pristine ? baseAnalysis_->supports() : *wSupportsLocal;
    const std::vector<std::uint64_t> specOutMask =
        specOutSupportMaskInW(op, wSupports.words());
    const std::vector<std::uint32_t>& specLevels = specAnalysis_->netLevels();
    std::vector<NetId> specCone = specAnalysis_->outputConeNets(op);
    computeCloneCostDp(wSim, sSim);

    // Phase 1: gather candidate rewire operations across every point count
    // m and every feasible point-set, costed by expected patch growth
    // (cache-aware: spec logic that already exists in W is free).
    struct GatheredChoice {
      std::vector<std::size_t> ps;
      std::shared_ptr<std::vector<std::vector<NetCandidate>>> cands;
      RewireChoice choice;
    };
    std::vector<GatheredChoice> gathered;
    Timer symbolicPhase;
    for (std::size_t shrink = 0; shrink < 3 && !pins.empty(); ++shrink) {
      try {
        // Deterministic fault hook: forces the blowup / allocation-failure
        // recovery paths below without a genuinely huge design.
        if (const auto k = fault::fire("syseco.pointsets")) {
          if (*k == fault::Kind::kBddBlowup) throw BddLimitExceeded{};
          if (*k == fault::Kind::kAllocFailure) throw std::bad_alloc{};
        }
        for (int m = 1; m <= opt_.maxPoints; ++m) {
          // Higher point counts are exponentially costlier symbolically;
          // only escalate while the cheaper levels found too few options.
          if (gathered.size() >= opt_.maxChoices) break;
          std::vector<std::vector<std::size_t>> pointSets =
              enumeratePointSets(o, samples, wSim, sSim, pins, m, op, cone);
          if (opt_.verbose)
            std::fprintf(stderr,
                         "[syseco] out=%u m=%d pins=%zu pointsets=%zu\n", o, m,
                         pins.size(), pointSets.size());
          for (const auto& ps : pointSets) {
            if (!topologicallyIndependent(pins, ps, o)) {
              if (opt_.verbose)
                std::fprintf(stderr, "[syseco]   set rejected (topology)\n");
              continue;
            }
            auto cands =
                std::make_shared<std::vector<std::vector<NetCandidate>>>();
            cands->reserve(ps.size());
            for (std::size_t pi : ps) {
              cands->push_back(candidateNets(pins[pi], wSim, sSim, errMask,
                                             correctMask, wSupports,
                                             specOutMask, wLevels, specLevels,
                                             specCone, o));
            }
            std::vector<RewireChoice> choices = computeChoices(
                o, op, samples, wSim, sSim, pins, ps, *cands, cone);
            if (opt_.verbose)
              std::fprintf(stderr, "[syseco]   set size=%zu choices=%zu\n",
                           ps.size(), choices.size());
            for (RewireChoice& choice : choices)
              gathered.push_back(GatheredChoice{ps, cands, std::move(choice)});
          }
        }
        break;  // all m exhausted without node-limit trouble
      } catch (const BddLimitExceeded&) {
        // Staged degradation under design complexity or a drained node
        // ledger: halve the candidate pin set and the point-set quota,
        // then retry the smaller symbolic problem.
        gathered.clear();
        pins.resize(pins.size() / 2);
        effMaxPointSets_ = std::max<std::size_t>(effMaxPointSets_ / 2, 1);
        ++degradeSteps_;
      } catch (const std::bad_alloc&) {
        // Allocation pressure degrades the same way a node blowup does.
        gathered.clear();
        pins.resize(pins.size() / 2);
        effMaxPointSets_ = std::max<std::size_t>(effMaxPointSets_ / 2, 1);
        ++degradeSteps_;
      } catch (const StatusError& e) {
        // The deadline passed mid-construction: no smaller retry can help.
        diag_.secondsSymbolic += symbolicPhase.seconds();
        outcome.limit = e.status().code();
        return outcome;
      }
    }

    diag_.secondsSymbolic += symbolicPhase.seconds();

    // Phase 2: validate in increasing cost order. This is what makes the
    // engine prefer a 2-point rewire reusing tiny revision logic over a
    // 1-point wholesale cone replacement of equal sampling-domain validity.
    std::stable_sort(gathered.begin(), gathered.end(),
                     [](const GatheredChoice& a, const GatheredChoice& b) {
                       if (a.choice.cost != b.choice.cost)
                         return a.choice.cost < b.choice.cost;
                       return a.choice.tieLevel < b.choice.tieLevel;
                     });
    if (gathered.size() > opt_.maxChoices * 3)
      gathered.resize(opt_.maxChoices * 3);
    for (const GatheredChoice& gc : gathered) {
      if (!guard.checkpoint("syseco.choices").isOk()) {
        outcome.limit = guard.trippedCode();
        return outcome;
      }
      if (opt_.verbose) {
        std::fprintf(stderr, "[syseco]   try cost=%.2f:", gc.choice.cost);
        for (std::size_t i = 0; i < gc.ps.size(); ++i) {
          const NetCandidate& c = (*gc.cands)[i][gc.choice.pick[i]];
          std::fprintf(stderr, " pin(net %u)->%s%u(cc=%u)",
                       pins[gc.ps[i]].driver, c.fromSpec ? "spec" : "w",
                       c.net, c.cloneCost);
        }
        std::fputc('\n', stderr);
      }
      if (tryChoice(o, op, screen, pins, gc.ps, *gc.cands, gc.choice,
                    outcome)) {
        outcome.applied = true;
        return outcome;
      }
      if (outcome.counterexamples.size() >= 4) return outcome;
    }
    return outcome;
  }

  /// Signature-based DP estimating how many *new* gates cloning each spec
  /// net would add to W right now: nets whose sampled signature already
  /// exists in W (plain or complemented) are assumed matchable and free.
  void computeCloneCostDp(const Simulator& wSim, const Simulator& sSim) {
    std::unordered_set<std::uint64_t> wSigs;
    const Netlist& w = working();
    for (NetId n = 0; n < wSim.numNetsSimulated() && n < w.numNetsTotal();
         ++n) {
      const auto& net = w.net(n);
      const bool liveDriven =
          net.srcKind == Netlist::SourceKind::Input ||
          (net.srcKind == Netlist::SourceKind::Gate &&
           !w.gate(net.srcIdx).dead);
      if (!liveDriven) continue;
      wSigs.insert(hashSignature(wSim.value(n), false));
    }
    cloneCostDp_.assign(spec_.numNetsTotal(), 0);
    for (GateId g : specAnalysis_->topoOrder()) {
      const auto& gate = spec_.gate(g);
      const NetId out = gate.out;
      if (wSigs.count(hashSignature(sSim.value(out), false))) {
        cloneCostDp_[out] = 0;  // likely reused via functional matching
      } else if (wSigs.count(hashSignature(sSim.value(out), true))) {
        cloneCostDp_[out] = 1;  // complement match: one inverter
      } else {
        std::uint64_t c = 1;
        for (NetId f : gate.fanins) c += cloneCostDp_[f];
        cloneCostDp_[out] =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(c, 100000));
      }
    }
  }

  // --- Candidate rectification points (§4.2 pre-selection) ----------------

  std::vector<PinCandidate> rankPins(std::uint32_t o,
                                     const std::vector<GateId>& cone,
                                     const Simulator& wSim,
                                     const std::vector<std::uint64_t>& errMask,
                                     const std::vector<std::uint64_t>& allMask) {
    Netlist& w = working();
    const std::size_t words = errMask.size();
    // Observability propagated backwards through the cone, seeded twice:
    // by the error samples (the selection score) and by all genuine
    // samples (the don't-care structure of each point's required function).
    std::unordered_map<NetId, std::vector<std::uint64_t>> obs;
    std::unordered_map<NetId, std::vector<std::uint64_t>> obsFull;
    obs[w.outputNet(o)] = errMask;
    obsFull[w.outputNet(o)] = allMask;

    std::vector<PinCandidate> pins;
    // The output itself is a candidate rectification point ("or possibly at
    // circuit outputs", §3.2).
    pins.push_back(PinCandidate{{Sink{kNullId, o}},
                                w.outputNet(o),
                                countBits(errMask),
                                0,
                                errMask,
                                allMask});

    // Cone sink pins per net (for group candidates).
    std::unordered_map<NetId, std::vector<Sink>> coneSinksOf;

    for (auto it = cone.rbegin(); it != cone.rend(); ++it) {
      const GateId g = *it;
      const auto& gate = w.gate(g);
      auto oIt = obs.find(gate.out);
      if (oIt == obs.end()) continue;  // unobservable at this output
      const std::vector<std::uint64_t> gateObs = oIt->second;
      const std::vector<std::uint64_t> gateObsFull = obsFull[gate.out];
      std::vector<const Signature*> vals;
      vals.reserve(gate.fanins.size());
      for (NetId f : gate.fanins) vals.push_back(&wSim.value(f));
      for (std::size_t port = 0; port < gate.fanins.size(); ++port) {
        std::vector<std::uint64_t> pinObs(words, 0);
        std::vector<std::uint64_t> pinObsFull(words, 0);
        for (std::size_t wd = 0; wd < words; ++wd) {
          const std::uint64_t d = derivWord(gate.type, vals, port, wd);
          pinObs[wd] = gateObs[wd] & d;
          pinObsFull[wd] = gateObsFull[wd] & d;
        }
        const std::size_t score = countBits(pinObs);
        const Sink sink{g, static_cast<std::uint32_t>(port)};
        if (score > 0) {
          pins.push_back(PinCandidate{
              {sink}, gate.fanins[port], score, 0, pinObs, pinObsFull});
        }
        coneSinksOf[gate.fanins[port]].push_back(sink);
        auto& facc = obs[gate.fanins[port]];
        if (facc.empty()) facc.assign(words, 0);
        auto& faccFull = obsFull[gate.fanins[port]];
        if (faccFull.empty()) faccFull.assign(words, 0);
        for (std::size_t wd = 0; wd < words; ++wd) {
          facc[wd] |= pinObs[wd];
          faccFull[wd] |= pinObsFull[wd];
        }
      }
    }

    // Group candidates: all cone sinks of a net, rewired as one point.
    // Their observability is the accumulated net observability.
    for (auto& [net, sinks] : coneSinksOf) {
      if (sinks.size() < 2) continue;  // identical to the single pin
      const auto oIt = obs.find(net);
      if (oIt == obs.end()) continue;
      const std::size_t score = countBits(oIt->second);
      if (score == 0) continue;
      pins.push_back(
          PinCandidate{sinks, net, score, 0, oIt->second, obsFull[net]});
    }

    std::stable_sort(pins.begin(), pins.end(),
                     [](const PinCandidate& a, const PinCandidate& b) {
                       return a.score > b.score;
                     });
    if (pins.size() > opt_.maxCandidatePins)
      pins.resize(opt_.maxCandidatePins);
    return pins;
  }

  /// The topological constraint of §3.3: no path may connect any pair of
  /// selected pins. The output pin only combines with itself.
  bool topologicallyIndependent(const std::vector<PinCandidate>& pins,
                                const std::vector<std::size_t>& ps,
                                std::uint32_t o) {
    if (ps.size() <= 1) return true;
    Netlist& w = working();
    for (std::size_t a : ps) {
      if (pins[a].isOutputPin()) return false;  // everything reaches a PO
    }
    // Pins within one group share a variable, so only cross-group paths
    // violate the constraint.
    for (std::size_t a : ps) {
      std::unordered_set<GateId> reach;
      for (const Sink& s : pins[a].sinks) {
        for (GateId g : reachableGates(w, w.gate(s.gate).out))
          reach.insert(g);
      }
      for (std::size_t b : ps) {
        if (a == b) continue;
        for (const Sink& s : pins[b].sinks) {
          if (!s.isOutput() && reach.count(s.gate)) return false;
        }
      }
    }
    (void)o;
    return true;
  }

  static std::unordered_set<GateId> reachableGates(const Netlist& w,
                                                   NetId from) {
    std::unordered_set<GateId> seen;
    std::vector<NetId> stack{from};
    while (!stack.empty()) {
      const NetId n = stack.back();
      stack.pop_back();
      for (const Sink& s : w.net(n).sinks) {
        if (s.isOutput()) continue;
        if (seen.insert(s.gate).second) stack.push_back(w.gate(s.gate).out);
      }
    }
    return seen;
  }

  /// Nets reachable (forward) from `from`, for rewire cycle avoidance.
  static std::unordered_set<NetId> reachableNets(const Netlist& w,
                                                 NetId from) {
    std::unordered_set<NetId> seen{from};
    std::vector<NetId> stack{from};
    while (!stack.empty()) {
      const NetId n = stack.back();
      stack.pop_back();
      for (const Sink& s : w.net(n).sinks) {
        if (s.isOutput()) continue;
        const NetId out = w.gate(s.gate).out;
        if (seen.insert(out).second) stack.push_back(out);
      }
    }
    return seen;
  }

  // --- Symbolic cone evaluation over the sampling domain ------------------

  struct SymbolicCone {
    Bdd* mgr = nullptr;
    const Simulator* sim = nullptr;
    std::vector<std::uint32_t> zVars;
    std::unordered_map<NetId, Bdd::Ref> netBdd;
    std::unordered_map<std::uint64_t, std::size_t> pinIndex;  // pinKey->idx

    Bdd::Ref signatureBdd(NetId n) {
      if (auto it = netBdd.find(n); it != netBdd.end()) return it->second;
      const Bdd::Ref r = mgr->fromTruthTable(sim->value(n), zVars);
      netBdd.emplace(n, r);
      return r;
    }
  };

  /// Evaluates the cone of output `o` symbolically; at each listed pin,
  /// `wrap(base, idx)` substitutes the pin's value (mux for H, y for Xi).
  /// Untainted sub-cones use their sampled signatures directly - this is
  /// what keeps the computation "independent of the design size".
  template <typename WrapFn>
  Bdd::Ref evalOutput(SymbolicCone& sc, std::uint32_t o,
                      const std::vector<GateId>& cone,
                      const std::vector<PinCandidate>& pins,
                      const std::vector<std::size_t>& ps, WrapFn wrap) {
    Netlist& w = working();
    // Taint: gates whose value depends on a substituted pin.
    std::unordered_set<GateId> tainted;
    std::unordered_set<GateId> coneSet(cone.begin(), cone.end());
    sc.pinIndex.clear();
    for (std::size_t k = 0; k < ps.size(); ++k) {
      for (const Sink& s : pins[ps[k]].sinks) {
        sc.pinIndex.emplace(pinKey(s), k);
        if (!s.isOutput()) tainted.insert(s.gate);
      }
    }
    for (GateId g : cone) {  // topological order propagates taint forward
      if (tainted.count(g)) continue;
      for (NetId f : w.gate(g).fanins) {
        const GateId d = w.driverOf(f);
        if (d != kNullId && tainted.count(d)) {
          tainted.insert(g);
          break;
        }
      }
    }

    Bdd& mgr = *sc.mgr;
    for (GateId g : cone) {
      if (!tainted.count(g)) continue;
      const auto& gate = w.gate(g);
      std::vector<Bdd::Ref> in;
      in.reserve(gate.fanins.size());
      for (std::size_t port = 0; port < gate.fanins.size(); ++port) {
        const NetId f = gate.fanins[port];
        const GateId d = w.driverOf(f);
        Bdd::Ref v = (d != kNullId && tainted.count(d))
                         ? sc.netBdd.at(f)
                         : sc.signatureBdd(f);
        const auto pit =
            sc.pinIndex.find(pinKey(Sink{g, static_cast<std::uint32_t>(port)}));
        if (pit != sc.pinIndex.end()) v = wrap(v, pit->second);
        in.push_back(v);
      }
      Bdd::Ref r = Bdd::kFalse;
      switch (gate.type) {
        case GateType::Const0: r = Bdd::kFalse; break;
        case GateType::Const1: r = Bdd::kTrue; break;
        case GateType::Buf: r = in[0]; break;
        case GateType::Not: r = mgr.bNot(in[0]); break;
        case GateType::And: r = mgr.andMany(in); break;
        case GateType::Nand: r = mgr.bNot(mgr.andMany(in)); break;
        case GateType::Or: r = mgr.orMany(in); break;
        case GateType::Nor: r = mgr.bNot(mgr.orMany(in)); break;
        case GateType::Xor:
        case GateType::Xnor: {
          r = in[0];
          for (std::size_t k = 1; k < in.size(); ++k) r = mgr.bXor(r, in[k]);
          if (gate.type == GateType::Xnor) r = mgr.bNot(r);
          break;
        }
        case GateType::Mux: r = mgr.ite(in[0], in[2], in[1]); break;
      }
      sc.netBdd[gate.out] = r;
    }

    const NetId outNet = w.outputNet(o);
    const GateId outDrv = w.driverOf(outNet);
    Bdd::Ref h = (outDrv != kNullId && tainted.count(outDrv))
                     ? sc.netBdd.at(outNet)
                     : sc.signatureBdd(outNet);
    // The output pin itself may be a rectification point.
    const auto pit = sc.pinIndex.find(pinKey(Sink{kNullId, o}));
    if (pit != sc.pinIndex.end()) h = wrap(h, pit->second);
    return h;
  }

  // --- Feasible rectification point-sets via H(t) (§4.2) ------------------

  /// Engine tunables for the sampling-domain managers (H(t) / Xi(c)).
  /// These keep identity order: their variables are sample indices and
  /// selector bits - an arbitrary encoding with no structure for sifting
  /// to exploit - and no root provider is registered, so auto-reorder
  /// stays disarmed by design (only the certification oracle's
  /// monolithic-cone BDD route sifts).
  BddConfig samplingBddConfig() const {
    BddConfig cfg;
    cfg.nodeLimit = opt_.bddNodeLimit;
    return cfg;
  }

  std::vector<std::vector<std::size_t>> enumeratePointSets(
      std::uint32_t o, const SampleSet& samples, const Simulator& wSim,
      const Simulator& sSim, const std::vector<PinCandidate>& pins, int m,
      std::uint32_t op, const std::vector<GateId>& cone) {
    const std::uint32_t nz = samples.numZVars();
    const std::size_t M = pins.size();
    std::uint32_t tb = 0;
    while ((std::size_t{1} << tb) < M) ++tb;
    if (tb == 0) tb = 1;
    const std::uint32_t numVars =
        nz + static_cast<std::uint32_t>(m) +
        static_cast<std::uint32_t>(m) * tb;

    Bdd mgr(numVars, samplingBddConfig());
    mgr.setResourceGuard(activeGuard_);
    std::vector<std::uint32_t> zVars(nz);
    for (std::uint32_t i = 0; i < nz; ++i) zVars[i] = i;
    std::vector<std::uint32_t> yVars(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i)
      yVars[static_cast<std::size_t>(i)] = nz + static_cast<std::uint32_t>(i);
    std::vector<std::vector<std::uint32_t>> tVars(static_cast<std::size_t>(m));
    std::uint32_t next = nz + static_cast<std::uint32_t>(m);
    for (int i = 0; i < m; ++i) {
      for (std::uint32_t b = 0; b < tb; ++b)
        tVars[static_cast<std::size_t>(i)].push_back(next++);
    }

    // Minterms t_i^j: decision "pin q_j is the i-th rectification point".
    std::vector<std::vector<Bdd::Ref>> mint(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < M; ++j)
        mint[static_cast<std::size_t>(i)].push_back(mgr.mintermOf(
            static_cast<std::uint32_t>(j), tVars[static_cast<std::size_t>(i)]));
    }

    // All pins participate: ps = identity.
    std::vector<std::size_t> allPins(M);
    for (std::size_t j = 0; j < M; ++j) allPins[j] = j;

    SymbolicCone sc;
    sc.mgr = &mgr;
    sc.sim = &wSim;
    sc.zVars = zVars;

    // Figure 2's construct: sel_j = OR_i t_i^j; data1_j = AND_i(t_i^j -> y_i).
    auto wrap = [&](Bdd::Ref base, std::size_t j) {
      Bdd::Ref sel = Bdd::kFalse;
      Bdd::Ref data1 = Bdd::kTrue;
      for (int i = 0; i < m; ++i) {
        const Bdd::Ref tij = mint[static_cast<std::size_t>(i)][j];
        sel = mgr.bOr(sel, tij);
        data1 = mgr.bAnd(
            data1, mgr.bImp(tij, mgr.var(yVars[static_cast<std::size_t>(i)])));
      }
      return mgr.ite(sel, data1, base);
    };

    const Bdd::Ref h = evalOutput(sc, o, cone, pins, allPins, wrap);
    const Bdd::Ref fPrime =
        mgr.fromTruthTable(sSim.value(spec_.outputNet(op)), zVars);

    // H(t) = forall z exists y (h == f'), restricted to valid encodings.
    Bdd::Ref equal = mgr.bXnor(h, fPrime);
    Bdd::Ref inner = mgr.exists(equal, yVars);
    Bdd::Ref H = mgr.forall(inner, zVars);
    for (int i = 0; i < m; ++i) {
      Bdd::Ref valid = Bdd::kFalse;
      for (std::size_t j = 0; j < M; ++j)
        valid = mgr.bOr(valid, mint[static_cast<std::size_t>(i)][j]);
      H = mgr.bAnd(H, valid);
    }
    if (H == Bdd::kFalse) return {};

    // Prime-cube seeds (§4.2): each ISOP cube is an implicant of H; any
    // index assignment consistent with its literals is a feasible set.
    std::vector<std::vector<std::size_t>> sets;
    std::vector<std::vector<std::size_t>> seen;
    auto addSet = [&](std::vector<std::size_t> s) {
      std::sort(s.begin(), s.end());
      s.erase(std::unique(s.begin(), s.end()), s.end());  // merged selections
      if (std::find(seen.begin(), seen.end(), s) == seen.end()) {
        seen.push_back(s);
        sets.push_back(std::move(s));
      }
    };
    const std::vector<BddCube> cubes = mgr.isop(H);
    for (const BddCube& cube : cubes) {
      if (sets.size() >= effMaxPointSets_ * 4) break;
      // All pin indices consistent with the cube's t_i literals, per point.
      std::vector<std::vector<std::size_t>> consistent(
          static_cast<std::size_t>(m));
      bool ok = true;
      for (int i = 0; i < m && ok; ++i) {
        const auto& tv = tVars[static_cast<std::size_t>(i)];
        for (std::size_t j = 0; j < M; ++j) {
          bool fits = true;
          for (std::uint32_t b = 0; b < tb && fits; ++b) {
            const std::int8_t lit = cube.lits[tv[b]];
            const bool bit = (j >> (tb - 1 - b)) & 1;  // big-endian v^j
            if (lit >= 0 && lit != static_cast<std::int8_t>(bit)) fits = false;
          }
          if (fits) consistent[static_cast<std::size_t>(i)].push_back(j);
        }
        ok = !consistent[static_cast<std::size_t>(i)].empty();
      }
      if (!ok) continue;
      // A cube with don't-care selector bits denotes the cross product of
      // its per-position consistent pin lists; sample it (bounded) so H's
      // solution space is actually covered - e.g. the Figure-1 pair
      // (v0 pin, v1 pin) lives in one cube next to many weaker pairs.
      // For m >= 2 the output pin never combines (topological constraint),
      // so drop it from the lists up front.
      if (m >= 2) {
        bool dead = false;
        for (auto& list : consistent) {
          std::erase_if(list,
                        [&](std::size_t j) { return pins[j].isOutputPin(); });
          dead |= list.empty();
        }
        if (dead) continue;  // this cube only covered output-pin tuples
      }
      // Base tuple plus random samples of the cross product.
      std::vector<std::size_t> s;
      for (int i = 0; i < m; ++i)
        s.push_back(consistent[static_cast<std::size_t>(i)][0]);
      addSet(std::move(s));
      for (std::size_t draw = 0; draw < 15; ++draw) {
        if (sets.size() >= effMaxPointSets_ * 4) break;
        std::vector<std::size_t> t;
        for (int i = 0; i < m; ++i)
          t.push_back(rng_.pick(consistent[static_cast<std::size_t>(i)]));
        addSet(std::move(t));
      }
    }
    // Prefer smaller sets, then higher total observability.
    std::stable_sort(sets.begin(), sets.end(),
                     [&](const auto& a, const auto& b) {
                       if (a.size() != b.size()) return a.size() < b.size();
                       std::size_t sa = 0, sb = 0;
                       for (auto i : a) sa += pins[i].score;
                       for (auto i : b) sb += pins[i].score;
                       return sa > sb;
                     });
    if (sets.size() > effMaxPointSets_) sets.resize(effMaxPointSets_);
    return sets;
  }

  // --- Candidate rewiring nets (§4.3) --------------------------------------

  std::vector<NetCandidate> candidateNets(
      const PinCandidate& pin, const Simulator& wSim, const Simulator& sSim,
      const std::vector<std::uint64_t>& errMask,
      const std::vector<std::uint64_t>& correctMask,
      const SupportTable& wSupports,
      const std::vector<std::uint64_t>& specOutMask,
      const std::vector<std::uint32_t>& wLevels,
      const std::vector<std::uint32_t>& specLevels,
      const std::vector<NetId>& specCone, std::uint32_t o) {
    Netlist& w = working();
    const Signature& pinSig = wSim.value(pin.driver);

    // §4.3 rectification utility: differing on error samples helps,
    // differing on already-correct samples risks breaking them - but only
    // where this point is observable at all. (The paper's heuristic uses
    // only the error-domain ratio; Xi(c) still decides exactly.)
    auto agreementOf = [&](const Signature& candSig) {
      std::ptrdiff_t key = 0;
      for (std::size_t wd = 0; wd < errMask.size(); ++wd) {
        const std::uint64_t obsF =
            pin.obsFullMask.empty() ? ~0ULL : pin.obsFullMask[wd];
        const std::uint64_t diff = pinSig[wd] ^ candSig[wd];
        key += std::popcount(diff & errMask[wd]);
        key -= 2 * std::popcount(diff & correctMask[wd] & obsF);
      }
      return key;
    };

    std::vector<NetCandidate> ranked;

    // Rewiring a pin of gate g to net s is acyclic iff s is not in TFO(g).
    std::unordered_set<NetId> forbidden;
    for (const Sink& s : pin.sinks) {
      if (s.isOutput()) continue;
      for (NetId n : reachableNets(w, w.gate(s.gate).out)) forbidden.insert(n);
    }

    // Candidates from the current implementation. Nets created after the
    // attempt's support/signature snapshot (rolled-back clone fragments)
    // are not considered.
    const NetId scanLimit = static_cast<NetId>(
        std::min<std::size_t>(w.numNetsTotal(),
                              std::min(wSupports.numNets(),
                                       wSim.numNetsSimulated())));
    for (NetId n = 0; n < scanLimit; ++n) {
      const auto& net = w.net(n);
      const bool liveDriven =
          net.srcKind == Netlist::SourceKind::Input ||
          (net.srcKind == Netlist::SourceKind::Gate &&
           !w.gate(net.srcIdx).dead);
      if (!liveDriven || n == pin.driver) continue;
      if (forbidden.count(n)) continue;
      // Structural filter: the revised output's input dependence must
      // contain the candidate's transitive fanins.
      if (!wSupports.subsetOf(n, specOutMask)) continue;
      // Signatures are filled in only for survivors (copying one per net
      // over the whole netlist would dominate the attempt's cost).
      ranked.push_back(NetCandidate{n, false, wLevels[n], 0,
                                    agreementOf(wSim.value(n)), {}});
    }
    // Candidates from the synthesized specification's cone. Reusing a spec
    // net means instantiating its clone, so its approximate cone size
    // participates in the ranking: small revision logic (the injected delta
    // region) beats wholesale cone copies of equal utility.
    for (NetId n : specCone) {
      ranked.push_back(NetCandidate{n, true, specLevels[n], cloneCostDp_[n],
                                    agreementOf(sSim.value(n)), {}});
    }

    if (opt_.useUtilityHeuristic) {
      auto rankKey = [&](const NetCandidate& c) {
        return static_cast<double>(c.rankScore) -
               0.02 * static_cast<double>(std::min<std::uint32_t>(
                          c.cloneCost, 500));
      };
      std::stable_sort(ranked.begin(), ranked.end(),
                       [&](const NetCandidate& a, const NetCandidate& b) {
                         const double ka = rankKey(a), kb = rankKey(b);
                         if (opt_.levelDriven && std::abs(ka - kb) < 1e-9)
                           return a.level < b.level;
                         return ka > kb;
                       });
    } else {
      Rng shuffler = rng_.split();
      shuffler.shuffle(ranked);
    }
    if (ranked.size() > opt_.maxRewireNets + 12)
      ranked.resize(opt_.maxRewireNets + 12);  // margin for synthesis basis
    for (NetCandidate& c : ranked)
      c.sig = c.fromSpec ? sSim.value(c.net) : wSim.value(c.net);

    // Rectification function synthesis (extension of the paper's "future
    // work ... rectification logic synthesis"): when no existing net
    // realizes the needed function, try small algebraic combinations of
    // the strongest existing candidates against the pin's *required*
    // sampled function (flip where the errors are observable, hold
    // elsewhere). Hits are materialized as fresh W gates and compete as
    // ordinary candidates with a 1-2 gate cost.
    if (opt_.synthesizeFunctions && !pin.obsMask.empty()) {
      // Required function of this point: flip where the errors are
      // observable, hold where correct values are observable; samples the
      // point cannot influence are don't-cares.
      Signature required = pinSig;
      for (std::size_t wd = 0; wd < required.size(); ++wd)
        required[wd] ^= errMask[wd] & pin.obsMask[wd];
      std::vector<std::uint64_t> careMask(errMask.size());
      for (std::size_t wd = 0; wd < careMask.size(); ++wd)
        careMask[wd] = (errMask[wd] | correctMask[wd]) &
                       (pin.obsFullMask.empty() ? ~0ULL
                                                : pin.obsFullMask[wd]);
      auto matchesRequired = [&](const Signature& s) {
        for (std::size_t wd = 0; wd < required.size(); ++wd)
          if ((s[wd] ^ required[wd]) & careMask[wd]) return false;
        return true;
      };
      // Synthesis is pointless only when a *free* exact realization
      // already exists (an existing net); a matching spec net still costs
      // its clone, which a 1-2 gate synthesized function may undercut.
      bool haveFreeExact = false;
      for (const NetCandidate& c : ranked)
        haveFreeExact |= c.cloneCost == 0 && matchesRequired(c.sig);
      if (!haveFreeExact) {
        std::vector<NetCandidate> synth =
            synthesizeCandidates(pin, pinSig, ranked, required, careMask,
                                 forbidden, wLevels, scanLimit);
        for (NetCandidate& c : synth) {
          c.rankScore = agreementOf(c.sig);
          // Synthesized exact matches outrank everything; put them first.
          ranked.insert(ranked.begin(), std::move(c));
        }
      }
    }

    std::vector<NetCandidate> out;
    // Index 0 is the trivial candidate: the pin keeps its driver (needed
    // because H(t) may over-approximate the number of points, §5.2).
    if (opt_.includeTrivialCandidate) {
      out.push_back(
          NetCandidate{pin.driver, false, wLevels[pin.driver], 0, 0, pinSig});
    }
    for (const NetCandidate& c : ranked) {
      if (out.size() >= opt_.maxRewireNets) break;
      out.push_back(c);
    }
    (void)o;
    return out;
  }

  /// Tries small algebraic combinations (inversion, two-operand AND / OR /
  /// XOR with optional input negations) of the strongest candidates
  /// against the required sampled function; matches are materialized as
  /// fresh gates in W and returned as candidates. Implements the
  /// rectification-logic-synthesis direction of the paper's conclusions.
  std::vector<NetCandidate> synthesizeCandidates(
      const PinCandidate& pin, const Signature& pinSig,
      const std::vector<NetCandidate>& ranked, const Signature& required,
      const std::vector<std::uint64_t>& careMask,
      const std::unordered_set<NetId>& forbidden,
      const std::vector<std::uint32_t>& wLevels, NetId scanLimit) {
    Netlist& w = working();
    // Basis: the pin's own driver (added-condition revisions are
    // "driver AND c" shaped) plus the best-ranked existing nets.
    struct Basis {
      NetId net;
      const Signature* sig;
      std::uint32_t level;
    };
    std::vector<Basis> basis;
    if (!forbidden.count(pin.driver) && pin.driver < scanLimit)
      basis.push_back(Basis{pin.driver, &pinSig, wLevels[pin.driver]});
    std::vector<std::size_t> order(ranked.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return ranked[a].rankScore > ranked[b].rankScore;
                     });
    for (std::size_t k = 0; k < order.size() && basis.size() < 11; ++k) {
      const NetCandidate& c = ranked[order[k]];
      if (c.fromSpec) continue;  // keep synthesis over existing W logic
      basis.push_back(Basis{c.net, &c.sig, c.level});
    }

    auto matches = [&](const Signature& s) {
      for (std::size_t wd = 0; wd < required.size(); ++wd)
        if ((s[wd] ^ required[wd]) & careMask[wd]) return false;
      return true;
    };

    std::vector<NetCandidate> hits;
    const std::size_t words = required.size();
    Signature tmp(words, 0);
    auto emit = [&](NetId net, const Signature& sig, std::uint32_t level,
                    std::uint32_t gates) {
      NetCandidate c;
      c.net = net;
      c.fromSpec = false;
      c.level = level;
      c.cloneCost = gates;
      c.sig = sig;
      hits.push_back(std::move(c));
    };

    // Unary: complement of a basis net.
    for (const Basis& a : basis) {
      if (hits.size() >= 3) break;
      if (!a.sig) continue;
      for (std::size_t wd = 0; wd < words; ++wd) tmp[wd] = ~(*a.sig)[wd];
      if (matches(tmp)) {
        const NetId g = w.addGate(GateType::Not, {a.net});
        emit(g, tmp, a.level + 1, 1);
      }
    }
    // Binary combinations with optional input negation.
    struct Op {
      GateType type;
      bool negA;
      bool negB;
    };
    static constexpr Op kOps[] = {
        {GateType::And, false, false},  {GateType::Or, false, false},
        {GateType::Xor, false, false},  {GateType::Nand, false, false},
        {GateType::Nor, false, false},  {GateType::Xnor, false, false},
        {GateType::And, true, false},   {GateType::And, false, true},
        {GateType::Or, true, false},    {GateType::Or, false, true},
    };
    for (std::size_t i = 0; i < basis.size() && hits.size() < 3; ++i) {
      for (std::size_t j = i + 1; j < basis.size() && hits.size() < 3; ++j) {
        const Basis& a = basis[i];
        const Basis& b = basis[j];
        if (!a.sig || !b.sig) continue;
        for (const Op& op : kOps) {
          for (std::size_t wd = 0; wd < words; ++wd) {
            const std::uint64_t va =
                op.negA ? ~(*a.sig)[wd] : (*a.sig)[wd];
            const std::uint64_t vb =
                op.negB ? ~(*b.sig)[wd] : (*b.sig)[wd];
            const std::uint64_t ops[2] = {va, vb};
            tmp[wd] = evalGateWord(op.type, ops, 2);
          }
          if (!matches(tmp)) continue;
          NetId na = a.net, nb = b.net;
          std::uint32_t gates = 1;
          if (op.negA) {
            na = w.addGate(GateType::Not, {na});
            ++gates;
          }
          if (op.negB) {
            nb = w.addGate(GateType::Not, {nb});
            ++gates;
          }
          emit(w.addGate(op.type, {na, nb}), tmp,
               std::max(a.level, b.level) + 2, gates);
          break;  // one op per pair suffices
        }
      }
    }
    return hits;
  }

  std::vector<std::uint64_t> specOutSupportMaskInW(std::uint32_t op,
                                                   std::size_t words) {
    Netlist& w = working();
    std::vector<std::uint64_t> mask(words, 0);
    for (std::uint32_t pi : specAnalysis_->outputSupport(op)) {
      const std::uint32_t iw = w.findInput(spec_.inputName(pi));
      if (iw != kNullId) mask[iw / 64] |= (std::uint64_t{1} << (iw % 64));
    }
    return mask;
  }

  /// Match-aware clone of a spec net into W. The cloner persists across
  /// attempts, outputs and fallbacks: rollbacks restore pre-existing pins
  /// and output re-drives change no internal function, so its signatures,
  /// encodings, caches and pinned equivalences stay valid. Only a
  /// *successful interior rewire* invalidates it (tryChoice resets it).
  NetId matchedClone(NetId specNet) {
    if (!cloner_) {
      MatcherOptions mopts;
      // Confirmations are per-net and plentiful; keep each one cheap. A
      // budget trip means "clone instead of reuse" - sweeping recovers
      // most of the loss at a fraction of the SAT cost.
      mopts.confirmBudget = 4000;
      Rng matchRng = rng_.split();
      cloner_ = std::make_unique<MatchedSpecCloner>(tracker(), spec_, mopts,
                                                    matchRng);
    }
    return cloner_->clone(specNet);
  }

  // --- Rewiring choices via Xi(c) (§4.4, Theorem 1) -------------------------

  std::vector<RewireChoice> computeChoices(
      std::uint32_t o, std::uint32_t op, const SampleSet& samples,
      const Simulator& wSim, const Simulator& sSim,
      const std::vector<PinCandidate>& pins,
      const std::vector<std::size_t>& ps,
      const std::vector<std::vector<NetCandidate>>& cands,
      const std::vector<GateId>& cone) {
    const std::uint32_t nz = samples.numZVars();
    const std::size_t m = ps.size();
    std::vector<std::uint32_t> cBits(m);
    std::uint32_t totalC = 0;
    for (std::size_t i = 0; i < m; ++i) {
      std::uint32_t b = 0;
      while ((std::size_t{1} << b) < cands[i].size()) ++b;
      cBits[i] = std::max<std::uint32_t>(b, 1);
      totalC += cBits[i];
    }
    const std::uint32_t numVars =
        nz + static_cast<std::uint32_t>(m) + totalC;
    Bdd mgr(numVars, samplingBddConfig());
    mgr.setResourceGuard(activeGuard_);

    std::vector<std::uint32_t> zVars(nz);
    for (std::uint32_t i = 0; i < nz; ++i) zVars[i] = i;
    std::vector<std::uint32_t> yVars(m);
    for (std::size_t i = 0; i < m; ++i)
      yVars[i] = nz + static_cast<std::uint32_t>(i);
    std::vector<std::vector<std::uint32_t>> cVars(m);
    std::uint32_t next = nz + static_cast<std::uint32_t>(m);
    for (std::size_t i = 0; i < m; ++i)
      for (std::uint32_t b = 0; b < cBits[i]; ++b) cVars[i].push_back(next++);

    SymbolicCone sc;
    sc.mgr = &mgr;
    sc.sim = &wSim;
    sc.zVars = zVars;

    // Composition function h(z, y): the selected pins become free inputs.
    auto wrap = [&](Bdd::Ref /*base*/, std::size_t i) {
      return mgr.var(yVars[i]);
    };
    const Bdd::Ref h = evalOutput(sc, o, cone, pins, ps, wrap);
    const Bdd::Ref fPrime =
        mgr.fromTruthTable(sSim.value(spec_.outputNet(op)), zVars);

    // R(z, y, c) = AND_i AND_j (c_i = j  ->  y_i == r_ij(z)).
    Bdd::Ref R = Bdd::kTrue;
    Bdd::Ref validC = Bdd::kTrue;
    for (std::size_t i = 0; i < m; ++i) {
      Bdd::Ref anyC = Bdd::kFalse;
      for (std::size_t j = 0; j < cands[i].size(); ++j) {
        const Bdd::Ref cij =
            mgr.mintermOf(static_cast<std::uint32_t>(j), cVars[i]);
        anyC = mgr.bOr(anyC, cij);
        // Each candidate carries its own sampled function (spec nets,
        // W nets and synthesized functions alike).
        const Bdd::Ref rij = mgr.fromTruthTable(cands[i][j].sig, zVars);
        R = mgr.bAnd(R,
                     mgr.bImp(cij, mgr.bXnor(mgr.var(yVars[i]), rij)));
      }
      validC = mgr.bAnd(validC, anyC);
    }

    // Theorem 1: Xi(c) = forall z,y ((L -> h) AND (h -> U)).
    const Bdd::Ref L = mgr.bAnd(fPrime, R);
    const Bdd::Ref U = mgr.bOr(fPrime, mgr.bNot(R));
    const Bdd::Ref F = mgr.bAnd(mgr.bImp(L, h), mgr.bImp(h, U));
    std::vector<std::uint32_t> zy = zVars;
    zy.insert(zy.end(), yVars.begin(), yVars.end());
    Bdd::Ref Xi = mgr.bAnd(mgr.forall(F, zy), validC);

    // Enumerate concrete rewire operations, cheapest first.
    std::vector<RewireChoice> choices;
    Bdd::Ref rem = Xi;
    for (std::size_t round = 0;
         round < opt_.maxChoices * 2 && rem != Bdd::kFalse; ++round) {
      BddCube cube;
      if (!mgr.pickCube(rem, cube)) break;
      RewireChoice choice;
      choice.pick.resize(m);
      bool ok = true;
      Bdd::Ref assignment = Bdd::kTrue;
      for (std::size_t i = 0; i < m && ok; ++i) {
        const std::size_t K = cands[i].size();
        std::size_t chosen = K;
        for (std::size_t j = 0; j < K; ++j) {
          bool fits = true;
          for (std::uint32_t b = 0; b < cBits[i] && fits; ++b) {
            const std::int8_t lit = cube.lits[cVars[i][b]];
            const bool bit = (j >> (cBits[i] - 1 - b)) & 1;
            if (lit >= 0 && lit != static_cast<std::int8_t>(bit)) fits = false;
          }
          if (fits) {
            chosen = j;
            break;
          }
        }
        if (chosen == K) {
          ok = false;
          break;
        }
        choice.pick[i] = chosen;
        assignment = mgr.bAnd(
            assignment,
            mgr.mintermOf(static_cast<std::uint32_t>(chosen), cVars[i]));
      }
      rem = mgr.bAnd(rem, mgr.bNot(assignment));
      if (!ok) continue;
      // Cost: non-trivial picks, spec clones, and (optionally) depth.
      for (std::size_t i = 0; i < m; ++i) {
        const NetCandidate& c = cands[i][choice.pick[i]];
        const bool trivial =
            opt_.includeTrivialCandidate && choice.pick[i] == 0;
        if (!trivial) {
          // Expected patch growth: rewiring an existing W net is nearly
          // free; cloning spec logic costs its unmatched region, and a
          // synthesized function costs its fresh gates.
          choice.cost += 0.3 + static_cast<double>(c.cloneCost) / 6.0;
          choice.tieLevel += pins[ps[i]].driverLevel;
          if (opt_.levelDriven) {
            // Level-driven selection (Table 3): penalize rewiring nets that
            // arrive later than the pin's current driver - that rise
            // propagates down every path through the pin.
            const double rise = static_cast<double>(c.level) -
                                static_cast<double>(pins[ps[i]].driverLevel);
            if (rise > 0) choice.cost += rise * 0.3;
          }
        }
      }
      if (choice.cost == 0.0) continue;  // all-trivial cannot rectify
      choices.push_back(std::move(choice));
    }
    std::stable_sort(choices.begin(), choices.end(),
                     [](const RewireChoice& a, const RewireChoice& b) {
                       return a.cost < b.cost;
                     });
    if (choices.size() > opt_.maxChoices) choices.resize(opt_.maxChoices);
    (void)op;
    return choices;
  }

  // --- Application + validation (the CEGAR step, §5.2 step 5) --------------

  bool tryChoice(std::uint32_t o, std::uint32_t /*op*/,
                 const SimScreen& screen,
                 const std::vector<PinCandidate>& pins,
                 const std::vector<std::size_t>& ps,
                 const std::vector<std::vector<NetCandidate>>& cands,
                 const RewireChoice& choice, AttemptOutcome& outcome) {
    Netlist& w = working();
    const std::size_t mark = tracker().mark();
    std::vector<Sink> rewiredPins;
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const NetCandidate& c = cands[i][choice.pick[i]];
      const bool trivial = opt_.includeTrivialCandidate && choice.pick[i] == 0;
      if (trivial) continue;
      const NetId target = c.fromSpec ? matchedClone(c.net) : c.net;
      for (const Sink& s : pins[ps[i]].sinks) {
        tracker().rewire(s, target);
        rewiredPins.push_back(s);
      }
    }
    if (rewiredPins.empty()) {
      tracker().rollback(mark);
      return false;
    }
    std::string why;
    if (!w.isWellFormed(&why)) {
      // A spec clone re-converged onto a rewired pin; reject this choice.
      tracker().rollback(mark);
      return false;
    }

    // Global quick screen: on the samples plus the random screen block, the
    // failing output must now match and no healthy output may break. This
    // kills most sampling-domain false positives without touching SAT; the
    // pattern that refuted the candidate feeds the refinement loop.
    Timer screenPhase;
    InputPattern screenCex;
    const bool screenOk =
        quickSimScreen(o, screen, rewiredPins, &screenCex);
    diag_.secondsScreening += screenPhase.seconds();
    if (!screenOk) {
      ++diag_.candidatesScreenRejected;
      if (opt_.verbose) std::fprintf(stderr, "[syseco]     screen reject\n");
      if (!screenCex.empty() && outcome.screenCounterexamples.size() < 8)
        outcome.screenCounterexamples.push_back(std::move(screenCex));
      tracker().rollback(mark);
      return false;
    }
    if (opt_.verbose)
      std::fprintf(stderr, "[syseco]     screen pass -> SAT validate\n");

    // A drained governor must not start the expensive SAT validation; the
    // candidate is rejected and the output degrades to the fallback.
    if (activeGuard_ != nullptr &&
        !activeGuard_->checkpoint("syseco.validation").isOk()) {
      outcome.limit = activeGuard_->trippedCode();
      tracker().rollback(mark);
      return false;
    }

    // Exact validation of every output the rewired pins can reach.
    Timer validatePhase;
    ++diag_.candidatesValidated;
    const std::vector<std::uint32_t> affected = affectedOutputs(rewiredPins, o);
    PairEncoding pe(w, spec_);
    pe.setResourceGuard(activeGuard_);
    for (std::uint32_t ao : affected) {
      const std::uint32_t aop = specOutput(ao);
      if (aop == kNullId) continue;
      const Solver::Result r =
          pe.solveDiffSwept(ao, aop, opt_.validationBudget, rng_);
      if (r == Solver::Result::Unsat) continue;
      if (r == Solver::Result::Sat) {
        outcome.counterexamples.push_back(pe.extractInputs(&rng_));
        ++diag_.candidatesRefuted;
      }
      tracker().rollback(mark);
      diag_.secondsValidation += validatePhase.seconds();
      return false;
    }
    diag_.secondsValidation += validatePhase.seconds();
    cloner_.reset();  // interior pins changed: matcher is stale
    return true;
  }

  /// Incremental screen: re-simulates only the choice's affected region
  /// (new clone/synthesis gates plus the forward closure of the rewired
  /// pins) against the cached base values, then compares the affected
  /// outputs with the spec. Exact, and orders of magnitude cheaper than a
  /// full-netlist pass per candidate.
  bool quickSimScreen(std::uint32_t o, const SimScreen& screen,
                      const std::vector<Sink>& rewiredPins,
                      InputPattern* failingPattern) {
    Netlist& w = working();
    const std::size_t words = screen.patterns.simWords();
    std::unordered_map<NetId, Signature> changed;

    // Affected gate subset: producers of every new net backing the rewires
    // (clone cones, synthesized functions) + forward closure of the pins.
    std::unordered_set<GateId> subset;
    {
      // Closure rule: every subset gate pulls in (a) the producers of its
      // new-net fanins (so clone/synthesis values exist, including leftover
      // fragments from rolled-back choices that are still connected) and
      // (b) its fanout gates (so changed values propagate). Seeds are the
      // new driver nets and the rewired sink gates.
      std::vector<GateId> work;
      auto addGate = [&](GateId g) {
        if (subset.insert(g).second) work.push_back(g);
      };
      for (const Sink& s : rewiredPins) {
        const NetId target = s.isOutput() ? w.outputNet(s.port)
                                          : w.gate(s.gate).fanins[s.port];
        if (target >= screen.baseNets) {
          const GateId d = w.driverOf(target);
          SYSECO_CHECK(d != kNullId);  // new nets are always gate outputs
          addGate(d);
        }
        if (!s.isOutput()) addGate(s.gate);
      }
      while (!work.empty()) {
        const GateId g = work.back();
        work.pop_back();
        for (NetId f : w.gate(g).fanins) {
          if (f >= screen.baseNets) {
            const GateId d = w.driverOf(f);
            SYSECO_CHECK(d != kNullId);
            addGate(d);
          }
        }
        for (const Sink& snk : w.net(w.gate(g).out).sinks) {
          if (!snk.isOutput()) addGate(snk.gate);
        }
      }
    }

    // Local topological order (Kahn restricted to the subset).
    std::vector<GateId> order;
    {
      std::unordered_map<GateId, std::uint32_t> pending;
      std::vector<GateId> ready;
      for (GateId g : subset) {
        std::uint32_t deps = 0;
        for (NetId f : w.gate(g).fanins) {
          const GateId d = w.driverOf(f);
          if (d != kNullId && subset.count(d)) ++deps;
        }
        pending[g] = deps;
        if (deps == 0) ready.push_back(g);
      }
      while (!ready.empty()) {
        const GateId g = ready.back();
        ready.pop_back();
        order.push_back(g);
        for (const Sink& snk : w.net(w.gate(g).out).sinks) {
          if (snk.isOutput() || !subset.count(snk.gate)) continue;
          if (--pending[snk.gate] == 0) ready.push_back(snk.gate);
        }
      }
      SYSECO_CHECK(order.size() == subset.size());
    }

    auto valueOf = [&](NetId n) -> const Signature& {
      if (const auto it = changed.find(n); it != changed.end())
        return it->second;
      SYSECO_CHECK(n < screen.baseNets);
      return screen.base->value(n);
    };
    std::vector<std::uint64_t> fanins(8);
    for (GateId g : order) {
      const auto& gate = w.gate(g);
      if (fanins.size() < gate.fanins.size())
        fanins.resize(gate.fanins.size());
      Signature out(words, 0);
      for (std::size_t wd = 0; wd < words; ++wd) {
        for (std::size_t i = 0; i < gate.fanins.size(); ++i)
          fanins[i] = valueOf(gate.fanins[i])[wd];
        out[wd] = evalGateWord(gate.type, fanins.data(), gate.fanins.size());
      }
      changed[gate.out] = std::move(out);
    }

    auto firstMismatch =
        [&](const std::vector<std::uint64_t>& mask) -> bool {
      const std::size_t k = [&] {
        for (std::size_t wd = 0; wd < mask.size(); ++wd)
          if (mask[wd] != 0)
            return wd * 64 +
                   static_cast<std::size_t>(std::countr_zero(mask[wd]));
        return std::size_t{0};
      }();
      if (failingPattern && k < screen.patterns.count())
        *failingPattern = screen.patterns.patterns()[k];
      return false;
    };

    // Only affected outputs can change; unaffected healthy outputs stay
    // proven-correct from the base state. The target output is affected by
    // construction (its cone contains the rewired pins).
    for (std::uint32_t oo = 0; oo < w.numOutputs(); ++oo) {
      const NetId on = w.outputNet(oo);
      const bool affected = changed.count(on) || on >= screen.baseNets;
      if (!affected) {
        // An unaffected target output would mean the rewire cannot have
        // fixed anything; reject defensively.
        if (oo == o) return false;
        continue;
      }
      if (oo != o && failingSet_.count(oo)) continue;  // still-broken peer
      if (screen.specOut[oo].empty()) continue;
      const auto mask =
          errorMask(valueOf(on), screen.specOut[oo], screen.patterns);
      if (countBits(mask) != 0) return firstMismatch(mask);
    }
    return true;
  }

  std::vector<std::uint32_t> affectedOutputs(const std::vector<Sink>& pins,
                                             std::uint32_t o) {
    Netlist& w = working();
    std::unordered_set<std::uint32_t> outs{o};
    for (const Sink& s : pins) {
      if (s.isOutput()) {
        outs.insert(s.port);
        continue;
      }
      std::unordered_set<GateId> seenGate;
      std::vector<NetId> stack{w.gate(s.gate).out};
      while (!stack.empty()) {
        const NetId n = stack.back();
        stack.pop_back();
        for (const Sink& snk : w.net(n).sinks) {
          if (snk.isOutput()) {
            outs.insert(snk.port);
          } else if (seenGate.insert(snk.gate).second) {
            stack.push_back(w.gate(snk.gate).out);
          }
        }
      }
    }
    std::vector<std::uint32_t> result(outs.begin(), outs.end());
    std::sort(result.begin(), result.end());
    // Validate the target output first: it is the most likely refuter.
    auto it = std::find(result.begin(), result.end(), o);
    if (it != result.end()) std::iter_swap(result.begin(), it);
    return result;
  }

  // --- Patch-input refinement through sweeping (§5.2) -----------------------

  void sweepPatch() {
    Netlist& w = working();
    // History-free randomness, mirroring the per-output reseeds: the sweep
    // must behave identically whether the run was uninterrupted or resumed.
    rng_.reseed(opt_.seed ^ 0x51eeb5feed5ULL);
    w.sweepDeadLogic();
    constexpr std::size_t kWords = 32;  // 2048 patterns
    Simulator sim(w, kWords);
    sim.randomizeInputs(rng_);
    sim.run();

    // Signature index over every live net: patch gates merge into
    // pre-existing logic when possible (the §5.2 reuse sweep), and into
    // earlier patch logic otherwise (cross-output patch sharing).
    std::unordered_map<std::uint64_t, std::vector<NetId>> bySig;
    auto hashSig = [](const Signature& s) {
      std::uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (std::uint64_t x : s) h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6);
      return h;
    };
    for (NetId n = 0; n < w.numNetsTotal(); ++n) {
      const auto& net = w.net(n);
      const bool liveDriven =
          net.srcKind == Netlist::SourceKind::Input ||
          (net.srcKind == Netlist::SourceKind::Gate &&
           !w.gate(net.srcIdx).dead);
      if (!liveDriven) continue;
      bySig[hashSig(sim.value(n))].push_back(n);
    }
    // Prefer absorbing into pre-existing nets.
    for (auto& [hash, nets] : bySig) {
      (void)hash;
      std::stable_sort(nets.begin(), nets.end(), [&](NetId a, NetId b) {
        return tracker().isOriginalNet(a) > tracker().isOriginalNet(b);
      });
    }

    const std::vector<std::uint32_t> sweepLevels =
        opt_.levelDriven ? w.netLevels() : std::vector<std::uint32_t>{};
    for (GateId g : w.topoOrder()) {
      const auto& gate = w.gate(g);
      const NetId added = gate.out;
      if (tracker().isOriginalNet(added) || gate.dead) continue;
      if (w.net(added).sinks.empty()) continue;
      const auto it = bySig.find(hashSig(sim.value(added)));
      if (it == bySig.end()) continue;
      for (NetId orig : it->second) {
        if (orig == added) continue;
        // In timing mode, never trade depth for area.
        if (opt_.levelDriven && sweepLevels[orig] > sweepLevels[added])
          continue;
        // Never merge into a net that has already been swept empty.
        if (!tracker().isOriginalNet(orig) && w.net(orig).sinks.empty())
          continue;
        if (sim.value(orig) != sim.value(added)) continue;
        // Cycle safety: the original net must not depend on the added one.
        if (reachableNets(w, added).count(orig)) continue;
        if (checkNetsEquiv(w, added, orig, false, opt_.validationBudget) !=
            Solver::Result::Unsat)
          continue;
        const std::vector<Sink> sinks = w.net(added).sinks;  // copy
        for (const Sink& s : sinks) tracker().rewire(s, orig);
        ++diag_.sweepMerges;
        break;
      }
    }
    isopMinimizeCones();
    w.sweepDeadLogic();
  }

  // --- ISOP patch minimization ----------------------------------------------
  // Rewrites multi-level added patch cones as irredundant two-level AND-OR
  // covers (Minato-Morreale, the same isop primitive that seeds §4.2's
  // prime cubes) when the cover is strictly smaller. Rewire-based patches
  // accrete shape from whichever candidates validated first; the exact
  // cover forgets that history. Every rewrite is SAT-confirmed before the
  // sinks move, so this changes patch *shape*, never function.

  void isopMinimizeCones() {
    Netlist& w = working();
    constexpr std::size_t kMaxLeaves = 12;    // BDD stays trivially small
    constexpr std::size_t kMaxConeGates = 64;

    // Boundary roots: added nets feeding original logic or outputs.
    // Snapshot first - the rebuild below adds gates while we iterate. The
    // topo index doubles as the fanin-first evaluation order inside each
    // cone (DFS preorder reversed is NOT topological under reconvergence).
    std::vector<NetId> roots;
    std::unordered_map<GateId, std::size_t> topoIdx;
    for (GateId g : w.topoOrder()) {
      topoIdx.emplace(g, topoIdx.size());
      const auto& gate = w.gate(g);
      if (gate.dead || tracker().isOriginalNet(gate.out)) continue;
      bool boundary = false;
      for (const Sink& s : w.net(gate.out).sinks)
        boundary |= s.isOutput() || tracker().isOriginalNet(w.gate(s.gate).out);
      if (boundary) roots.push_back(gate.out);
    }

    for (NetId root : roots) {
      // Collect the added-gate cone under `root`; leaves are original nets
      // or primary inputs. DFS order then sort gives a deterministic
      // variable order regardless of container layout.
      std::vector<GateId> coneGates;
      std::unordered_set<GateId> coneSet;
      std::vector<NetId> leaves;
      std::unordered_set<NetId> leafSet;
      bool viable = true;
      std::vector<NetId> stack{root};
      std::unordered_set<NetId> visited{root};
      while (!stack.empty() && viable) {
        const NetId n = stack.back();
        stack.pop_back();
        const auto& net = w.net(n);
        const bool original = tracker().isOriginalNet(n) ||
                              net.srcKind == Netlist::SourceKind::Input;
        if (original) {
          if (leafSet.insert(n).second) leaves.push_back(n);
          viable = leaves.size() <= kMaxLeaves;
          continue;
        }
        SYSECO_CHECK(net.srcKind == Netlist::SourceKind::Gate);
        const GateId g = net.srcIdx;
        // Gates added by an earlier rebuild in this loop have no topo
        // index; their cones were already minimal, so skip.
        if (!topoIdx.count(g)) {
          viable = false;
          continue;
        }
        if (!coneSet.insert(g).second) continue;
        coneGates.push_back(g);
        viable = coneGates.size() <= kMaxConeGates;
        for (NetId f : w.gate(g).fanins)
          if (visited.insert(f).second) stack.push_back(f);
      }
      if (!viable || coneGates.size() < 2) continue;
      // The gate-count comparison assumes the whole cone dies with the
      // root; an interior gate with sinks outside the cone survives the
      // rewrite, so skip cones that share logic with the rest of the
      // netlist (the reuse sweep above deliberately creates such shares).
      bool shared = false;
      for (GateId g : coneGates) {
        const NetId out = w.gate(g).out;
        if (out == root) continue;
        for (const Sink& s : w.net(out).sinks)
          shared |= s.isOutput() || !coneSet.count(s.gate);
      }
      if (shared) continue;

      std::sort(leaves.begin(), leaves.end());
      std::unordered_map<NetId, std::uint32_t> varOf;
      for (std::uint32_t v = 0; v < leaves.size(); ++v)
        varOf.emplace(leaves[v], v);

      std::vector<BddCube> cover;
      try {
        // Exact function of the cone. Tiny support, so no reordering and a
        // tight node limit; an overflow just skips this cone.
        BddConfig cfg;
        cfg.nodeLimit = 1u << 16;
        Bdd mgr(static_cast<std::uint32_t>(leaves.size()), cfg);
        std::unordered_map<NetId, Bdd::Ref> val;
        for (auto [net, v] : varOf) val.emplace(net, mgr.var(v));
        // Fanin-first evaluation: sort the cone by global topo index.
        std::sort(coneGates.begin(), coneGates.end(),
                  [&](GateId a, GateId b) {
                    return topoIdx.at(a) < topoIdx.at(b);
                  });
        for (GateId cg : coneGates) {
          const auto& gate = w.gate(cg);
          std::vector<Bdd::Ref> in;
          in.reserve(gate.fanins.size());
          for (NetId f : gate.fanins) in.push_back(val.at(f));
          Bdd::ScopedRef r(mgr, Bdd::kFalse);
          switch (gate.type) {
            case GateType::Const0: r = Bdd::kFalse; break;
            case GateType::Const1: r = Bdd::kTrue; break;
            case GateType::Buf: r = in[0]; break;
            case GateType::Not: r = mgr.bNot(in[0]); break;
            case GateType::And: r = mgr.andMany(in); break;
            case GateType::Nand:
              r = mgr.andMany(in);
              r = mgr.bNot(r);
              break;
            case GateType::Or: r = mgr.orMany(in); break;
            case GateType::Nor:
              r = mgr.orMany(in);
              r = mgr.bNot(r);
              break;
            case GateType::Xor:
            case GateType::Xnor: {
              r = in[0];
              for (std::size_t k = 1; k < in.size(); ++k)
                r = mgr.bXor(r, in[k]);
              if (gate.type == GateType::Xnor) r = mgr.bNot(r);
              break;
            }
            case GateType::Mux: r = mgr.ite(in[0], in[2], in[1]); break;
          }
          val[gate.out] = r;
        }
        cover = mgr.isop(val.at(root));
      } catch (const BddLimitExceeded&) {
        continue;
      }

      // Two-level cost: one shared NOT per negated leaf, one AND per
      // multi-literal cube, one OR to collect. Rebuild only on a strict
      // win (dead-cone removal is the final sweep's job).
      std::unordered_set<std::uint32_t> negated;
      std::size_t ands = 0;
      for (const BddCube& cube : cover) {
        std::size_t lits = 0;
        for (std::uint32_t v = 0; v < leaves.size(); ++v) {
          if (cube.lits[v] < 0) continue;
          ++lits;
          if (cube.lits[v] == 0) negated.insert(v);
        }
        if (lits != 1) ++ands;  // empty cube becomes a Const1 gate
      }
      const std::size_t cost =
          negated.size() + ands + (cover.size() == 1 ? 0 : 1);
      if (cost >= coneGates.size()) continue;

      // Instantiate the cover, mirroring the exact-fix synthesis shape.
      std::unordered_map<std::uint32_t, NetId> invOf;
      std::vector<NetId> terms;
      for (const BddCube& cube : cover) {
        std::vector<NetId> lits;
        for (std::uint32_t v = 0; v < leaves.size(); ++v) {
          if (cube.lits[v] < 0) continue;
          if (cube.lits[v] == 1) {
            lits.push_back(leaves[v]);
          } else {
            auto it = invOf.find(v);
            if (it == invOf.end())
              it = invOf.emplace(v, w.addGate(GateType::Not, {leaves[v]}))
                       .first;
            lits.push_back(it->second);
          }
        }
        if (lits.empty()) {
          terms.push_back(w.addGate(GateType::Const1, {}));
        } else if (lits.size() == 1) {
          terms.push_back(lits[0]);
        } else {
          terms.push_back(w.addGate(GateType::And, lits));
        }
      }
      NetId rebuilt;
      if (terms.empty()) {
        rebuilt = w.addGate(GateType::Const0, {});
      } else if (terms.size() == 1) {
        rebuilt = terms[0];
      } else {
        rebuilt = w.addGate(GateType::Or, terms);
      }
      // The BDD is exact, but confirm anyway before moving sinks: an
      // Unknown (budget) or a latent bug leaves the rebuilt logic dead for
      // the final sweep instead of corrupting the patch.
      if (rebuilt == root ||
          checkNetsEquiv(w, root, rebuilt, false, opt_.validationBudget) !=
              Solver::Result::Unsat)
        continue;
      const std::vector<Sink> sinks = w.net(root).sinks;  // copy
      for (const Sink& s : sinks) tracker().rewire(s, rebuilt);
      ++diag_.isopRewrites;
      diag_.isopGatesSaved += coneGates.size() - cost;
    }
  }

  const Netlist& spec_;
  SysecoOptions opt_;
  SysecoDiagnostics& diag_;
  Rng rng_;
  ResourceGuard rootGuard_;
  EcoResult result_;
  std::optional<PatchTracker> trackerStore_;
  PatchTracker* tracker_ = nullptr;
  // Immutable shared structural analyses: the canonical engine owns them;
  // worker engines borrow pointers (computeTask).
  std::unique_ptr<NetlistAnalysis> ownedBaseAnalysis_;
  std::unique_ptr<NetlistAnalysis> ownedSpecAnalysis_;
  const NetlistAnalysis* baseAnalysis_ = nullptr;
  const NetlistAnalysis* specAnalysis_ = nullptr;
  // Gate/net counts of the shared base snapshot (the worker id remap base).
  std::size_t commitBaseGates_ = 0;
  std::size_t commitBaseNets_ = 0;
  std::unordered_set<std::uint32_t> failingSet_;
  std::vector<std::uint32_t> cloneCostDp_;
  std::unique_ptr<MatchedSpecCloner> cloner_;
  // Resource-governor state for the output currently being rectified.
  ResourceGuard* activeGuard_ = nullptr;
  int degradeSteps_ = 0;
  std::size_t effMaxPointSets_ = 0;
  // Size of the full processing plan: it fixes every output's resource
  // slice and the progress of checkpoint records.
  std::size_t plannedOutputs_ = 0;
};

}  // namespace

Status validateSysecoOptions(const SysecoOptions& o) {
  const auto invalid = [](const std::string& msg) {
    return Status::invalidInput("syseco options: " + msg);
  };
  if (o.numSamples == 0) return invalid("numSamples must be positive");
  if (o.maxPoints <= 0) return invalid("maxPoints must be positive");
  if (o.maxCandidatePins == 0)
    return invalid("maxCandidatePins must be positive");
  if (o.maxRewireNets == 0) return invalid("maxRewireNets must be positive");
  if (o.maxPointSets == 0) return invalid("maxPointSets must be positive");
  if (o.maxChoices == 0) return invalid("maxChoices must be positive");
  if (o.maxRefineIters < 0)
    return invalid("maxRefineIters must be non-negative");
  if (o.jobs == 0 || o.jobs > static_cast<std::size_t>(kMaxCaseJobs))
    return invalid("jobs must be in 1.." + std::to_string(kMaxCaseJobs));
  if (o.validationBudget <= 0)
    return invalid("validationBudget must be positive");
  if (o.samplingBudget <= 0) return invalid("samplingBudget must be positive");
  if (o.bddNodeLimit == 0) return invalid("bddNodeLimit must be positive");
  if (o.deadlineSeconds < 0.0)
    return invalid("deadlineSeconds must be non-negative");
  if (o.totalConflictBudget < 0)
    return invalid("totalConflictBudget must be non-negative");
  if (o.totalBddNodeBudget < 0)
    return invalid("totalBddNodeBudget must be non-negative");
  if (o.isolateMaxAttempts <= 0)
    return invalid("isolateMaxAttempts must be positive");
  if (o.isolateWallSeconds < 0.0)
    return invalid("isolateWallSeconds must be non-negative");
  if (o.isolateCpuSeconds < 0.0)
    return invalid("isolateCpuSeconds must be non-negative");
  if (o.isolateBackoffMs < 0.0)
    return invalid("isolateBackoffMs must be non-negative");
  if (o.oracle.bddNodeBudget == 0)
    return invalid("oracle.bddNodeBudget must be positive");
  if (!o.workers.empty() && o.isolate)
    return invalid("workers and isolate are mutually exclusive transports");
  if (o.fleetLeaseSeconds <= 0.0)
    return invalid("fleetLeaseSeconds must be positive");
  if (o.fleetConnectTimeoutMs <= 0)
    return invalid("fleetConnectTimeoutMs must be positive");
  if (o.fleetMinWorkers <= 0) return invalid("fleetMinWorkers must be positive");
  for (const std::string& spec : o.workers) {
    Result<std::pair<std::string, std::uint16_t>> hp = net::parseHostPort(spec);
    if (!hp.isOk())
      return invalid("bad worker endpoint '" + spec + "': " +
                     hp.status().message());
  }
  return Status::ok();
}

EcoResult runSyseco(const Netlist& impl, const Netlist& spec,
                    const SysecoOptions& options,
                    SysecoDiagnostics* diagnostics) {
  const Status valid = validateSysecoOptions(options);
  if (!valid.isOk()) throw StatusError(valid);
  SysecoDiagnostics local;
  Engine engine(impl, spec, options, diagnostics ? *diagnostics : local);
  return engine.run();
}

Result<EcoResult> runSysecoChecked(const Netlist& impl, const Netlist& spec,
                                   const SysecoOptions& options,
                                   SysecoDiagnostics* diagnostics) {
  const Status valid = validateSysecoOptions(options);
  if (!valid.isOk()) return valid;
  SysecoDiagnostics local;
  Engine engine(impl, spec, options, diagnostics ? *diagnostics : local);
  return engine.run();
}

Result<WorkerPatch> runFleetTask(const Netlist& base, const Netlist& spec,
                                 const SysecoOptions& options,
                                 const ResourceGuard::Limits& limits,
                                 std::uint32_t output,
                                 const std::vector<std::uint32_t>& protect,
                                 const NetlistAnalysis* baseAnalysis,
                                 const NetlistAnalysis* specAnalysis) {
  return Engine::computeTask(base, spec, options, limits, output, protect,
                             baseAnalysis, specAnalysis);
}

}  // namespace syseco
