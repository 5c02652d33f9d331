#include "eco/syseco.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bdd/bdd.hpp"
#include "cnf/encode.hpp"
#include "eco/certify.hpp"
#include "eco/fleet.hpp"
#include "eco/isolate.hpp"
#include "eco/search.hpp"
#include "netlist/analysis.hpp"
#include "util/budget.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/ipc.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/status.hpp"
#include "util/subprocess.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace syseco {

namespace {

/// One run: failing-output detection and the plan, the plan-order
/// supervisor over per-output searches (eco/search.hpp), the patch sweep
/// and the final certification (eco/certify.hpp).
class Engine {
 public:
  Engine(const Netlist& impl, const Netlist& spec,
         const SysecoOptions& options, SysecoDiagnostics& diag)
      : spec_(spec),
        // Structural analyses of the (immutable) specification: computed
        // once and shared read-only by every output and every worker thread.
        specAnalysis_(spec),
        opt_(options),
        diag_(diag),
        rootGuard_(ResourceGuard::Limits{options.deadlineSeconds,
                                         options.totalConflictBudget,
                                         options.totalBddNodeBudget}) {
    result_.rectified = impl;
  }

  EcoResult run() {
    Timer timer;
    const ResumePlan* plan = opt_.resumePlan;
    if (plan)
      tracker_.emplace(result_.rectified, plan->tracker);
    else
      tracker_.emplace(result_.rectified);
    Netlist& w = working();
    // A restored snapshot crossed a serialization boundary; audit it before
    // the search trusts any of its structure.
    if (plan) audit("post-resume-restore");

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
      baseAnalysis_.emplace(plan->base);
    } else {
      // Failing-output detection runs under the governor: outputs it cannot
      // confirm healthy in time are treated as failing, so they end up
      // provably correct via the fallback instead of silently unchecked.
      std::vector<std::uint32_t> unresolved;
      Rng rng(opt_.seed);
      failing =
          findFailingOutputs(w, spec_, rng, -1, &rootGuard_, &unresolved);
      result_.failingOutputsBefore = failing.size();
      failing.insert(failing.end(), unresolved.begin(), unresolved.end());
      failingSet_.insert(failing.begin(), failing.end());

      // Shared structural analyses of the still-unpatched netlist. Also
      // backs the plan ordering below (the cone lists are precomputed).
      baseAnalysis_.emplace(w);

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
      if (opt_.audit == AuditLevel::kParanoid) audit("post-sweep");
    }

    diag_.runLimit = rootGuard_.trippedCode();
    diag_.conflictsUsed = rootGuard_.conflictsUsed();
    diag_.bddNodesUsed = rootGuard_.bddNodesUsed();

    if (!interrupted) {
      result_.stats = tracker().finalize();
      if (opt_.audit == AuditLevel::kParanoid) audit("pre-verify");
      // Final verification is the soundness gate: it always runs unbounded,
      // whatever the governor says - a degraded run still proves its patch.
      Timer verifyPhase;
      certifyRun(result_, tracker(), spec_, opt_, diag_);
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

  /// Audits the working netlist at a phase boundary (see auditBoundary).
  void audit(const char* phase) {
    auditBoundary(working(), opt_, diag_, phase);
  }

  SearchInputs searchInputs() const {
    return SearchInputs{spec_, opt_, *baseAnalysis_, specAnalysis_};
  }

  /// Post-commit bookkeeping: audits the phase boundary, then hands the
  /// checkpoint hook the report just pushed.
  /// Returns false when the hook interrupted the run.
  bool checkpointCommit(const char* auditPhase) {
    audit(auditPhase);
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
    ThreadExecutor(const Engine& eng, const TaskInputs& in, std::size_t slots,
                   std::size_t threads, Report report)
        : eng_(eng),
          in_(in),
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
        out->emplace(runOutputTask(in_, output, limits));
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
        // runOutputTask contains every std::exception; only a foreign
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
    const TaskInputs in_;
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
    ForkedExecutor(const Engine& eng, const TaskInputs& in, std::size_t slots,
                   Report report)
        : eng_(eng),
          opt_(eng.opt_),
          in_(in),
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
          decodeWorkerPatch(frame.value().payload, in_.base);
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
      if (!req.isOk() || req.value().output >= in_.base.numOutputs())
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

      Result<WorkerPatch> patch = runOutputTask(in_, o, slice);
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
    const TaskInputs in_;
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
    FleetExecutor(const Engine& eng, const TaskInputs& in, std::size_t slots,
                  Report report)
        : eng_(eng),
          base_(in.base),
          report_(std::move(report)),
          case_(std::make_shared<const AgentPool::Case>(encodeFleetCase(
              in.base, in.search.spec, in.search.options, in.protect))),
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
  /// netlist, spec, options, output, resource slice) - each OutputSearch
  /// derives its RNG from (seed, output) and the slice is fixed from the
  /// options and the plan - and every commit-time decision is a
  /// deterministic function of the canonical state and the root guard's
  /// ledger, so the patch, reports and journal are bit-identical for
  /// every jobs value and transport (a deadline is the one input that
  /// depends on timing). A failed attempt retries with deterministic
  /// capped backoff; an output that exhausts isolateMaxAttempts is
  /// quarantined to the cone-clone fallback. A fleet that drops below
  /// fleetMinWorkers degrades to the inline in-process executor - slower,
  /// never wrong, never aborted.
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
    const TaskInputs in{base, plan ? plan->order : failing, searchInputs()};

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
      exec = std::make_unique<FleetExecutor>(*this, in, slots.size(), report);
      auditPhase = "post-fleet-decode";
    } else if (opt_.isolate) {
      exec = std::make_unique<ForkedExecutor>(*this, in, slots.size(), report);
      auditPhase = "post-isolate-decode";
    } else {
      exec = std::make_unique<ThreadExecutor>(
          *this, in, slots.size(), opt_.jobs > 1 ? opt_.jobs : 0, report);
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
        exec = std::make_unique<ThreadExecutor>(*this, in, slots.size(), 0,
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
  /// favoring, the same query the search opens with. Only a dirty
  /// canonical netlist can have: on the untouched base every planned
  /// output is failing.
  bool frontierFixed(std::uint32_t o, FrontierCheck& check) {
    const std::uint32_t op = specOutputOf(working(), spec_, o);
    if (op == kNullId || tracker().rewires().empty()) return false;
    return outputAlreadyFixed(working(), spec_, o, op, opt_, check.rng,
                              check.guard, diag_);
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
  /// netlist, under a fresh slice of its own. (Already-fixed outputs never
  /// get here: they commit a no-op at the frontier.) All commit-time
  /// solving continues the frontier check's per-output commit RNG and
  /// root-parented guard, so the decision depends only on (seed, output,
  /// canonical netlist, root ledger) - never on scheduling or on which
  /// executor ran the worker.
  /// Returns true when a report was pushed.
  bool commitWorker(std::uint32_t o, const WorkerPatch& patch,
                    FrontierCheck& check) {
    if (specOutputOf(working(), spec_, o) == kNullId) return false;
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
      const bool reported = OutputSearch(searchInputs(), tracker(),
                                         failingSet_, o, redoGuard, diag_)
                                .run();
      if (reported) {
        failingSet_.erase(o);
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
        for (std::uint32_t ao : affectedOutputs(w, replayedPins, o)) {
          const std::uint32_t aop = specOutputOf(w, spec_, ao);
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
        tracker_.emplace(w, *preState);
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
  /// tripped. Deterministic: the output's own OutputSearch takes the
  /// fallback; it reports kFallback with the non-ok `limit` so the run
  /// surfaces as degraded. The frontier check is charged to its report.
  bool commitFallback(std::uint32_t o, StatusCode limit, int attempts,
                      WorkerExitCause cause, FrontierCheck& check) {
    if (specOutputOf(working(), spec_, o) == kNullId) return false;
    OutputSearch search(searchInputs(), tracker(), failingSet_, o, check.guard,
                        diag_);
    Timer timer;
    search.fallback();
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

  // --- Patch-input refinement through sweeping (§5.2) -----------------------

  void sweepPatch() {
    Netlist& w = working();
    // History-free randomness, like every search's: the sweep must behave
    // identically whether the run was uninterrupted or resumed.
    Rng rng(opt_.seed ^ 0x51eeb5feed5ULL);
    w.sweepDeadLogic();
    constexpr std::size_t kWords = 32;  // 2048 patterns
    Simulator sim(w, kWords);
    sim.randomizeInputs(rng);
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
          val[gate.out] = gateBdd(mgr, gate.type, in);
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
  const NetlistAnalysis specAnalysis_;
  SysecoOptions opt_;
  SysecoDiagnostics& diag_;
  ResourceGuard rootGuard_;
  EcoResult result_;
  /// Over result_.rectified; re-attached when a commit rolls back.
  std::optional<PatchTracker> tracker_;
  /// Of the unpatched base snapshot every task searches; shared read-only
  /// with the tasks, like specAnalysis_.
  std::optional<NetlistAnalysis> baseAnalysis_;
  // Gate/net counts of the shared base snapshot (the worker id remap base).
  std::size_t commitBaseGates_ = 0;
  std::size_t commitBaseNets_ = 0;
  /// Planned outputs not committed yet: a redo's screen skips them.
  std::unordered_set<std::uint32_t> failingSet_;
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

}  // namespace syseco
