#pragma once
// syseco - the paper's rectification engine (symbolic sampling in ECO).
//
// Given the optimized implementation C and the lightly-synthesized revised
// specification C', RewireRectification (paper §5.2) iterates the failing
// output pairs in increasing cone complexity and, per output:
//
//  1. builds a sampling domain from error-domain assignments (§5.1),
//  2. enumerates feasible rectification point-sets through the
//     characteristic function H(t) = forall z exists y (h(z,y,t) == f'(z))
//     over mux-parameterized pin selections (§4.2, Figure 2),
//  3. ranks candidate rewiring nets from both C and C' with the structural
//     filter + error-domain utility heuristic (§4.3),
//  4. computes the characteristic function Xi(c) of all valid rewire
//     operations via Theorem 1's L/U implications (§4.4, Figure 3),
//  5. validates chosen rewires with a resource-constrained SAT solver;
//     counterexamples refine the sampling domain (CEGAR).
//
// Global context: every applied rewire is validated on *all* outputs its
// pins reach, so a candidate that damages already-rectified logic is
// pruned, and a cheap simulation screen favors candidates that fix other
// failing outputs along the way. Trivial candidates (a pin's existing
// driver) are always present, letting H(t) over-approximate m. A final
// sweeping pass merges patch gates with functionally equivalent existing
// nets, and an output is always rectifiable by falling back to rewiring it
// to a clone of its revised cone (completeness, Proposition 1).

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "eco/patch.hpp"
#include "netlist/netlist.hpp"
#include "util/status.hpp"
#include "verify/audit.hpp"
#include "verify/oracle.hpp"

namespace syseco {

struct OutputReport;

/// Snapshot handed to SysecoOptions::checkpointHook after each per-output
/// rectification completes. Everything referenced lives only for the call;
/// a journaling hook serializes what it needs (the working netlist via
/// Netlist::dumpRaw, the tracker via PatchTracker::state).
struct RunCheckpoint {
  const OutputReport& report;                ///< the just-finished output
  const std::vector<OutputReport>& reports;  ///< cumulative, restored included
  const Netlist& working;                    ///< current patched netlist
  const PatchTracker& tracker;               ///< patch accounting so far
  std::size_t completed = 0;  ///< reports so far (restored included)
  std::size_t planned = 0;    ///< outputs in the processing plan
  std::int64_t conflictsUsed = 0;  ///< cumulative run total (restored incl.)
  std::int64_t bddNodesUsed = 0;   ///< cumulative run total (restored incl.)
};

/// State adopted from a validated journal: the engine skips the outputs
/// already proven rectified and re-enters the cascade for the remainder,
/// replaying the journaled processing order (the order was computed against
/// the *unpatched* netlist; re-sorting against the restored one would
/// diverge from the uninterrupted run).
struct ResumePlan {
  std::size_t failingOutputsBefore = 0;
  std::vector<std::uint32_t> order;    ///< journaled processing order
  std::vector<OutputReport> restored;  ///< reports adopted from the journal
  std::int64_t conflictsUsed = 0;      ///< totals at the adopted checkpoint
  std::int64_t bddNodesUsed = 0;
  PatchTracker::State tracker;
  /// The original unpatched implementation (CRC-verified against the
  /// journal). Speculative per-output workers always search from this base
  /// snapshot, so a resumed run reproduces the uninterrupted run's worker
  /// results exactly.
  Netlist base;
};

struct SysecoOptions {
  std::size_t numSamples = 64;       ///< sampling-domain size N
  int maxPoints = 3;                 ///< m: max rectification points per try
  std::size_t maxCandidatePins = 16; ///< M: pins considered per output
  std::size_t maxRewireNets = 16;    ///< K: candidate nets per point
  std::size_t maxPointSets = 8;      ///< point-sets tried per m
  std::size_t maxChoices = 12;       ///< rewire choices tried per point-set
  int maxRefineIters = 6;            ///< CEGAR rounds per output
  std::int64_t validationBudget = 500000;  ///< SAT conflicts per validation
  std::int64_t samplingBudget = 100000;    ///< SAT conflicts for sampling
  std::size_t bddNodeLimit = 1u << 22;

  bool useErrorDomainSampling = true;  ///< ablation B: error vs uniform
  bool useUtilityHeuristic = true;     ///< ablation C: utility ranking
  bool includeTrivialCandidate = true; ///< ablation C: trivial candidates
  bool enableSweeping = true;          ///< §5.2 patch-input refinement
  /// Rectification-function synthesis (this reproduction's implementation
  /// of the paper's "future work ... rectification logic synthesis"): when
  /// no existing net realizes a point's required function, try small
  /// algebraic combinations of the strongest candidates.
  bool synthesizeFunctions = true;
  bool levelDriven = false;            ///< Table 3: timing-aware selection

  bool verbose = false;  ///< trace the per-output search to stderr

  std::uint64_t seed = 1;

  /// Worker threads for per-output rectification. On unlimited runs (no
  /// deadline or budget) the engine searches outputs speculatively from
  /// the unpatched base netlist and commits results in plan order, so the
  /// patch, reports and journal are bit-identical for every jobs value.
  /// Runs with a deadline or budget use fair-share slicing, which is
  /// inherently schedule-dependent; they ignore jobs and stay sequential.
  /// A worker that throws fails its attempt and is retried, then
  /// quarantined, under the isolate retry knobs below - like every
  /// executor. Must lie in 1..kMaxCaseJobs (eco/isolate.hpp).
  std::size_t jobs = 1;

  // --- Fault-contained subprocess isolation -------------------------------
  /// Run each per-output rectification task in a forked, rlimit-sandboxed
  /// worker subprocess supervised by the main process. A worker that
  /// crashes, leaks, hangs or babbles is classified (WorkerExitCause),
  /// retried with capped exponential backoff, and after
  /// `isolateMaxAttempts` failures its output is quarantined: it degrades
  /// to the guaranteed cone-clone fallback instead of aborting the run.
  /// Successful isolated runs are bit-identical to in-process `jobs` runs
  /// (the same plan-ordered speculative commits replay the same worker
  /// results). Isolation requires an unlimited run: a deadline or budget
  /// together with `isolate` is rejected as invalid input rather than run
  /// unisolated. None of the isolate knobs shape the search, so they are
  /// excluded from the resume fingerprint.
  bool isolate = false;
  int isolateMaxAttempts = 3;        ///< worker attempts before quarantine
  double isolateWallSeconds = 120.0; ///< per-attempt wall deadline (0 = off)
  double isolateCpuSeconds = 0.0;    ///< worker RLIMIT_CPU (0 = inherit)
  std::uint64_t isolateMemoryBytes = 0;  ///< worker RLIMIT_AS (0 = inherit)
  double isolateBackoffMs = 100.0;   ///< base retry backoff (doubled, capped)

  // --- Distributed worker fleet -------------------------------------------
  /// TCP generalization of the isolation transport: per-output tasks are
  /// sharded across `syseco --serve-worker` agent processes listed here as
  /// "host:port" endpoints. Every in-flight task holds a deadline-bearing
  /// lease renewed by agent heartbeats; a task whose worker disconnects,
  /// stops heartbeating or overruns its lease is reassigned, its failure
  /// classified into the same taxonomy (the network causes: conn-refused,
  /// conn-reset, frame-truncated, lease-expired) and retried with the same
  /// capped backoff and quarantine rules as --isolate. Duplicate results
  /// from a reassigned-then-returned task are rejected by task epoch. When
  /// fewer than `fleetMinWorkers` agents remain usable the run degrades to
  /// in-process execution instead of failing. Successful fleet runs are
  /// bit-identical to in-process `jobs` runs (same plan-ordered commits of
  /// the same pure per-output results). Mutually exclusive with `isolate`;
  /// like it, the fleet requires an unlimited run (a deadline or budget
  /// with `workers` is invalid input), and none of these knobs enter the
  /// resume fingerprint.
  std::vector<std::string> workers;  ///< agent endpoints, "host:port"
  double fleetLeaseSeconds = 10.0;   ///< task lease; heartbeats renew it
  int fleetConnectTimeoutMs = 2000;  ///< per-connect deadline
  int fleetMinWorkers = 1;           ///< usable agents below this: degrade

  // --- Certification oracle + invariant auditing --------------------------
  /// Tri-modal certification (verify/oracle.hpp) is the final
  /// verification of every run: each label-matched output is re-proven
  /// through SAT (fresh miter), BDD (within node budget) and simulation,
  /// and a refuted output is quarantined to the cone-clone fallback
  /// instead of shipped wrong. Neither the oracle knobs nor the audit
  /// level shape the search, so - like the isolate knobs - they are
  /// excluded from the resume fingerprint.
  OracleOptions oracle;
  /// Where oracle disagreements are packaged as atomic repro bundles
  /// (netlists, patch, seed, minimized counterexample, build info).
  /// Empty: diagnose and quarantine, but write no bundle.
  std::string reproDir;
  /// Structural invariant audits (verify/audit.hpp) at engine phase
  /// boundaries: post-resume-restore and after every patch commit
  /// (post-patch-commit in-process, post-isolate-decode under --isolate);
  /// kParanoid deepens the checks and adds post-sweep and pre-verify
  /// sites. A failed audit aborts the run with a structured
  /// StatusError{kInternal} naming every violated invariant.
  AuditLevel audit = AuditLevel::kOff;

  // --- Resource governor (whole-run ceilings; 0 = unlimited) --------------
  // The run always terminates with a correct patch: outputs whose share of
  // the budget runs dry degrade to the guaranteed cone-clone fallback
  // (Proposition 1) instead of failing. Each failing output receives a
  // fair slice of whatever remains when its turn comes.
  double deadlineSeconds = 0.0;          ///< wall-clock deadline for the run
  std::int64_t totalConflictBudget = 0;  ///< SAT conflicts across all phases
  std::int64_t totalBddNodeBudget = 0;   ///< BDD nodes across all managers

  // --- Crash-safe journaling hooks ----------------------------------------
  /// Called once, after failing-output detection and ordering, with the
  /// planned processing order and the failing-output count (a journaling
  /// caller records them in its run-start record). Not called on resume.
  std::function<void(const std::vector<std::uint32_t>& order,
                     std::size_t failingOutputsBefore)>
      planHook;
  /// Called after every completed per-output rectification. Returning
  /// false stops the run cleanly before the next output (the interrupted
  /// path: sweeping and final verification are skipped, success stays
  /// false, and SysecoDiagnostics::interrupted is set).
  std::function<bool(const RunCheckpoint&)> checkpointHook;
  /// When set, the run resumes from the adopted journal state instead of
  /// detecting failing outputs itself. The `impl` netlist passed to
  /// runSyseco must be the restored working snapshot the plan refers to.
  /// Borrowed pointer; must outlive the run.
  const ResumePlan* resumePlan = nullptr;
  /// Called on every fleet lifecycle event (worker failures classified into
  /// the taxonomy, stale-epoch rejections, worker death, degradation to
  /// in-process execution). A journaling caller appends them as "fleet"
  /// records; timing-sensitive by nature, so they never enter the
  /// bit-compared verdict records.
  std::function<void(const struct FleetEvent&)> fleetEventHook;
};

/// One fleet lifecycle event (see SysecoOptions::fleetEventHook).
struct FleetEvent {
  std::string kind;    ///< taxonomy cause or lifecycle tag (worker-dead, ...)
  std::string worker;  ///< "host:port" endpoint; empty for fleet-wide events
  std::uint32_t output = 0;  ///< task output index; 0 for fleet-wide events
  int attempt = 0;           ///< failed-attempt ordinal; 0 when n/a
  std::string detail;
};

/// Rejects nonsensical configurations (zero samples, non-positive point
/// counts, empty budgets, negative deadlines) with kInvalidInput before the
/// search can wander into undefined behavior.
Status validateSysecoOptions(const SysecoOptions& options);

/// How one output ended up correct.
enum class OutputRectStatus {
  kExact,     ///< rectified with full-strength search, no resource trouble
  kDegraded,  ///< rectified, but only after staged degradation or a trip
  kFallback,  ///< rewired to a clone of its revised cone (Proposition 1)
};

inline const char* outputRectStatusName(OutputRectStatus s) {
  switch (s) {
    case OutputRectStatus::kExact: return "exact";
    case OutputRectStatus::kDegraded: return "degraded";
    case OutputRectStatus::kFallback: return "fallback";
  }
  return "unknown";
}

/// Inverse of outputRectStatusName; nullopt for names from a newer schema.
inline std::optional<OutputRectStatus> outputRectStatusFromName(
    std::string_view name) {
  for (OutputRectStatus s :
       {OutputRectStatus::kExact, OutputRectStatus::kDegraded,
        OutputRectStatus::kFallback}) {
    if (name == outputRectStatusName(s)) return s;
  }
  return std::nullopt;
}

/// How a rectification worker (in-process thread or isolated subprocess)
/// last failed. The shared failure taxonomy of the isolation supervisor
/// and the in-process parallel path; kNone means no attempt failed.
enum class WorkerExitCause {
  kNone,          ///< clean: no worker attempt failed for this output
  kCrash,         ///< abnormal exit, fatal signal, or escaped exception
  kOom,           ///< allocation failure took down the whole attempt
  kCpuTimeout,    ///< RLIMIT_CPU tripped (SIGXCPU)
  kWallTimeout,   ///< supervisor wall deadline; SIGTERM->SIGKILL delivered
  kGarbageIpc,    ///< response frame undecodable or semantically invalid
  kFaultInjected, ///< an injected fault the worker could still report
  // Fleet-transport causes (--workers): the same retry/quarantine rules
  // apply; only the classification is network-specific.
  kConnRefused,    ///< TCP connect to the agent failed
  kConnReset,      ///< connection dropped between request and result
  kFrameTruncated, ///< stream ended mid-frame
  kLeaseExpired,   ///< no heartbeat or result within the task lease
  kStaleEpoch,     ///< duplicate result from a superseded task epoch
};

inline const char* workerExitCauseName(WorkerExitCause c) {
  switch (c) {
    case WorkerExitCause::kNone: return "ok";
    case WorkerExitCause::kCrash: return "crash";
    case WorkerExitCause::kOom: return "oom";
    case WorkerExitCause::kCpuTimeout: return "cpu-timeout";
    case WorkerExitCause::kWallTimeout: return "wall-timeout";
    case WorkerExitCause::kGarbageIpc: return "garbage-ipc";
    case WorkerExitCause::kFaultInjected: return "fault-injected";
    case WorkerExitCause::kConnRefused: return "conn-refused";
    case WorkerExitCause::kConnReset: return "conn-reset";
    case WorkerExitCause::kFrameTruncated: return "frame-truncated";
    case WorkerExitCause::kLeaseExpired: return "lease-expired";
    case WorkerExitCause::kStaleEpoch: return "stale-epoch";
  }
  return "unknown";
}

/// Inverse of workerExitCauseName; nullopt for names from a newer schema.
inline std::optional<WorkerExitCause> workerExitCauseFromName(
    std::string_view name) {
  for (WorkerExitCause c :
       {WorkerExitCause::kNone, WorkerExitCause::kCrash, WorkerExitCause::kOom,
        WorkerExitCause::kCpuTimeout, WorkerExitCause::kWallTimeout,
        WorkerExitCause::kGarbageIpc, WorkerExitCause::kFaultInjected,
        WorkerExitCause::kConnRefused, WorkerExitCause::kConnReset,
        WorkerExitCause::kFrameTruncated, WorkerExitCause::kLeaseExpired,
        WorkerExitCause::kStaleEpoch}) {
    if (name == workerExitCauseName(c)) return c;
  }
  return std::nullopt;
}

/// Per-output account of the governed search.
struct OutputReport {
  std::uint32_t output = 0;  ///< implementation output index
  std::string name;
  OutputRectStatus status = OutputRectStatus::kExact;
  /// Resource that tripped while this output was being processed
  /// (kOk when the search ran to completion unimpeded).
  StatusCode limit = StatusCode::kOk;
  std::int64_t conflictsUsed = 0;   ///< SAT conflicts charged to this output
  std::int64_t bddNodesUsed = 0;    ///< BDD nodes charged to this output
  double seconds = 0.0;
  int degradeSteps = 0;  ///< candidate-space halvings forced by blowups
  /// Worker attempts that *failed* for this output (0 on a clean first-try
  /// success in any mode, so reports stay bit-identical across --jobs and
  /// --isolate). A quarantined output carries isolateMaxAttempts here.
  int workerFailedAttempts = 0;
  WorkerExitCause workerExitCause = WorkerExitCause::kNone;  ///< last failure
};

/// Extra run telemetry (ablation benches report these).
struct SysecoDiagnostics {
  std::size_t outputsRectified = 0;
  std::size_t outputsViaRewire = 0;    ///< solved by interior-pin rewiring
  std::size_t outputsViaFallback = 0;  ///< solved by output-cone cloning
  std::size_t candidatesValidated = 0; ///< SAT validations run
  std::size_t candidatesRefuted = 0;   ///< sampling false positives caught by SAT
  std::size_t candidatesScreenRejected = 0;  ///< caught by the sim screen
  std::size_t refinementRounds = 0;
  std::size_t sweepMerges = 0;
  std::size_t isopRewrites = 0;  ///< patch cones rebuilt as two-level covers
  std::size_t isopGatesSaved = 0;  ///< net gate reduction from those rewrites
  // Phase timing (seconds).
  double secondsSampling = 0.0;    ///< error-sample enumeration + rechecks
  double secondsSymbolic = 0.0;    ///< H(t) / Xi(c) BDD work + ranking
  double secondsScreening = 0.0;   ///< simulation screens of choices
  double secondsValidation = 0.0;  ///< SAT validation of choices
  double secondsFallback = 0.0;    ///< matched cone cloning
  double secondsSweep = 0.0;       ///< patch-input refinement
  double secondsVerify = 0.0;      ///< final full verification (wall)
  /// The same phase with the oracle's parallel fan-out counted as its
  /// summed per-certificate time (routes + cex minimization) rather than
  /// its wall time, like the other phases' cross-thread totals.
  double secondsVerifyCpu = 0.0;

  // Discarded speculation (plan-order supervisor). Outside the phase
  // totals above, which count adopted work only; both depend on task
  // scheduling, so they differ across jobs values, executors and resumes.
  /// Tasks never started because their output was already fixed when it
  /// became the commit frontier.
  std::size_t frontierSkippedTasks = 0;
  /// Phase-seconds of finished worker searches the commit threw away: an
  /// output found already fixed at the frontier, or a patch redone on the
  /// canonical netlist. A running task abandoned at the frontier is not
  /// counted: its result is never read.
  double secondsDiscardedSpeculation = 0.0;

  // Certification-oracle + audit accounting (empty when the oracle is
  // disabled / audits are off).
  std::vector<OutputCertificate> certificates;  ///< final per-output verdicts
  std::vector<OracleDisagreement> oracleDisagreements;
  std::vector<AuditReport> audits;  ///< one entry per audited boundary
  double secondsAudit = 0.0;        ///< total time spent auditing

  // Resource-governor accounting.
  std::vector<OutputReport> outputs;  ///< one entry per processed output
  StatusCode runLimit = StatusCode::kOk;  ///< first whole-run trip, if any
  std::int64_t conflictsUsed = 0;         ///< total SAT conflicts charged
  std::int64_t bddNodesUsed = 0;          ///< total BDD nodes charged

  /// True when a checkpoint hook stopped the run early (journaled
  /// interruption). Sweeping and final verification did not happen; the
  /// journal is the authoritative record of progress.
  bool interrupted = false;

  /// True when a resource limit forced at least one output off the
  /// full-strength search path - the "degraded run" signal surfaced by the
  /// CLI exit code. Plain fallbacks chosen on merit do not count.
  bool resourceDegraded() const {
    if (runLimit != StatusCode::kOk) return true;
    for (const OutputReport& r : outputs)
      if (r.limit != StatusCode::kOk) return true;
    return false;
  }
};

/// Runs the engine; throws StatusError{kInvalidInput} on a nonsensical
/// configuration (see validateSysecoOptions). Resource exhaustion never
/// fails the run - it degrades per-output (see SysecoDiagnostics::outputs).
EcoResult runSyseco(const Netlist& impl, const Netlist& spec,
                    const SysecoOptions& options = {},
                    SysecoDiagnostics* diagnostics = nullptr);

/// Non-throwing variant: kInvalidInput instead of undefined behavior or an
/// exception when the configuration is rejected.
Result<EcoResult> runSysecoChecked(const Netlist& impl, const Netlist& spec,
                                   const SysecoOptions& options = {},
                                   SysecoDiagnostics* diagnostics = nullptr);

}  // namespace syseco
