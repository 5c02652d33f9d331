#pragma once
// Message payloads exchanged between the plan-order supervisor (syseco.cpp)
// and its out-of-process workers: forked --isolate subprocesses
// (util/subprocess.hpp, crc32-framed IPC from util/ipc.hpp) and
// --serve-worker fleet agents (TCP, same frames).
//
// A worker is a pure function of (base netlist, spec, options, output): it
// rectifies one output against the shared base snapshot and ships back a
// WorkerPatch - the gates it appended past the snapshot, its rewire trail
// and its diagnostics fragment. Every executor, in-process threads
// included, builds that patch with the same pure task and the supervisor
// commits it through one plan-order path, which is what makes successful
// isolated and fleet runs bit-identical to --jobs runs.
//
// Payloads are JSON (the journal_io idiom) so the fuzz-hardened parser
// guards the wire format, and decodeWorkerPatch re-validates every id
// against the supervisor's own copy of the base snapshot: a worker is an
// untrusted job, and a corrupted response must classify as a garbage-ipc
// failure, never corrupt (or abort) the supervisor.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "eco/patch.hpp"
#include "eco/syseco.hpp"
#include "netlist/netlist.hpp"
#include "util/budget.hpp"
#include "util/status.hpp"

namespace syseco {

/// Supervisor -> worker: which output to rectify. The attempt ordinal is
/// carried for logging/fault-site symmetry; it does not shape the search
/// (every attempt is the same pure function, which is what makes retrying
/// transient failures sound).
struct IsolateTaskRequest {
  std::uint32_t output = 0;
  std::int64_t attempt = 1;
};

/// Worker -> supervisor: one speculative per-output result, id-relative to
/// the shared base snapshot. Also the in-process hand-off shape: every
/// executor reports this struct, so all of them commit through one path.
struct WorkerPatch {
  struct NewGate {
    GateType type = GateType::Const0;
    std::vector<NetId> fanins;
    NetId out = kNullId;
  };

  bool produced = false;  ///< false: the output has no spec twin (no report)
  /// Gate/net counts of the base snapshot the ids are relative to; the
  /// decoder rejects a patch whose counts disagree with the supervisor's.
  std::uint64_t baseGates = 0;
  std::uint64_t baseNets = 0;
  std::vector<NewGate> gates;  ///< gates appended past the base, in id order
  std::vector<PatchTracker::RewireRecord> rewires;
  /// The worker's diagnostics fragment: search counters, phase seconds and
  /// (when produced) exactly one OutputReport.
  SysecoDiagnostics frag;
};

std::string encodeTaskRequest(const IsolateTaskRequest& req);
Result<IsolateTaskRequest> decodeTaskRequest(std::string_view payload);

std::string encodeWorkerPatch(const WorkerPatch& patch);

/// Hardened decode with full semantic validation against `base` (the
/// supervisor's copy of the shared snapshot): snapshot counts must match,
/// appended gate i must drive net baseNets+i from strictly older nets with
/// an arity-correct fanin list, rewires must target existing pins and nets,
/// and the report must describe a real output of `base`. Any violation is
/// kInvalidInput - the supervisor classifies it as garbage-ipc.
Result<WorkerPatch> decodeWorkerPatch(std::string_view payload,
                                      const Netlist& base);

// --- Fleet transport payloads (--workers / --serve-worker) ----------------
//
// The TCP fleet reuses the pipe transport's patch codec and grows three
// things: a task request carrying a lease, an assignment epoch and a
// content-addressed case reference; a one-time case-upload payload (the
// base and spec snapshots plus the exact search-shaping options and
// protect list, so an agent's result is the same pure function a local
// worker computes); and epoch-stamped result/heartbeat/failure envelopes
// so the supervisor can reject duplicates from reassigned tasks.

/// Supervisor -> agent: rectify one output. `caseCrc` is the crc32 of the
/// encoded case payload; an agent that has not cached it answers with a
/// need-case frame before starting. `epoch` uniquely identifies this
/// assignment - every frame the agent sends back about the task carries it.
/// `limits` is the task's resource slice on a governed run; each limit is
/// on the wire only when set, so unlimited requests keep their old bytes.
struct FleetTaskRequest {
  std::uint32_t output = 0;
  std::int64_t attempt = 1;
  std::uint64_t epoch = 0;
  double leaseSeconds = 10.0;  ///< agent paces heartbeats well inside this
  std::uint32_t caseCrc = 0;
  ResourceGuard::Limits limits;
};

std::string encodeFleetTaskRequest(const FleetTaskRequest& req);
Result<FleetTaskRequest> decodeFleetTaskRequest(std::string_view payload);

/// The decoded one-time case upload: everything a per-output task is a
/// pure function of, minus the output index itself.
struct FleetCase {
  Netlist base;
  Netlist spec;
  SysecoOptions options;  ///< sanitized worker options (search-shaping only)
  std::vector<std::uint32_t> protect;  ///< plan order / protect set
};

std::string encodeFleetCase(const Netlist& base, const Netlist& spec,
                            const SysecoOptions& options,
                            const std::vector<std::uint32_t>& protect);

/// Hardened decode: both netlist snapshots re-validated by the raw-restore
/// parser, options re-validated by validateSysecoOptions, protect entries
/// bounded by the base output count.
Result<FleetCase> decodeFleetCase(std::string_view payload);

/// Agent -> supervisor need-case and heartbeat payloads.
std::string encodeFleetNeedCase(std::uint32_t caseCrc);
Result<std::uint32_t> decodeFleetNeedCase(std::string_view payload);
std::string encodeFleetHeartbeat(std::uint64_t epoch);
Result<std::uint64_t> decodeFleetHeartbeat(std::string_view payload);

/// Agent -> supervisor result: a WorkerPatch document with the assignment
/// epoch stamped in. The epoch is peeked first (cheap reject of stale
/// results); the patch half decodes through decodeWorkerPatch, which
/// ignores the extra key.
std::string encodeFleetResult(std::uint64_t epoch, const WorkerPatch& patch);
Result<std::uint64_t> peekFleetEpoch(std::string_view payload);

/// Agent -> supervisor contained failure (compute threw, bad request, an
/// injected fault the agent could still report). `cause` is a
/// workerExitCauseName string.
struct FleetFailure {
  std::uint64_t epoch = 0;
  std::string cause;
  std::string detail;
};

std::string encodeFleetFailure(const FleetFailure& failure);
Result<FleetFailure> decodeFleetFailure(std::string_view payload);

// --- Whole-case batch fan-out payloads (--batch / daemon dispatch) --------
//
// Batch mode dispatches an *entire case* to an agent: the case upload reuses
// encodeFleetCase + crc32 content addressing (so the agent's CaseCacheLru
// amortizes it across retries), and the result envelope carries everything a
// local run would have written to disk - the full report JSON, the verdicts
// record and the patched netlist snapshot - plus the agent's cache counters
// so batch-level cache amortization is observable at the supervisor.

/// Case names come from user manifests and name artifact directories on the
/// supervisor; the codec accepts only short portable path components:
/// 1..64 chars of [A-Za-z0-9._-], not starting with '.'.
bool validFleetCaseName(std::string_view name);

/// Per-case engine parallelism ceiling (--jobs), shared by the case-task
/// wire contract, the serve submit codec and the batch manifest parser.
inline constexpr std::int64_t kMaxCaseJobs = 256;

/// Supervisor -> agent: run one whole case. `jobs` is the agent-local
/// per-output parallelism (the engine's --jobs), part of the wire contract
/// because verdicts must be bit-identical to a local `--jobs N` run.
struct FleetCaseTask {
  std::string name;
  std::uint32_t caseCrc = 0;
  std::uint64_t epoch = 0;
  double leaseSeconds = 10.0;
  std::uint32_t jobs = 1;
  std::int64_t attempt = 1;
};

std::string encodeFleetCaseTask(const FleetCaseTask& task);
Result<FleetCaseTask> decodeFleetCaseTask(std::string_view payload);

/// Agent -> supervisor: the whole-case outcome. `report` is the full run
/// report JSON text; `verdicts` is the oracle's verdicts journal record
/// (empty when the oracle was disabled); `netlist` is the patched
/// implementation as a raw-restore snapshot - the supervisor re-validates it
/// through Netlist::restoreRawString before writing any artifact. The cache
/// counters snapshot the agent's CaseCacheLru at completion time.
struct FleetCaseResult {
  std::uint64_t epoch = 0;
  int exitCode = 0;  ///< the engine exit classification (0/1/4)
  std::string report;
  std::string verdicts;
  std::string netlist;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t cacheEvictions = 0;
};

std::string encodeFleetCaseResult(const FleetCaseResult& result);
Result<FleetCaseResult> decodeFleetCaseResult(std::string_view payload);

/// Deterministic capped exponential retry backoff, shared by every worker
/// transport (forked pipe workers and fleet agents). The exponential base
/// grows with the attempt count (doubling from opt.isolateBackoffMs, capped
/// at 5 s before jitter); the jitter fraction derives from (opt.seed,
/// output) ONLY - not the attempt ordinal and not the transport - so the
/// same output retries on the same schedule whether its failures came from
/// a local subprocess or a TCP agent, and retry timing never feeds back
/// into the pure per-output computation.
double retryBackoffSeconds(const SysecoOptions& opt, std::uint32_t output,
                           int failedAttempts);

/// The exit cause of a pure task that returned a non-ok Status, whatever
/// ran it: allocation failure (kBudgetExhausted) is oom, anything else a
/// crash.
inline WorkerExitCause workerExitCauseOf(const Status& failure) {
  return failure.code() == StatusCode::kBudgetExhausted
             ? WorkerExitCause::kOom
             : WorkerExitCause::kCrash;
}

class NetlistAnalysis;

/// The pure per-output task: rectify `output` of `base` against `spec`
/// under sanitized worker `options` and the resource slice `limits`,
/// exactly as every local executor does, and return the extracted patch.
/// Shared analyses may be passed to amortize cone work across tasks on the
/// same case (the agent caches them per case); null pointers make the
/// engine build its own. The
/// --serve-worker agent's entry point into the engine's one task builder.
Result<WorkerPatch> runFleetTask(const Netlist& base, const Netlist& spec,
                                 const SysecoOptions& options,
                                 const ResourceGuard::Limits& limits,
                                 std::uint32_t output,
                                 const std::vector<std::uint32_t>& protect,
                                 const NetlistAnalysis* baseAnalysis,
                                 const NetlistAnalysis* specAnalysis);

}  // namespace syseco
