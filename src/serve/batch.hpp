#pragma once
// Whole-case batch fan-out: a manifest of cases submitted to an embedded
// job queue and drained by the same Scheduler the --serve daemon runs.
//
// runBatch parses the manifest, opens the queue in the state directory
// (`--batch-state` starts a fresh sweep, `--resume` continues one),
// registers each case as a job named by its manifest name - inputs copied
// into the job directory exactly like a submitted payload, admission
// limits skipped - ticks the scheduler until no job is resident, and
// writes `batch_report.json`. A case whose inputs do not parse ends
// failed/invalid-input without being dispatched, and the sweep continues.
// Every path - remote, local, killed and resumed - drains to verdict
// records and patched netlists bit-identical to running each case locally
// with `--jobs N`.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/scheduler.hpp"
#include "util/status.hpp"

namespace syseco::serve {

/// One manifest entry as parsed; seed/jobs fall back to the sweep defaults
/// when the manifest omits them.
struct ManifestCase {
  std::string name;
  std::string implPath;
  std::string specPath;
  std::uint64_t seed = 0;
  bool hasSeed = false;
  std::int64_t jobs = 0;
  bool hasJobs = false;
};

/// Parses a batch manifest: a JSON object whose "cases" array holds
/// {"name","impl","spec"[,"seed"][,"jobs"]} entries. Names must satisfy
/// validFleetCaseName (they name artifact directories) and be unique.
/// Hardened like the wire codecs: arbitrary bytes are kInvalidInput.
Result<std::vector<ManifestCase>> parseBatchManifest(std::string_view text);

/// The --batch sweep driver's knobs: the scheduler's, plus the manifest.
struct BatchOptions : SchedulerOptions {
  std::string manifestPath;
  /// True for `--resume DIR`: the queue is expected to hold the sweep
  /// already. A fresh `--batch-state DIR` run refuses a non-empty queue
  /// instead of silently mixing sweeps.
  bool expectResume = false;
  std::uint64_t defaultSeed = 1;  ///< manifest entries without "seed"
  std::int64_t defaultJobs = 1;   ///< manifest entries without "jobs"
};

struct BatchOutcome {
  std::size_t done = 0;
  std::size_t failed = 0;  ///< quarantined or invalid-input cases
  /// Worst engine exit classification among the done cases (0 clean,
  /// 1 verify-failed, 4 degraded) - the sweep's own exit code when nothing
  /// was quarantined.
  std::int64_t worstCaseExit = 0;
  bool degradedToLocal = false;
  bool interrupted = false;
};

/// Runs (or resumes) a manifest sweep to completion. Non-ok only for setup
/// failures (manifest, state directory, WAL, a case re-registered with
/// different inputs); per-case failures are contained, journaled and
/// counted in the outcome. Writes `<stateDir>/batch_report.json` before
/// returning.
Result<BatchOutcome> runBatch(const BatchOptions& opt);

}  // namespace syseco::serve
