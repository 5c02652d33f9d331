#pragma once
// Seeded fault schedules: the deterministic chaos layer on top of
// util/fault.
//
// A fault plan is a small text file of reproducible injection entries -
// "at the k-th hit of site S, inject kind K" - that replaces the ad-hoc
// one-shot SYSECO_FAULT_INJECT matching for chaos testing. Plans are
// generated from a 64-bit seed (generateChaosPlan), serialized to disk,
// and loaded by every process in the run tree via SYSECO_FAULT_PLAN, so
// one seed reproduces one exact storm of storage, process and network
// faults across the CLI, the daemon, and every exec'd worker.
//
// File format (one entry per line, '#' comments, blank lines ignored):
//
//   at <hit> <site> <kind> [arg]     # fire once, at hit ordinal <hit>
//   from <hit> <site> <kind> [arg]   # fire persistently from <hit> on
//
// e.g.
//   # seed 42
//   at 3 journal.write torn-frame 17
//   at 0 queue.wal.fsync fsync-fail
//   from 2 syseco.sampling budget
//
// One-shot ("at") entries are consumption-logged: when one fires, the
// injector appends it to `<plan>.fired` before acting (write-ahead, so
// even an injected crash records itself). applyFaultPlan skips entries
// already present in the fired log - a restarted daemon or a re-exec'd
// batch worker loading the same plan does not re-fire faults the previous
// life already injected, which is what makes "heal after restart"
// convergent instead of an infinite fault loop.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace syseco::fault {

struct PlanEntry {
  std::uint64_t atHit = 0;
  bool oneShot = true;  ///< "at" entry (vs persistent "from")
  std::string site;
  Kind kind = Kind::kEio;
  std::uint64_t arg = 0;  ///< torn-frame / short-write byte count (0 = auto)
};

struct FaultPlan {
  std::vector<PlanEntry> entries;
};

/// Parses the plan text; returns kInvalidInput naming the offending line
/// on any malformed entry.
Result<FaultPlan> parseFaultPlan(std::string_view text);

/// Canonical serialization (parseFaultPlan round-trips it).
std::string serializeFaultPlan(const FaultPlan& plan);

/// An injection site the storage shim consults, plus which shim side it
/// sits on (write vs fsync) so plan generation picks sensible kinds.
struct FaultSite {
  std::string_view name;
  bool isFsync = false;
};

/// Registry of every storage-shim site in the tree: the engine journal,
/// the atomic-file staging path, the job-queue WAL behind --serve and
/// --batch, and repro bundles. The README table is generated from the same
/// list; keep them in step.
const std::vector<FaultSite>& storageFaultSites();

/// Deterministically generates `count` one-shot storage-fault entries from
/// `seed`, drawn over `sites` (defaults to storageFaultSites()). Same seed
/// + same site list = bit-identical plan.
FaultPlan generateChaosPlan(std::uint64_t seed, std::size_t count,
                            const std::vector<FaultSite>* sites = nullptr);

/// Arms `plan` on the process-wide injector: one-shot entries via
/// Injector::schedule, persistent ones via arm. Entries recorded in
/// `<planPath>.fired` are skipped, and the injector's fire log is pointed
/// at that sidecar so this process appends its own firings for the next
/// life. Pass an empty planPath to skip the consumption protocol (tests).
Status applyFaultPlan(const FaultPlan& plan, const std::string& planPath);

/// Loads and arms the plan named by SYSECO_FAULT_PLAN, if set. Unset env
/// is ok (no-op); a set-but-unreadable or malformed plan is an error -
/// silently ignoring a requested fault schedule would turn a chaos run
/// into a false-green reference run.
Status loadFaultPlanFromEnv();

}  // namespace syseco::fault
