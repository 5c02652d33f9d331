#pragma once
// Journal resume: validation, independent re-certification and plan
// construction (the trust boundary of the crash-safe run journal).
//
// The journal is evidence, not truth. prepareResume() never adopts a
// recorded verdict: it restores the most recent intact checkpoint, checks
// it structurally against the *current* inputs, then re-proves every
// claimed output with a fresh unbounded SAT miter. A record that fails any
// step is demoted to "redo" with a line-accurate note - resume falls back
// to the next older record, and ultimately to a fresh run. A corrupt or
// stale journal therefore costs time, never correctness.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "eco/syseco.hpp"
#include "io/journal_io.hpp"
#include "netlist/netlist.hpp"
#include "util/status.hpp"

namespace syseco {

/// CRC-32 over the exact snapshot text - the journal's identity check for
/// the implementation and specification netlists.
std::uint32_t netlistCrc(const Netlist& nl);

/// Stable fingerprint of every option that shapes the search. Resuming
/// under different options would interleave two different searches into
/// one patch, so a mismatch rejects the journal. Hooks and the resume
/// plan itself are excluded (they don't affect the search).
std::string sysecoOptionsFingerprint(const SysecoOptions& o);

struct ResumeOutcome {
  bool adopted = false;  ///< a checkpoint survived re-certification
  Netlist netlist;       ///< restored working snapshot (when adopted)
  ResumePlan plan;       ///< hand to SysecoOptions::resumePlan (when adopted)
  std::vector<std::uint32_t> certified;  ///< outputs re-proven by fresh SAT
  std::size_t demotedRecords = 0;        ///< records demoted to redo
  std::vector<std::string> notes;        ///< diagnostics, line-accurate
};

/// Validates `journal` against the current inputs and re-certifies the
/// newest adoptable checkpoint. kInvalidInput when the journal belongs to
/// different inputs (netlist/options/seed fingerprint mismatch) - that is
/// a user error, not a recoverable corruption. An empty or fully-demoted
/// journal yields adopted=false: the caller runs fresh.
Result<ResumeOutcome> prepareResume(const Netlist& impl, const Netlist& spec,
                                    const SysecoOptions& options,
                                    const JournalContents& journal);

// --- Record builders (engine hook -> journal payload structs) -------------

/// The one mapping between an engine OutputReport and its record form,
/// shared by journal checkpoints and worker patches.
JournalOutputReport toJournalReport(const OutputReport& r);

/// Inverse of toJournalReport, with every range check a report arriving
/// from outside must pass: known status/limit/exit-cause names, a real
/// output of `impl` under its own name, non-negative counters and seconds,
/// and degrade steps and attempts within kMaxSmallCount. nullopt otherwise
/// (a record from a newer schema, corruption or tampering).
std::optional<OutputReport> fromJournalReport(const JournalOutputReport& j,
                                              const Netlist& impl);

JournalRunStart makeRunStartRecord(const Netlist& impl, const Netlist& spec,
                                   const SysecoOptions& options,
                                   const std::vector<std::uint32_t>& order,
                                   std::size_t failingOutputsBefore);

JournalOutputRecord makeOutputRecord(const RunCheckpoint& cp);

/// The certification oracle's per-output route verdicts, ready for
/// serializeVerdicts(). Deliberately timing-free: the payload must be
/// bit-identical across --jobs N, --isolate and --resume runs of the same
/// inputs.
JournalVerdicts makeVerdictsRecord(const SysecoDiagnostics& diag);

}  // namespace syseco
