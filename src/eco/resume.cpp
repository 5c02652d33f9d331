#include "eco/resume.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>

#include "cnf/encode.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace syseco {

JournalOutputReport toJournalReport(const OutputReport& r) {
  JournalOutputReport j;
  j.output = r.output;
  j.name = r.name;
  j.status = outputRectStatusName(r.status);
  j.limit = statusCodeName(r.limit);
  j.conflictsUsed = r.conflictsUsed;
  j.bddNodesUsed = r.bddNodesUsed;
  j.seconds = r.seconds;
  j.degradeSteps = r.degradeSteps;
  j.attempts = r.workerFailedAttempts;
  j.exitCause = workerExitCauseName(r.workerExitCause);
  return j;
}

std::optional<OutputReport> fromJournalReport(const JournalOutputReport& j,
                                              const Netlist& impl) {
  const auto status = outputRectStatusFromName(j.status);
  const auto limit = statusCodeFromName(j.limit);
  const auto exitCause = workerExitCauseFromName(j.exitCause);
  if (!status || !limit || !exitCause) return std::nullopt;
  if (j.output >= impl.numOutputs()) return std::nullopt;
  if (j.name != impl.outputName(j.output)) return std::nullopt;
  if (j.conflictsUsed < 0 || j.bddNodesUsed < 0 || j.seconds < 0.0)
    return std::nullopt;
  if (j.degradeSteps < 0 || j.degradeSteps > kMaxSmallCount)
    return std::nullopt;
  if (j.attempts < 0 || j.attempts > kMaxSmallCount) return std::nullopt;
  OutputReport r;
  r.output = j.output;
  r.name = j.name;
  r.status = *status;
  r.limit = *limit;
  r.conflictsUsed = j.conflictsUsed;
  r.bddNodesUsed = j.bddNodesUsed;
  r.seconds = j.seconds;
  r.degradeSteps = static_cast<int>(j.degradeSteps);
  r.workerFailedAttempts = static_cast<int>(j.attempts);
  r.workerExitCause = *exitCause;
  return r;
}

namespace {

/// Structural validation + independent SAT re-certification of one output
/// record. Returns the reason for demotion, or nullopt and fills `out`.
std::optional<std::string> tryAdopt(const JournalOutputRecord& rec,
                                    const JournalRunStart& rs,
                                    const Netlist& impl, const Netlist& spec,
                                    ResumeOutcome* out) {
  Result<Netlist> restored = Netlist::restoreRawString(rec.netlistDump);
  if (!restored.isOk())
    return "snapshot rejected (" + restored.status().message() + ")";
  Netlist w = restored.take();

  // The snapshot must present the implementation's exact interface.
  if (w.numInputs() != impl.numInputs() ||
      w.numOutputs() != impl.numOutputs())
    return "snapshot interface does not match the implementation";
  for (std::uint32_t i = 0; i < impl.numInputs(); ++i)
    if (w.inputName(i) != impl.inputName(i))
      return "snapshot input labels do not match the implementation";
  for (std::uint32_t o = 0; o < impl.numOutputs(); ++o)
    if (w.outputName(o) != impl.outputName(o))
      return "snapshot output labels do not match the implementation";

  // Tracker accounting must be anchored at the original netlist and refer
  // only into the snapshot.
  const JournalTrackerState& t = rec.tracker;
  if (t.baseGates != impl.numGatesTotal() ||
      t.baseNets != impl.numNetsTotal())
    return "tracker base counts do not match the implementation";
  if (t.baseGates > w.numGatesTotal() || t.baseNets > w.numNetsTotal())
    return "tracker base counts exceed the snapshot";
  for (const JournalRewire& r : t.rewires) {
    if (r.oldNet >= w.numNetsTotal() || r.newNet >= w.numNetsTotal())
      return "tracker rewire net out of range";
    if (r.gate == kNullId) {
      if (r.port >= w.numOutputs()) return "tracker rewire output out of range";
    } else {
      if (r.gate >= w.numGatesTotal() ||
          r.port >= w.gate(r.gate).fanins.size())
        return "tracker rewire pin out of range";
    }
  }
  for (const auto& [specNet, here] : t.cloneCache) {
    if (specNet >= spec.numNetsTotal() || here >= w.numNetsTotal())
      return "tracker clone-cache entry out of range";
  }

  // Reports: well-named, in the journaled plan, no duplicates.
  if (rec.reports.empty()) return "output record carries no reports";
  std::vector<OutputReport> restoredReports;
  std::set<std::uint32_t> claimed;
  for (const JournalOutputReport& j : rec.reports) {
    const auto mapped = fromJournalReport(j, impl);
    if (!mapped) return "unmappable output report";
    if (!claimed.insert(mapped->output).second)
      return "duplicate report for output " + std::to_string(mapped->output);
    if (std::find(rs.order.begin(), rs.order.end(), mapped->output) ==
        rs.order.end())
      return "report for output " + std::to_string(mapped->output) +
             " outside the journaled plan";
    restoredReports.push_back(*mapped);
  }
  if (rec.report.output != rec.reports.back().output)
    return "record's own report disagrees with its cumulative list";

  // Independent re-certification: a fresh unbounded SAT miter per claimed
  // output, against the snapshot. The journal's verdict is never trusted.
  {
    PairEncoding pe(w, spec);
    Rng rng(0x5eedu);
    for (std::uint32_t o : claimed) {
      const std::uint32_t op = spec.findOutput(w.outputName(o));
      if (op == kNullId)
        return "claimed output " + std::to_string(o) + " has no spec match";
      if (pe.solveDiffSwept(o, op, /*conflictBudget=*/-1, rng) !=
          Solver::Result::Unsat)
        return "output " + std::to_string(o) +
               " failed independent re-certification";
    }
  }

  out->adopted = true;
  out->netlist = std::move(w);
  out->certified.assign(claimed.begin(), claimed.end());
  ResumePlan& plan = out->plan;
  plan.failingOutputsBefore =
      static_cast<std::size_t>(rs.failingOutputsBefore);
  plan.order = rs.order;
  plan.restored = std::move(restoredReports);
  plan.conflictsUsed = rec.conflictsUsed;
  plan.bddNodesUsed = rec.bddNodesUsed;
  plan.tracker.baseGates = static_cast<std::size_t>(t.baseGates);
  plan.tracker.baseNets = static_cast<std::size_t>(t.baseNets);
  for (const JournalRewire& r : t.rewires)
    plan.tracker.rewires.push_back(PatchTracker::RewireRecord{
        Sink{r.gate, r.port}, r.oldNet, r.newNet});
  plan.tracker.cloneCache = t.cloneCache;
  // The CRC-verified original netlist: the parallel engine's speculative
  // workers search from the unpatched base, so a resumed run must carry it
  // alongside the restored snapshot to reproduce the same worker results.
  plan.base = impl;
  return std::nullopt;
}

}  // namespace

std::uint32_t netlistCrc(const Netlist& nl) {
  return crc32(nl.dumpRawString());
}

std::string sysecoOptionsFingerprint(const SysecoOptions& o) {
  std::ostringstream os;
  os << "syseco-options-v1"
     << ";samples=" << o.numSamples << ";points=" << o.maxPoints
     << ";pins=" << o.maxCandidatePins << ";nets=" << o.maxRewireNets
     << ";sets=" << o.maxPointSets << ";choices=" << o.maxChoices
     << ";refine=" << o.maxRefineIters << ";vbudget=" << o.validationBudget
     << ";sbudget=" << o.samplingBudget << ";bddlimit=" << o.bddNodeLimit
     << ";errsample=" << o.useErrorDomainSampling
     << ";utility=" << o.useUtilityHeuristic
     << ";trivial=" << o.includeTrivialCandidate
     << ";sweep=" << o.enableSweeping << ";synth=" << o.synthesizeFunctions
     << ";level=" << o.levelDriven << ";deadline=" << o.deadlineSeconds
     << ";tconf=" << o.totalConflictBudget
     << ";tbdd=" << o.totalBddNodeBudget;
  return os.str();
}

Result<ResumeOutcome> prepareResume(const Netlist& impl, const Netlist& spec,
                                    const SysecoOptions& options,
                                    const JournalContents& journal) {
  ResumeOutcome out;
  out.notes = journal.diagnostics;

  if (!journal.hasRunStart) {
    if (!journal.outputs.empty()) {
      out.demotedRecords = journal.outputs.size();
      out.notes.push_back(
          "no intact run_start record; every checkpoint demoted to redo");
    }
    return out;
  }

  // Identity gate: a journal recorded for different inputs is a user
  // error, not a recoverable corruption - resuming it would splice two
  // unrelated searches into one patch.
  const JournalRunStart& rs = journal.runStart;
  const auto stale = [](const std::string& what) {
    return Status::invalidInput("journal does not match this run: " + what);
  };
  if (rs.engine != "syseco") return stale("engine '" + rs.engine + "'");
  if (rs.version != kJournalSchemaVersion)
    return stale("schema version " + std::to_string(rs.version));
  if (rs.implCrc != netlistCrc(impl))
    return stale("implementation netlist changed");
  if (rs.specCrc != netlistCrc(spec))
    return stale("specification netlist changed");
  if (rs.optionsFingerprint != sysecoOptionsFingerprint(options))
    return stale("engine options changed");
  if (rs.seed != options.seed) return stale("seed changed");
  for (std::uint32_t o : rs.order)
    if (o >= impl.numOutputs()) return stale("planned output out of range");

  // Newest checkpoint first: each output record is self-contained, so the
  // first one that survives validation and re-certification wins and older
  // records (even corrupt ones) are irrelevant.
  for (std::size_t i = journal.outputs.size(); i-- > 0;) {
    const JournalOutputRecord& rec = journal.outputs[i];
    const auto why = tryAdopt(rec, rs, impl, spec, &out);
    if (!why) {
      out.notes.push_back("journal.jsonl line " + std::to_string(rec.line) +
                          ": checkpoint adopted (" +
                          std::to_string(out.certified.size()) +
                          " outputs re-certified)");
      break;
    }
    ++out.demotedRecords;
    out.notes.push_back("journal.jsonl line " + std::to_string(rec.line) +
                        ": checkpoint demoted to redo: " + *why);
  }
  return out;
}

JournalRunStart makeRunStartRecord(const Netlist& impl, const Netlist& spec,
                                   const SysecoOptions& options,
                                   const std::vector<std::uint32_t>& order,
                                   std::size_t failingOutputsBefore) {
  JournalRunStart rs;
  rs.engine = "syseco";
  rs.implCrc = netlistCrc(impl);
  rs.specCrc = netlistCrc(spec);
  rs.optionsFingerprint = sysecoOptionsFingerprint(options);
  rs.seed = options.seed;
  rs.failingOutputsBefore = failingOutputsBefore;
  rs.order = order;
  return rs;
}

JournalOutputRecord makeOutputRecord(const RunCheckpoint& cp) {
  JournalOutputRecord rec;
  rec.report = toJournalReport(cp.report);
  for (const OutputReport& r : cp.reports)
    rec.reports.push_back(toJournalReport(r));
  rec.conflictsUsed = cp.conflictsUsed;
  rec.bddNodesUsed = cp.bddNodesUsed;
  rec.completed = cp.completed;
  rec.planned = cp.planned;
  const PatchTracker::State state = cp.tracker.state();
  rec.tracker.baseGates = state.baseGates;
  rec.tracker.baseNets = state.baseNets;
  for (const PatchTracker::RewireRecord& r : state.rewires)
    rec.tracker.rewires.push_back(
        JournalRewire{r.sink.gate, r.sink.port, r.oldNet, r.newNet});
  rec.tracker.cloneCache = state.cloneCache;
  rec.netlistDump = cp.working.dumpRawString();
  return rec;
}

JournalVerdicts makeVerdictsRecord(const SysecoDiagnostics& diag) {
  JournalVerdicts v;
  v.disagreements = diag.oracleDisagreements.size();
  for (const OutputCertificate& c : diag.certificates) {
    JournalVerdictEntry e;
    e.output = c.output;
    e.name = c.name;
    e.sat = routeVerdictName(c.sat.verdict);
    e.bdd = routeVerdictName(c.bdd.verdict);
    e.sim = routeVerdictName(c.sim.verdict);
    e.certified = c.certified;
    v.entries.push_back(std::move(e));
  }
  return v;
}

}  // namespace syseco
