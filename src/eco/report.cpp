#include "eco/report.hpp"

#include <sstream>

#include "io/journal_io.hpp"
#include "util/build_info.hpp"
#include "util/journal.hpp"
#include "verify/oracle.hpp"

namespace syseco {

void writeRunReport(std::ostream& os, const std::string& engine,
                    const EcoResult& result, const SysecoDiagnostics& diag,
                    AuditLevel auditLevel, int exitCode) {
  os << "{\n";
  os << "  \"engine\": \"" << jsonEscape(engine) << "\",\n";
  os << "  \"build\": " << buildInfoJson("  ") << ",\n";
  os << "  \"success\": " << (result.success ? "true" : "false") << ",\n";
  os << "  \"degraded\": " << (diag.resourceDegraded() ? "true" : "false")
     << ",\n";
  os << "  \"exit_code\": " << exitCode << ",\n";
  os << "  \"run_limit\": \"" << statusCodeName(diag.runLimit) << "\",\n";
  os << "  \"failing_outputs\": " << result.failingOutputsBefore << ",\n";
  os << "  \"seconds\": " << result.seconds << ",\n";
  // "seconds" above is wall clock; the per-phase numbers below are summed
  // across worker threads, so their total exceeds wall under --jobs N.
  os << "  \"cpu_seconds\": "
     << (diag.secondsSampling + diag.secondsSymbolic + diag.secondsScreening +
         diag.secondsValidation + diag.secondsFallback + diag.secondsSweep +
         diag.secondsVerifyCpu)
     << ",\n";
  os << "  \"patch\": {\"inputs\": " << result.stats.inputs
     << ", \"outputs\": " << result.stats.outputs
     << ", \"gates\": " << result.stats.gates
     << ", \"nets\": " << result.stats.nets << "},\n";
  os << "  \"budget\": {\"conflicts_used\": " << diag.conflictsUsed
     << ", \"bdd_nodes_used\": " << diag.bddNodesUsed << "},\n";
  os << "  \"phase_cpu_seconds\": {"
     << "\"sampling\": " << diag.secondsSampling
     << ", \"symbolic\": " << diag.secondsSymbolic
     << ", \"screening\": " << diag.secondsScreening
     << ", \"validation\": " << diag.secondsValidation
     << ", \"fallback\": " << diag.secondsFallback
     << ", \"sweep\": " << diag.secondsSweep
     << ", \"verify\": " << diag.secondsVerifyCpu << "},\n";
  // Speculative work thrown away (not in the phase totals above). Both
  // figures depend on task scheduling, so - like timing - they differ
  // across --jobs, --isolate and --resume runs of the same case.
  os << "  \"speculation\": {\"frontier_skipped_tasks\": "
     << diag.frontierSkippedTasks
     << ", \"discarded_seconds\": " << diag.secondsDiscardedSpeculation
     << "},\n";
  os << "  \"sweep\": {\"merges\": " << diag.sweepMerges
     << ", \"isop_rewrites\": " << diag.isopRewrites
     << ", \"isop_gates_saved\": " << diag.isopGatesSaved << "},\n";
  // Invariant audits: boundary count and findings (a written report means
  // every audit passed - failures abort the run - but the findings field
  // keeps the schema honest either way).
  os << "  \"audit\": {\"level\": \"" << auditLevelName(auditLevel)
     << "\", \"boundaries\": " << diag.audits.size()
     << ", \"seconds\": " << diag.secondsAudit << ", \"findings\": [";
  {
    bool first = true;
    for (const AuditReport& a : diag.audits)
      for (const AuditFinding& f : a.findings) {
        os << (first ? "" : ", ") << "{\"phase\": \"" << jsonEscape(a.phase)
           << "\", \"check\": \"" << jsonEscape(f.check)
           << "\", \"detail\": \"" << jsonEscape(f.detail) << "\"}";
        first = false;
      }
  }
  os << "]},\n";
  // Oracle certificates: per-output verdicts, deliberately timing-free so
  // reports from --jobs/--isolate/--resume runs diff clean after the
  // standard timing normalization. Every syseco run certifies; the
  // baseline engines do not.
  os << "  \"oracle\": {\"enabled\": "
     << (engine == "syseco" ? "true" : "false")
     << ", \"disagreements\": " << diag.oracleDisagreements.size()
     << ", \"outputs\": [";
  for (std::size_t i = 0; i < diag.certificates.size(); ++i) {
    const OutputCertificate& c = diag.certificates[i];
    // Per-output BDD telemetry (deterministic for a fixed seed and
    // identical across --jobs/--isolate/--resume: certification runs
    // post-search in the main process).
    os << (i ? ", " : "") << "{\"output\": " << c.output << ", \"name\": \""
       << jsonEscape(c.name) << "\", \"sat\": \""
       << routeVerdictName(c.sat.verdict) << "\", \"bdd\": \""
       << routeVerdictName(c.bdd.verdict) << "\", \"sim\": \""
       << routeVerdictName(c.sim.verdict) << "\", \"certified\": "
       << (c.certified ? "true" : "false")
       << ", \"bdd_stats\": {\"peak_nodes\": " << c.bddStats.peakNodes
       << ", \"unique_hits\": " << c.bddStats.uniqueHits
       << ", \"cache_bits\": " << c.bddStats.cacheBitsNow
       << ", \"cache_hit_rate\": " << c.bddStats.cacheHitRate()
       << ", \"reorders\": " << c.bddStats.reorders
       << ", \"swaps\": " << c.bddStats.swaps << "}}";
  }
  os << "]},\n";
  os << "  \"outputs\": [";
  for (std::size_t i = 0; i < diag.outputs.size(); ++i) {
    const OutputReport& r = diag.outputs[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"output\": " << r.output << ", \"name\": \""
       << jsonEscape(r.name) << "\", \"status\": \""
       << outputRectStatusName(r.status) << "\", \"limit\": \""
       << statusCodeName(r.limit) << "\", \"conflicts_used\": "
       << r.conflictsUsed << ", \"bdd_nodes_used\": " << r.bddNodesUsed
       << ", \"seconds\": " << r.seconds
       << ", \"degrade_steps\": " << r.degradeSteps
       << ", \"attempts\": " << r.workerFailedAttempts
       << ", \"exit_cause\": \"" << workerExitCauseName(r.workerExitCause)
       << "\"}";
  }
  os << (diag.outputs.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
}

std::string runReportText(const std::string& engine, const EcoResult& result,
                          const SysecoDiagnostics& diag, AuditLevel auditLevel,
                          int exitCode) {
  std::ostringstream os;
  writeRunReport(os, engine, result, diag, auditLevel, exitCode);
  return os.str();
}

}  // namespace syseco
