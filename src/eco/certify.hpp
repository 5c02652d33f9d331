#pragma once
// The end of every syseco run: invariant audits at phase boundaries and
// the tri-modal certification of the patched netlist (verify/oracle.hpp).
// Both read the run's netlist, patch and options and report into its
// diagnostics; neither shapes the search.

#include "eco/patch.hpp"
#include "eco/syseco.hpp"
#include "netlist/netlist.hpp"

namespace syseco {

/// Audits `w` at the phase boundary `phase` under opt.audit (a no-op when
/// audits are off). A clean audit is recorded in `diag`; a failed one
/// aborts the run with a structured StatusError{kInternal} naming every
/// violated invariant, where the corruption first became observable.
void auditBoundary(const Netlist& w, const SysecoOptions& opt,
                   SysecoDiagnostics& diag, const char* phase);

/// Tri-modal final verification of `result.rectified`, the netlist
/// `tracker` patches: every label-matched output is certified through the
/// independent SAT / BDD / simulation routes, on up to opt.jobs threads. A
/// refuted output (the engine committed it as correct, the oracle
/// disagrees) is diagnosed - minimized counterexample, optional repro
/// bundle - and quarantined to a fresh clone of its revised cone
/// (Proposition 1), then re-certified. Sets result.success when every pair
/// ends certified, and re-finalizes result.stats after a quarantine.
void certifyRun(EcoResult& result, PatchTracker& tracker, const Netlist& spec,
                const SysecoOptions& opt, SysecoDiagnostics& diag);

}  // namespace syseco
