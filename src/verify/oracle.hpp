#pragma once
// Tri-modal patch certification oracle.
//
// The engine's own final verification re-uses the SAT route that found the
// patch, so a bug in the CNF encoding, the BDD quantification or the
// plan-order commit logic can silently certify a wrong patch. The oracle
// re-proves every committed patch through three *independent* routes and
// cross-checks their verdicts:
//
//  1. SAT: combinational equivalence on a freshly re-encoded miter (a new
//     PairEncoding per output - no solver state, learned clauses or
//     variable numbering shared with the search).
//  2. BDD: both output cones built monolithically over label-correlated
//     input variables in a fresh manager; equivalence is XOR == false.
//     When the node budget trips mid-build, the route reports
//     skipped(budget) - never a verdict it did not finish computing.
//  3. Simulation: a mass random pass plus a per-output directed block
//     (walking-one/zero and random patterns confined to the output's
//     support). Simulation alone can only refute or pass-bounded.
//
// An output is certified when at least one route proves equivalence and no
// route refutes it. A refutation while the engine claims success is an
// OracleDisagreement: the counterexample is ddmin-shrunk against the
// simulator and handed to the caller for repro-bundle packaging and
// quarantine.
//
// Thread safety: certify() is const and every call builds its own
// PairEncoding, BDD manager and simulators, with RNG seeds derived only
// from (options.seed, output). One oracle may therefore certify different
// outputs on several threads at once, as long as nobody mutates the
// borrowed netlists meanwhile.
//
// Fault-injection order: the BDD route's "oracle.bdd" site is drawn by the
// caller (drawBddFault) rather than inside the route, so the hit ordinals
// never depend on thread timing. The engine draws once per certification:
// first the first-pass certification of every label-matched pair in impl
// output order (serially, before the parallel fan-out), then one draw per
// quarantined output's re-certification, again in output order. The
// sequence is the same for every --jobs value.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "netlist/netlist.hpp"
#include "sim/simulator.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace syseco {

enum class RouteVerdict {
  kEquivalent,     ///< the route proved the pair equivalent
  kNotEquivalent,  ///< the route found a concrete counterexample
  kPassedBounded,  ///< no mismatch found within a bounded (sim) search
  kSkippedBudget,  ///< the route's resource budget tripped mid-check
};

inline const char* routeVerdictName(RouteVerdict v) {
  switch (v) {
    case RouteVerdict::kEquivalent: return "equivalent";
    case RouteVerdict::kNotEquivalent: return "not-equivalent";
    case RouteVerdict::kPassedBounded: return "passed-bounded";
    case RouteVerdict::kSkippedBudget: return "skipped(budget)";
  }
  return "unknown";
}

struct RouteResult {
  RouteVerdict verdict = RouteVerdict::kSkippedBudget;
  double seconds = 0.0;
  std::string detail;  ///< why skipped / where the mismatch was found
};

struct OracleOptions {
  std::size_t bddNodeBudget = 1u << 20;  ///< fresh-manager node limit
  std::uint64_t seed = 1;  ///< all oracle randomness derives from this
};

/// Per-output certification record, one per (impl output, spec output) pair.
struct OutputCertificate {
  std::uint32_t output = 0;  ///< implementation output index
  std::string name;
  RouteResult sat;
  RouteResult bdd;
  RouteResult sim;
  /// >= 1 route proved equivalence and none refuted it.
  bool certified = false;
  /// Two routes returned contradicting *definite* verdicts (equivalent vs
  /// not-equivalent) - a bug in one of the reasoning engines themselves.
  bool routesConflict = false;
  /// Counterexample (over impl inputs) when a route refuted; ddmin-shrunk
  /// against the simulator. Empty when certified.
  InputPattern cex;
  std::size_t cexDeviations = 0;  ///< nonzero bits after minimization
  bool cexReproduced = false;     ///< simulator confirmed the mismatch
  double cexSeconds = 0.0;        ///< counterexample minimization time
  /// BDD-route engine telemetry (peak nodes, cache hit rate, reorders) for
  /// the --report observability block; zeros when the route never built a
  /// manager (fault-injected skip).
  BddStats bddStats;

  /// Time the certification took: the three routes plus minimization.
  double seconds() const {
    return sat.seconds + bdd.seconds + sim.seconds + cexSeconds;
  }
};

/// A certified-wrong patch: the engine committed this output as correct,
/// the oracle refuted it. Carries everything the repro bundle needs.
struct OracleDisagreement {
  std::uint32_t output = 0;
  std::string name;
  std::string detail;  ///< route verdicts, one line
  InputPattern cex;    ///< minimized counterexample (impl input order)
  std::string bundleDir;  ///< repro bundle location, "" when none written
};

class CertificationOracle {
 public:
  /// Borrows both netlists; they must outlive the oracle. The impl netlist
  /// may grow between certify() calls (quarantine re-certification) - each
  /// call builds its own simulation state.
  CertificationOracle(const Netlist& impl, const Netlist& spec,
                      const OracleOptions& options);

  /// Certifies impl output `o` against spec output `op` (label-matched by
  /// the caller). Deterministic in (netlists, options, bddFault).
  /// `bddFault` is the pre-drawn "oracle.bdd" decision (drawBddFault).
  OutputCertificate certify(std::uint32_t o, std::uint32_t op,
                            std::optional<fault::Kind> bddFault) const;

  /// certify() drawing its own "oracle.bdd" decision, for serial callers.
  OutputCertificate certify(std::uint32_t o, std::uint32_t op) const {
    return certify(o, op, drawBddFault());
  }

  /// One hit of the "oracle.bdd" injection site: the fault the next
  /// certification's BDD route must act on, if any.
  static std::optional<fault::Kind> drawBddFault() {
    return fault::fire("oracle.bdd");
  }

  /// Maps an impl-input pattern to the spec's input order by label; spec
  /// inputs with no impl counterpart read 0.
  InputPattern mapToSpec(const InputPattern& implPattern) const;

 private:
  RouteResult satRoute(std::uint32_t o, std::uint32_t op,
                       InputPattern* cex) const;
  RouteResult bddRoute(std::uint32_t o, std::uint32_t op,
                       std::optional<fault::Kind> injected, InputPattern* cex,
                       BddStats* stats) const;
  RouteResult simRoute(std::uint32_t o, std::uint32_t op,
                       InputPattern* cex) const;

  const Netlist& impl_;
  const Netlist& spec_;
  const OracleOptions opt_;
  /// Per spec input: impl input index providing its value, or kNullId.
  std::vector<std::uint32_t> specInputFromImpl_;
};

/// ddmin-style counterexample shrinking: drives as many deviating (nonzero)
/// input bits as possible back to the all-zero baseline while the
/// simulator still observes evalOnce(impl)[o] != evalOnce(spec)[op].
/// Returns the minimized pattern; `reproduced` (when non-null) reports
/// whether the *original* pattern exhibited the mismatch at all (when it
/// does not, the input is returned unchanged - a cex the simulator cannot
/// reproduce is itself part of the diagnosis).
InputPattern minimizeCex(const Netlist& impl, std::uint32_t o,
                         const Netlist& spec, std::uint32_t op,
                         const CertificationOracle& oracle,
                         const InputPattern& cex, bool* reproduced = nullptr);

}  // namespace syseco
