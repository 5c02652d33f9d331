#pragma once
// Tseitin encoding of netlists into CNF, miter construction and
// combinational equivalence checking between a current implementation C and
// a synthesized revised specification C'.
//
// Primary inputs are correlated by *label* (paper §3.1: unique labels
// establish the behavioral correspondence between two circuits); both
// circuits' cones are encoded into one shared solver so that per-output
// miter queries, error-sample enumeration (the sampling domain of §5.1
// prefers samples from the error domain E) and incremental re-checks reuse
// learned clauses.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace syseco {

/// Lazily encodes the logic cones of one netlist into a shared Solver.
/// Input variables are owned by a shared name->Var map so several encoders
/// (e.g. for C and C') agree on correlated inputs.
class NetlistEncoder {
 public:
  NetlistEncoder(Solver& solver, const Netlist& netlist,
                 std::unordered_map<std::string, Var>& inputVarByName);

  /// CNF variable computing `net`; encodes the cone on first use.
  Var netVar(NetId net);

  /// CNF variable of output `o`.
  Var outputVar(std::uint32_t o) { return netVar(netlist_.outputNet(o)); }

  const Netlist& netlist() const { return netlist_; }
  Solver& solver() { return solver_; }

 private:
  Var encodeGate(GateId g);

  Solver& solver_;
  const Netlist& netlist_;
  std::unordered_map<std::string, Var>& inputVarByName_;
  /// varOfNet_ marker for a net whose cone is being encoded right now.
  static constexpr Var kEncoding = -2;

  std::vector<Var> varOfNet_;  // -1 when not yet encoded
};

/// Joint encoding of (C, C') with label-correlated inputs and lazy
/// per-output-pair miters.
class PairEncoding {
 public:
  PairEncoding(const Netlist& c, const Netlist& cPrime);

  Solver& solver() { return solver_; }
  NetlistEncoder& implEncoder() { return enc_; }
  NetlistEncoder& specEncoder() { return encPrime_; }

  /// Installs a resource governor on the shared solver: every query made
  /// through this encoding charges the guard's conflict ledger and honors
  /// its deadline (see Solver::setResourceGuard). After an Unknown result,
  /// stopReason() says whether a budget or the deadline was responsible.
  void setResourceGuard(ResourceGuard* guard) {
    solver_.setResourceGuard(guard);
  }
  StatusCode stopReason() const { return solver_.stopReason(); }

  /// Miter variable that is true iff output oC of C differs from output
  /// oCp of C' (created on first use).
  Var diffVar(std::uint32_t oC, std::uint32_t oCp);

  /// Solves "outputs differ". Sat => counterexample available via
  /// extractInputs(); Unsat => outputs equivalent; Unknown => budget hit.
  Solver::Result solveDiff(std::uint32_t oC, std::uint32_t oCp,
                           std::int64_t conflictBudget = -1);

  /// solveDiff with SAT sweeping: simulation-suggested internal
  /// equivalences (plain or complemented) between the two cones are proven
  /// bottom-up with a small per-pair budget and added as clauses, which
  /// turns structurally-dissimilar (XOR/mux-heavy) miters from hard CDCL
  /// instances into easy ones. Proven pairs are cached across calls on the
  /// same encoding.
  Solver::Result solveDiffSwept(std::uint32_t oC, std::uint32_t oCp,
                                std::int64_t conflictBudget, Rng& rng,
                                std::int64_t pairBudget = 5000);

  /// Solves "net a of C differs from net b of C'" (up to complement when
  /// `complement` is set). Unsat = the nets are equivalent; used by
  /// matching-based engines to confirm simulation-suggested internal
  /// equivalences.
  Solver::Result solveNetsDiff(NetId implNet, NetId specNet, bool complement,
                               std::int64_t conflictBudget = -1);

  /// Reads the current model back as an input pattern over C's inputs.
  /// Inputs without a CNF variable (outside every encoded cone) or left
  /// unassigned are filled from `rng` if given, else 0.
  InputPattern extractInputs(Rng* rng = nullptr) const;

  /// Enumerates up to `maxSamples` distinct error-domain assignments for
  /// the given output pair, blocking each found sample on the support of
  /// the pair. Stops early when the error space is exhausted or the budget
  /// trips.
  std::vector<InputPattern> enumerateErrors(std::uint32_t oC,
                                            std::uint32_t oCp,
                                            std::size_t maxSamples,
                                            std::int64_t conflictBudget,
                                            Rng* rng = nullptr);

 private:
  void prepareSweeping(Rng& rng);

  const Netlist& c_;
  const Netlist& cPrime_;
  Solver solver_;
  std::unordered_map<std::string, Var> inputVarByName_;
  NetlistEncoder enc_;
  NetlistEncoder encPrime_;
  std::unordered_map<std::uint64_t, Var> diffVars_;
  // SAT-sweeping state (built lazily on first solveDiffSwept call).
  bool sweepReady_ = false;
  std::vector<Signature> implSigs_;
  std::vector<Signature> specSigs_;
  std::unordered_map<std::uint64_t, std::vector<NetId>> implBySig_;
  std::unordered_set<NetId> sweptSpecNets_;
};

/// One-shot equivalence check of an output pair. Returns Unsat when
/// equivalent; Sat (with counterexample in *cex when non-null) when they
/// differ; Unknown when the conflict budget is exceeded.
Solver::Result checkOutputEquiv(const Netlist& c, std::uint32_t oC,
                                const Netlist& cPrime, std::uint32_t oCp,
                                InputPattern* cex = nullptr,
                                std::int64_t conflictBudget = -1);

/// Checks whether two nets of the same netlist are equivalent
/// (optionally up to complement). Unsat = equivalent.
Solver::Result checkNetsEquiv(const Netlist& n, NetId a, NetId b,
                              bool complement = false,
                              std::int64_t conflictBudget = -1);

/// Detects all failing outputs of C against C' (outputs matched by label):
/// a cheap random-simulation pass seeds the definite failures, and a shared
/// incremental SAT encoding confirms or refutes the rest exactly.
/// Output indices refer to C; outputs of C with no same-label counterpart
/// in C' are ignored.
///
/// Under a resource governor the exact confirmations may come back Unknown;
/// those outputs are appended to `*unresolved` (when non-null) so callers
/// can treat them conservatively - the governed engine rectifies them via
/// the guaranteed fallback rather than assuming they are healthy.
std::vector<std::uint32_t> findFailingOutputs(
    const Netlist& c, const Netlist& cPrime, Rng& rng,
    std::int64_t perOutputBudget = -1, ResourceGuard* guard = nullptr,
    std::vector<std::uint32_t>* unresolved = nullptr);

}  // namespace syseco
