#pragma once
// Exact single-point rectification baseline (the "functional prior work"
// family of paper §2: Madre et al. [9]'s Boolean-equation single-fault
// rectification, and the single-point synthesis setting of [13]/[19]).
//
// For every failing output the engine builds *exact* BDDs of the
// implementation cone h(x, y) (one candidate pin freed as y) and the
// revised function f'(x), and checks the classic single-point condition
//
//   forall x:  h(x,0) == f'(x)  OR  h(x,1) == f'(x)
//
// A feasible pin yields the rectification-function interval
// [L, U] = [not B, A] with A = (h|y=1 == f'), B = (h|y=0 == f'); the patch
// function is synthesized as an irredundant two-level AND-OR cover of the
// interval (Minato-Morreale ISOP) over the primary inputs.
//
// Strengths and weaknesses are the ones the paper ascribes to this family:
// exact and representation-independent, but (i) limited to one
// rectification point per output, (ii) the patch is fresh two-level logic
// rather than reused nets, and (iii) exact BDDs blow up on wide-support
// cones - in which case this engine falls back to match-aware cone
// cloning, like the others.

#include "eco/patch.hpp"
#include "netlist/netlist.hpp"

namespace syseco {

struct ExactFixOptions {
  std::size_t maxSupport = 18;       ///< max PI support for exact BDDs
  std::size_t maxConeGates = 1500;   ///< cone size guard
  std::size_t maxCandidatePins = 16; ///< pins tried per output
  /// Node limit of the per-output BDD manager. The manager keeps identity
  /// variable order: ISOP covers (and therefore the synthesized patch
  /// shape) depend on it, so this baseline's patches stay stable.
  std::size_t bddNodeLimit = 1u << 20;
  std::uint64_t seed = 1;
};

struct ExactFixDiagnostics {
  std::size_t outputsViaExactFix = 0;  ///< solved by single-point synthesis
  std::size_t outputsViaFallback = 0;  ///< cone cloned (support/size limits)
  std::size_t pinsTried = 0;
  std::size_t coverCubes = 0;          ///< total ISOP cubes synthesized
};

EcoResult runExactFix(const Netlist& impl, const Netlist& spec,
                      const ExactFixOptions& options = {},
                      ExactFixDiagnostics* diagnostics = nullptr);

}  // namespace syseco
