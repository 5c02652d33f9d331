#pragma once
// The per-output search: the body of RewireRectification (paper §5.2) for
// one failing output of the current netlist.
//
// An OutputSearch samples the output's error domain (§5.1), enumerates
// feasible point-sets through H(t) (§4.2), ranks candidate rewiring nets
// (§4.3), computes Xi(c) (§4.4, Theorem 1) and validates the chosen rewires
// with SAT, refining the samples with counterexamples (CEGAR). It reads
// nothing but its output, the netlist it patches, the spec, the
// search-shaping options and the shared analyses, and it owns every piece
// of per-output state from construction: the RNG stream derived from (seed,
// output), the spec-matching cloner, the resource guard it charges, the
// degradation counters and the clone-cost table. So the search is a pure
// function of (seed, output, netlist), which is what makes every executor
// and every resume replay it bit-exactly.
//
// runOutputTask is the pure per-output task every executor runs (in-process
// threads, forked --isolate workers and --serve-worker agents): a search
// against a private copy of the base snapshot, extracted as a WorkerPatch.

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "bdd/bdd.hpp"
#include "eco/isolate.hpp"
#include "eco/matching.hpp"
#include "eco/patch.hpp"
#include "eco/sampling.hpp"
#include "eco/syseco.hpp"
#include "netlist/analysis.hpp"
#include "netlist/netlist.hpp"
#include "sim/simulator.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace syseco {

/// What every search of one run shares, read-only.
struct SearchInputs {
  const Netlist& spec;
  const SysecoOptions& options;
  const NetlistAnalysis& baseAnalysis;  ///< of the unpatched base snapshot
  const NetlistAnalysis& specAnalysis;
};

/// Everything a per-output task is a pure function of, minus the output
/// and its resource slice.
struct TaskInputs {
  const Netlist& base;  ///< the unpatched snapshot every task searches
  /// The full planned output set: none of them has committed on `base`,
  /// so the search treats them all as still failing.
  const std::vector<std::uint32_t>& protect;
  SearchInputs search;
};

/// The pure per-output task: rectify `output` of a private copy of
/// `in.base` under the resource slice `limits` and return the patch. The
/// one place a WorkerPatch is built, so every executor's result is
/// byte-identical. Escaping exceptions are contained into a non-ok Status -
/// a worker reports a task failure, never dies.
Result<WorkerPatch> runOutputTask(const TaskInputs& in, std::uint32_t output,
                                  const ResourceGuard::Limits& limits);

/// The spec output matched to output `o` of `w` by name, or kNullId.
std::uint32_t specOutputOf(const Netlist& w, const Netlist& spec,
                           std::uint32_t o);

/// True when output `o` of `w` already matches spec output `op` (earlier
/// patches fixed it: global favoring). One swept SAT query drawing from
/// `rng` and charged to `guard`; its time counts as sampling.
bool outputAlreadyFixed(const Netlist& w, const Netlist& spec,
                        std::uint32_t o, std::uint32_t op,
                        const SysecoOptions& opt, Rng& rng,
                        ResourceGuard& guard, SysecoDiagnostics& diag);

/// Every output the rewired `pins` can reach, plus `o`, with `o` first:
/// the outputs a rewire must be re-proven on.
std::vector<std::uint32_t> affectedOutputs(const Netlist& w,
                                           const std::vector<Sink>& pins,
                                           std::uint32_t o);

/// Nets reachable forward from `from`, `from` included.
std::unordered_set<NetId> reachableNets(const Netlist& w, NetId from);

/// The BDD of a gate of `type` over its fanin BDDs `in`. Multi-input XOR
/// folds from in[0]. Partials are pinned, so the call is safe in a manager
/// that reorders.
Bdd::Ref gateBdd(Bdd& mgr, GateType type, const std::vector<Bdd::Ref>& in);

class OutputSearch {
 public:
  /// A search for output `o` of `tracker`'s netlist. Outputs in `failing`
  /// other than `o` are still broken, so the simulation screen does not
  /// hold candidates to them. Every solve is charged to `guard`; counters,
  /// phase times and the output's report go to `diag`.
  OutputSearch(const SearchInputs& in, PatchTracker& tracker,
               const std::unordered_set<std::uint32_t>& failing,
               std::uint32_t o, ResourceGuard& guard, SysecoDiagnostics& diag);

  /// Rectifies the output: already fixed, a validated rewire, or the
  /// cone-clone fallback. Returns true when an OutputReport was pushed
  /// (false only when the output has no spec twin).
  bool run();

  /// Always succeeds: rewires the output to a match-aware clone of its
  /// revised cone (Proposition 1). The output must have a spec twin.
  void fallback();

 private:
  struct PinCandidate;
  struct NetCandidate;
  struct RewireChoice;
  struct AttemptOutcome;
  struct SimScreen;
  struct SymbolicCone;

  void finishReport(OutputReport report, bool viaFallback, double seconds);
  SampleSet collectSamples();
  AttemptOutcome attempt(const SampleSet& samples);
  void computeCloneCostDp(const Simulator& wSim, const Simulator& sSim);
  std::vector<PinCandidate> rankPins(const std::vector<GateId>& cone,
                                     const Simulator& wSim,
                                     const std::vector<std::uint64_t>& errMask,
                                     const std::vector<std::uint64_t>& allMask);
  bool topologicallyIndependent(const std::vector<PinCandidate>& pins,
                                const std::vector<std::size_t>& ps);
  template <typename WrapFn>
  Bdd::Ref evalOutput(SymbolicCone& sc, const std::vector<GateId>& cone,
                      const std::vector<PinCandidate>& pins,
                      const std::vector<std::size_t>& ps, WrapFn wrap);
  std::vector<std::vector<std::size_t>> enumeratePointSets(
      const SampleSet& samples, const Simulator& wSim, const Simulator& sSim,
      const std::vector<PinCandidate>& pins, int m,
      const std::vector<GateId>& cone);
  std::vector<NetCandidate> candidateNets(
      const PinCandidate& pin, const Simulator& wSim, const Simulator& sSim,
      const std::vector<std::uint64_t>& errMask,
      const std::vector<std::uint64_t>& correctMask,
      const SupportTable& wSupports,
      const std::vector<std::uint64_t>& specOutMask,
      const std::vector<std::uint32_t>& wLevels,
      const std::vector<std::uint32_t>& specLevels,
      const std::vector<NetId>& specCone);
  std::vector<NetCandidate> synthesizeCandidates(
      const PinCandidate& pin, const Signature& pinSig,
      const std::vector<NetCandidate>& ranked, const Signature& required,
      const std::vector<std::uint64_t>& careMask,
      const std::unordered_set<NetId>& forbidden,
      const std::vector<std::uint32_t>& wLevels, NetId scanLimit);
  std::vector<std::uint64_t> specOutSupportMaskInW(std::size_t words);
  NetId matchedClone(NetId specNet);
  std::vector<RewireChoice> computeChoices(
      const SampleSet& samples, const Simulator& wSim, const Simulator& sSim,
      const std::vector<PinCandidate>& pins,
      const std::vector<std::size_t>& ps,
      const std::vector<std::vector<NetCandidate>>& cands,
      const std::vector<GateId>& cone);
  bool tryChoice(const SimScreen& screen,
                 const std::vector<PinCandidate>& pins,
                 const std::vector<std::size_t>& ps,
                 const std::vector<std::vector<NetCandidate>>& cands,
                 const RewireChoice& choice, AttemptOutcome& outcome);
  bool quickSimScreen(const SimScreen& screen,
                      const std::vector<Sink>& rewiredPins,
                      InputPattern* failingPattern);

  const Netlist& spec_;
  const SysecoOptions& opt_;
  const NetlistAnalysis& baseAnalysis_;
  const NetlistAnalysis& specAnalysis_;
  PatchTracker& tracker_;
  Netlist& w_;  ///< tracker_'s netlist
  const std::unordered_set<std::uint32_t>& failing_;
  const std::uint32_t o_;
  const std::uint32_t op_;  ///< o_'s spec twin, or kNullId
  ResourceGuard& guard_;
  SysecoDiagnostics& diag_;
  Rng rng_;  ///< derived from (seed, output) alone
  /// Created on first use; an interior rewire invalidates its caches, so a
  /// validated choice drops it.
  std::unique_ptr<MatchedSpecCloner> cloner_;
  int degradeSteps_ = 0;             ///< candidate-space halvings so far
  std::size_t effMaxPointSets_ = 0;  ///< point-set quota after halvings
  std::vector<std::uint32_t> cloneCostDp_;  ///< per spec net, per attempt
};

}  // namespace syseco
