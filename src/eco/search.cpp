#include "eco/search.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <unordered_map>

#include "cnf/encode.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace syseco {

/// Candidate rectification point with an error-domain observability score.
/// Either a single sink pin of the failing output's cone (or the output
/// itself), or a *group* of sink pins sharing one driving net - rewiring
/// the group replaces that net inside the cone while protecting its other
/// sinks (the paper's Figure 1 "all but one sink" pattern generalized; the
/// group shares one free variable y_i, so m stays small).
struct OutputSearch::PinCandidate {
  std::vector<Sink> sinks;
  NetId driver = kNullId;
  std::size_t score = 0;
  std::uint32_t driverLevel = 0;  ///< arrival of the current driver
  /// Error-sample observability mask of the point (which error samples the
  /// pin can flip); drives required-function synthesis.
  std::vector<std::uint64_t> obsMask;
  /// Observability over *all* genuine samples; samples outside it are
  /// don't-cares for this point's required function.
  std::vector<std::uint64_t> obsFullMask;

  bool isOutputPin() const {
    return sinks.size() == 1 && sinks[0].isOutput();
  }
};

/// Candidate rewiring net for one rectification point (paper §4.3).
struct OutputSearch::NetCandidate {
  NetId net = kNullId;   ///< net in W, or in the spec when fromSpec
  bool fromSpec = false;
  std::uint32_t level = 0;
  std::uint32_t cloneCost = 0;   ///< approx. gates a spec clone would add
  std::ptrdiff_t rankScore = 0;  ///< balanced sample-agreement key
  Signature sig;                 ///< sampled function of the candidate
};

/// One concrete rewire operation R = p1/s1,...,pm/sm.
struct OutputSearch::RewireChoice {
  std::vector<std::size_t> pick;  ///< candidate index per point
  double cost = 0.0;
  /// Tie-break: total arrival of the touched pins' drivers. Upstream
  /// rewires win ties - they perturb less and their patch logic is more
  /// reusable by later outputs.
  std::uint64_t tieLevel = 0;
};

struct OutputSearch::AttemptOutcome {
  bool applied = false;
  std::vector<InputPattern> counterexamples;        ///< SAT refutations
  std::vector<InputPattern> screenCounterexamples;  ///< sim-screen refutations
  /// Resource trip that cut this attempt short; the refinement loop stops
  /// iterating and degrades to the fallback when set.
  StatusCode limit = StatusCode::kOk;
};

/// Pre-simulated reference data for the cheap validation screen: the
/// current samples plus a block of random patterns, the spec's output
/// signatures, and the implementation's *base* values so each candidate
/// only re-simulates its affected region (incremental ECO simulation).
struct OutputSearch::SimScreen {
  SampleSet patterns;               ///< samples + random screen patterns
  std::vector<Signature> specOut;   ///< spec signature per *impl* output idx
  std::unique_ptr<Simulator> base;  ///< W values before any tentative rewire
  std::size_t baseNets = 0;         ///< nets covered by `base`
};

namespace {

std::uint64_t pinKey(const Sink& s) {
  return (static_cast<std::uint64_t>(s.gate) << 32) | s.port;
}

/// Per-word partial derivative of a gate output w.r.t. fanin `port`,
/// evaluated at simulated values (classic observability approximation).
std::uint64_t derivWord(GateType type, const std::vector<const Signature*>& in,
                        std::size_t port, std::size_t w) {
  switch (type) {
    case GateType::Const0:
    case GateType::Const1:
      return 0;
    case GateType::Buf:
    case GateType::Not:
    case GateType::Xor:
    case GateType::Xnor:
      return ~0ULL;
    case GateType::And:
    case GateType::Nand: {
      std::uint64_t d = ~0ULL;
      for (std::size_t i = 0; i < in.size(); ++i)
        if (i != port) d &= (*in[i])[w];
      return d;
    }
    case GateType::Or:
    case GateType::Nor: {
      std::uint64_t d = ~0ULL;
      for (std::size_t i = 0; i < in.size(); ++i)
        if (i != port) d &= ~(*in[i])[w];
      return d;
    }
    case GateType::Mux: {
      const std::uint64_t sel = (*in[0])[w];
      if (port == 0) return (*in[1])[w] ^ (*in[2])[w];
      if (port == 1) return ~sel;
      return sel;
    }
  }
  return 0;
}

std::unordered_set<GateId> reachableGates(const Netlist& w, NetId from) {
  std::unordered_set<GateId> seen;
  std::vector<NetId> stack{from};
  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    for (const Sink& s : w.net(n).sinks) {
      if (s.isOutput()) continue;
      if (seen.insert(s.gate).second) stack.push_back(w.gate(s.gate).out);
    }
  }
  return seen;
}

/// Engine tunables for the sampling-domain managers (H(t) / Xi(c)).
/// These keep identity order: their variables are sample indices and
/// selector bits - an arbitrary encoding with no structure for sifting
/// to exploit - and no root provider is registered, so auto-reorder
/// stays disarmed by design (only the certification oracle's
/// monolithic-cone BDD route sifts).
BddConfig samplingBddConfig(std::size_t nodeLimit) {
  BddConfig cfg;
  cfg.nodeLimit = nodeLimit;
  return cfg;
}

}  // namespace

std::uint32_t specOutputOf(const Netlist& w, const Netlist& spec,
                           std::uint32_t o) {
  return spec.findOutput(w.outputName(o));
}

bool outputAlreadyFixed(const Netlist& w, const Netlist& spec,
                        std::uint32_t o, std::uint32_t op,
                        const SysecoOptions& opt, Rng& rng,
                        ResourceGuard& guard, SysecoDiagnostics& diag) {
  Timer phase;
  PairEncoding pe(w, spec);
  pe.setResourceGuard(&guard);
  const bool fixed = pe.solveDiffSwept(o, op, opt.validationBudget, rng) ==
                     Solver::Result::Unsat;
  diag.secondsSampling += phase.seconds();
  return fixed;
}

std::vector<std::uint32_t> affectedOutputs(const Netlist& w,
                                           const std::vector<Sink>& pins,
                                           std::uint32_t o) {
  std::unordered_set<std::uint32_t> outs{o};
  for (const Sink& s : pins) {
    if (s.isOutput()) {
      outs.insert(s.port);
      continue;
    }
    std::unordered_set<GateId> seenGate;
    std::vector<NetId> stack{w.gate(s.gate).out};
    while (!stack.empty()) {
      const NetId n = stack.back();
      stack.pop_back();
      for (const Sink& snk : w.net(n).sinks) {
        if (snk.isOutput()) {
          outs.insert(snk.port);
        } else if (seenGate.insert(snk.gate).second) {
          stack.push_back(w.gate(snk.gate).out);
        }
      }
    }
  }
  std::vector<std::uint32_t> result(outs.begin(), outs.end());
  std::sort(result.begin(), result.end());
  // Validate the target output first: it is the most likely refuter.
  auto it = std::find(result.begin(), result.end(), o);
  if (it != result.end()) std::iter_swap(result.begin(), it);
  return result;
}

std::unordered_set<NetId> reachableNets(const Netlist& w, NetId from) {
  std::unordered_set<NetId> seen{from};
  std::vector<NetId> stack{from};
  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    for (const Sink& s : w.net(n).sinks) {
      if (s.isOutput()) continue;
      const NetId out = w.gate(s.gate).out;
      if (seen.insert(out).second) stack.push_back(out);
    }
  }
  return seen;
}

Bdd::Ref gateBdd(Bdd& mgr, GateType type, const std::vector<Bdd::Ref>& in) {
  switch (type) {
    case GateType::Const0: return Bdd::kFalse;
    case GateType::Const1: return Bdd::kTrue;
    case GateType::Buf: return in[0];
    case GateType::Not: return mgr.bNot(in[0]);
    case GateType::And: return mgr.andMany(in);
    case GateType::Or: return mgr.orMany(in);
    case GateType::Nand:
    case GateType::Nor: {
      const Bdd::ScopedRef r(
          mgr, type == GateType::Nand ? mgr.andMany(in) : mgr.orMany(in));
      return mgr.bNot(r);
    }
    case GateType::Xor:
    case GateType::Xnor: {
      Bdd::ScopedRef r(mgr, in[0]);
      for (std::size_t k = 1; k < in.size(); ++k) r = mgr.bXor(r, in[k]);
      return type == GateType::Xnor ? mgr.bNot(r) : Bdd::Ref{r};
    }
    case GateType::Mux: return mgr.ite(in[0], in[2], in[1]);
  }
  return Bdd::kFalse;
}

OutputSearch::OutputSearch(const SearchInputs& in, PatchTracker& tracker,
                           const std::unordered_set<std::uint32_t>& failing,
                           std::uint32_t o, ResourceGuard& guard,
                           SysecoDiagnostics& diag)
    : spec_(in.spec),
      opt_(in.options),
      baseAnalysis_(in.baseAnalysis),
      specAnalysis_(in.specAnalysis),
      tracker_(tracker),
      w_(tracker.netlist()),
      failing_(failing),
      o_(o),
      op_(specOutputOf(w_, spec_, o)),
      guard_(guard),
      diag_(diag),
      // The search must depend only on (seed, output, current netlist) -
      // never on how the run got here - so that every executor and every
      // journal resume replays it bit-exactly.
      rng_(opt_.seed ^
           (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(o) + 1))),
      effMaxPointSets_(opt_.maxPointSets) {}

bool OutputSearch::run() {
  if (op_ == kNullId) return false;
  Timer outputTimer;
  OutputReport report;
  report.output = o_;
  report.name = w_.outputName(o_);

  // Earlier patches may have fixed this output already (global favoring).
  if (outputAlreadyFixed(w_, spec_, o_, op_, opt_, rng_, guard_, diag_)) {
    finishReport(std::move(report), /*viaFallback=*/false,
                 outputTimer.seconds());
    return true;
  }

  Timer samplePhase;
  SampleSet samples = collectSamples();
  diag_.secondsSampling += samplePhase.seconds();
  bool done = false;
  int screenOnlyRefines = 0;
  for (int iter = 0; iter < opt_.maxRefineIters && !done; ++iter) {
    if (!guard_.checkpoint("syseco.refine").isOk()) break;
    if (iter > 0) ++diag_.refinementRounds;
    AttemptOutcome outcome = attempt(samples);
    if (outcome.applied) {
      done = true;
      ++diag_.outputsViaRewire;
      break;
    }
    if (outcome.limit != StatusCode::kOk) break;  // budget/deadline: stop
    // Refine the sampling domain with whatever refuted the candidates:
    // SAT counterexamples first, then patterns the simulation screen
    // caught (both are genuine members of the mismatch evidence). Screen
    // evidence alone only buys a bounded number of extra rounds - it is
    // plentiful but weak.
    if (outcome.counterexamples.empty() &&
        outcome.screenCounterexamples.empty())
      break;  // refuted symbolically: nothing to learn from
    if (outcome.counterexamples.empty() && ++screenOnlyRefines > 2) break;
    // Cap the domain at 2N: beyond that the per-net BDDs grow while the
    // precision gain flattens (the trade-off of §5.1).
    for (InputPattern& cex : outcome.counterexamples) {
      if (samples.count() >= 2 * opt_.numSamples) break;
      samples.add(std::move(cex));
    }
    std::size_t taken = 0;
    for (InputPattern& cex : outcome.screenCounterexamples) {
      if (taken >= 4 || samples.count() >= 2 * opt_.numSamples) break;
      samples.add(std::move(cex));
      ++taken;
    }
  }
  if (!done) fallback();
  ++diag_.outputsRectified;
  finishReport(std::move(report), !done, outputTimer.seconds());
  return true;
}

void OutputSearch::finishReport(OutputReport report, bool viaFallback,
                                double seconds) {
  report.limit = guard_.trippedCode();
  report.degradeSteps = degradeSteps_;
  report.conflictsUsed = guard_.conflictsUsed();
  report.bddNodesUsed = guard_.bddNodesUsed();
  report.seconds = seconds;
  if (viaFallback) {
    report.status = OutputRectStatus::kFallback;
  } else if (report.limit != StatusCode::kOk || degradeSteps_ > 0) {
    report.status = OutputRectStatus::kDegraded;
  } else {
    report.status = OutputRectStatus::kExact;
  }
  if (opt_.verbose)
    std::fprintf(stderr, "[syseco] out=%u -> %s (limit=%s, %.2fs)\n",
                 report.output, outputRectStatusName(report.status),
                 statusCodeName(report.limit), report.seconds);
  diag_.outputs.push_back(std::move(report));
}

SampleSet OutputSearch::collectSamples() {
  SampleSet samples;
  // Degraded sampling: when the budget is already gone, skip the SAT
  // error-domain enumeration entirely and fall through to the uniform
  // top-up - weaker evidence, but free.
  const bool canEnumerate = guard_.checkpoint("syseco.sampling").isOk();
  if (opt_.useErrorDomainSampling && canEnumerate) {
    PairEncoding pe(w_, spec_);
    pe.setResourceGuard(&guard_);
    for (InputPattern& p :
         pe.enumerateErrors(o_, op_, opt_.numSamples, opt_.samplingBudget,
                            &rng_)) {
      samples.add(std::move(p));
    }
  }
  // Top up with uniform samples: a sparse error domain (sometimes a
  // single assignment on the pair's support) gives the required-function
  // machinery no context about what must be *preserved*. Uniform samples
  // are exactly that context; the error mask keeps them apart. This is
  // also the whole domain in the uniform-sampling ablation mode.
  while (samples.count() < opt_.numSamples) {
    InputPattern p(w_.numInputs(), 0);
    for (auto& bit : p) bit = rng_.flip() ? 1 : 0;
    samples.add(std::move(p));
  }
  return samples;
}

/// A circuit output is itself a rectification point with rectification
/// function f', realized at the corresponding output of C' (completeness
/// argument of §3.3). The clone is match-aware: spec sub-cones equivalent
/// to existing implementation logic tap that logic instead of being
/// replicated (the reuse principle of §1).
void OutputSearch::fallback() {
  Timer phase;
  tracker_.rewire(Sink{kNullId, o_}, matchedClone(spec_.outputNet(op_)));
  ++diag_.outputsViaFallback;
  diag_.secondsFallback += phase.seconds();
}

// --- One sampling-domain attempt ----------------------------------------

OutputSearch::AttemptOutcome OutputSearch::attempt(const SampleSet& samples) {
  AttemptOutcome outcome;

  // Sampled signatures of every net in W and in the spec.
  Rng fillRng = rng_.split();
  Simulator wSim = simulateOnSamples(w_, w_, samples, fillRng);
  Simulator sSim = simulateOnSamples(spec_, w_, samples, fillRng);
  std::vector<std::uint64_t> errMask =
      errorMask(wSim.outputValue(o_), sSim.outputValue(op_), samples);
  if (countBits(errMask) == 0) {
    // Uniform samples that happen to miss the error domain entirely:
    // score on all samples instead.
    errMask = errorMask(Signature(samples.simWords(), ~0ULL),
                        Signature(samples.simWords(), 0), samples);
  }
  // Genuine samples where the output is already correct.
  std::vector<std::uint64_t> correctMask = errorMask(
      Signature(samples.simWords(), ~0ULL),
      Signature(samples.simWords(), 0), samples);
  for (std::size_t wd = 0; wd < correctMask.size(); ++wd)
    correctMask[wd] &= ~errMask[wd];

  // Shared-analysis fast path: while the working netlist is still the
  // pristine base snapshot (every worker's first attempt), the cone,
  // levels and supports come from the immutable
  // NetlistAnalysis instead of being recomputed per attempt. Gate and net
  // counts only ever grow and rewiring is the only other mutation, so the
  // check is exact.
  const bool pristine = tracker_.rewires().empty() &&
                        w_.numGatesTotal() == baseAnalysis_.gatesAtBuild() &&
                        w_.numNetsTotal() == baseAnalysis_.netsAtBuild();
  std::vector<GateId> cone = pristine ? baseAnalysis_.outputConeGates(o_)
                                      : w_.coneGates({w_.outputNet(o_)});
  std::vector<std::uint32_t> wLevelsLocal;
  if (!pristine) wLevelsLocal = w_.netLevels();
  const std::vector<std::uint32_t>& wLevels =
      pristine ? baseAnalysis_.netLevels() : wLevelsLocal;
  std::vector<std::uint64_t> allMask(errMask.size());
  for (std::size_t wd = 0; wd < allMask.size(); ++wd)
    allMask[wd] = errMask[wd] | correctMask[wd];
  std::vector<PinCandidate> pins =
      rankPins(cone, wSim, errMask, allMask);
  for (PinCandidate& pin : pins) pin.driverLevel = wLevels[pin.driver];
  if (pins.empty()) return outcome;

  // Validation screen: the samples plus a block of random patterns; a
  // candidate must survive it before the (expensive) SAT validation runs.
  SimScreen screen;
  for (const InputPattern& p : samples.patterns()) screen.patterns.add(p);
  for (std::size_t k = 0; k < 4096 - std::min<std::size_t>(
                                        samples.count(), 2048); ++k) {
    InputPattern p(w_.numInputs(), 0);
    for (auto& bit : p) bit = rng_.flip() ? 1 : 0;
    screen.patterns.add(std::move(p));
  }
  {
    Rng screenFill = rng_.split();
    Simulator specScreen =
        simulateOnSamples(spec_, w_, screen.patterns, screenFill);
    screen.specOut.resize(w_.numOutputs());
    for (std::uint32_t oo = 0; oo < w_.numOutputs(); ++oo) {
      const std::uint32_t sop = specOutputOf(w_, spec_, oo);
      if (sop != kNullId) screen.specOut[oo] = specScreen.outputValue(sop);
    }
    Rng baseFill = rng_.split();
    screen.base = std::make_unique<Simulator>(
        simulateOnSamples(w_, w_, screen.patterns, baseFill));
    screen.baseNets = w_.numNetsTotal();
  }

  std::optional<SupportTable> wSupportsLocal;
  if (!pristine) wSupportsLocal.emplace(w_);
  const SupportTable& wSupports =
      pristine ? baseAnalysis_.supports() : *wSupportsLocal;
  const std::vector<std::uint64_t> specOutMask =
      specOutSupportMaskInW(wSupports.words());
  const std::vector<std::uint32_t>& specLevels = specAnalysis_.netLevels();
  std::vector<NetId> specCone = specAnalysis_.outputConeNets(op_);
  computeCloneCostDp(wSim, sSim);

  // Phase 1: gather candidate rewire operations across every point count
  // m and every feasible point-set, costed by expected patch growth
  // (cache-aware: spec logic that already exists in W is free).
  struct GatheredChoice {
    std::vector<std::size_t> ps;
    std::shared_ptr<std::vector<std::vector<NetCandidate>>> cands;
    RewireChoice choice;
  };
  std::vector<GatheredChoice> gathered;
  Timer symbolicPhase;
  for (std::size_t shrink = 0; shrink < 3 && !pins.empty(); ++shrink) {
    try {
      // Deterministic fault hook: forces the blowup / allocation-failure
      // recovery paths below without a genuinely huge design.
      if (const auto k = fault::fire("syseco.pointsets")) {
        if (*k == fault::Kind::kBddBlowup) throw BddLimitExceeded{};
        if (*k == fault::Kind::kAllocFailure) throw std::bad_alloc{};
      }
      for (int m = 1; m <= opt_.maxPoints; ++m) {
        // Higher point counts are exponentially costlier symbolically;
        // only escalate while the cheaper levels found too few options.
        if (gathered.size() >= opt_.maxChoices) break;
        std::vector<std::vector<std::size_t>> pointSets =
            enumeratePointSets(samples, wSim, sSim, pins, m, cone);
        if (opt_.verbose)
          std::fprintf(stderr,
                       "[syseco] out=%u m=%d pins=%zu pointsets=%zu\n", o_, m,
                       pins.size(), pointSets.size());
        for (const auto& ps : pointSets) {
          if (!topologicallyIndependent(pins, ps)) {
            if (opt_.verbose)
              std::fprintf(stderr, "[syseco]   set rejected (topology)\n");
            continue;
          }
          auto cands =
              std::make_shared<std::vector<std::vector<NetCandidate>>>();
          cands->reserve(ps.size());
          for (std::size_t pi : ps) {
            cands->push_back(candidateNets(pins[pi], wSim, sSim, errMask,
                                           correctMask, wSupports,
                                           specOutMask, wLevels, specLevels,
                                           specCone));
          }
          std::vector<RewireChoice> choices = computeChoices(
              samples, wSim, sSim, pins, ps, *cands, cone);
          if (opt_.verbose)
            std::fprintf(stderr, "[syseco]   set size=%zu choices=%zu\n",
                         ps.size(), choices.size());
          for (RewireChoice& choice : choices)
            gathered.push_back(GatheredChoice{ps, cands, std::move(choice)});
        }
      }
      break;  // all m exhausted without node-limit trouble
    } catch (const BddLimitExceeded&) {
      // Staged degradation under design complexity or a drained node
      // ledger: halve the candidate pin set and the point-set quota,
      // then retry the smaller symbolic problem.
      gathered.clear();
      pins.resize(pins.size() / 2);
      effMaxPointSets_ = std::max<std::size_t>(effMaxPointSets_ / 2, 1);
      ++degradeSteps_;
    } catch (const std::bad_alloc&) {
      // Allocation pressure degrades the same way a node blowup does.
      gathered.clear();
      pins.resize(pins.size() / 2);
      effMaxPointSets_ = std::max<std::size_t>(effMaxPointSets_ / 2, 1);
      ++degradeSteps_;
    } catch (const StatusError& e) {
      // The deadline passed mid-construction: no smaller retry can help.
      diag_.secondsSymbolic += symbolicPhase.seconds();
      outcome.limit = e.status().code();
      return outcome;
    }
  }

  diag_.secondsSymbolic += symbolicPhase.seconds();

  // Phase 2: validate in increasing cost order. This is what makes the
  // engine prefer a 2-point rewire reusing tiny revision logic over a
  // 1-point wholesale cone replacement of equal sampling-domain validity.
  std::stable_sort(gathered.begin(), gathered.end(),
                   [](const GatheredChoice& a, const GatheredChoice& b) {
                     if (a.choice.cost != b.choice.cost)
                       return a.choice.cost < b.choice.cost;
                     return a.choice.tieLevel < b.choice.tieLevel;
                   });
  if (gathered.size() > opt_.maxChoices * 3)
    gathered.resize(opt_.maxChoices * 3);
  for (const GatheredChoice& gc : gathered) {
    if (!guard_.checkpoint("syseco.choices").isOk()) {
      outcome.limit = guard_.trippedCode();
      return outcome;
    }
    if (opt_.verbose) {
      std::fprintf(stderr, "[syseco]   try cost=%.2f:", gc.choice.cost);
      for (std::size_t i = 0; i < gc.ps.size(); ++i) {
        const NetCandidate& c = (*gc.cands)[i][gc.choice.pick[i]];
        std::fprintf(stderr, " pin(net %u)->%s%u(cc=%u)",
                     pins[gc.ps[i]].driver, c.fromSpec ? "spec" : "w",
                     c.net, c.cloneCost);
      }
      std::fputc('\n', stderr);
    }
    if (tryChoice(screen, pins, gc.ps, *gc.cands, gc.choice,
                  outcome)) {
      outcome.applied = true;
      return outcome;
    }
    if (outcome.counterexamples.size() >= 4) return outcome;
  }
  return outcome;
}

/// Signature-based DP estimating how many *new* gates cloning each spec
/// net would add to W right now: nets whose sampled signature already
/// exists in W (plain or complemented) are assumed matchable and free.
void OutputSearch::computeCloneCostDp(const Simulator& wSim,
                                      const Simulator& sSim) {
  std::unordered_set<std::uint64_t> wSigs;
  for (NetId n = 0; n < wSim.numNetsSimulated() && n < w_.numNetsTotal();
       ++n) {
    const auto& net = w_.net(n);
    const bool liveDriven =
        net.srcKind == Netlist::SourceKind::Input ||
        (net.srcKind == Netlist::SourceKind::Gate &&
         !w_.gate(net.srcIdx).dead);
    if (!liveDriven) continue;
    wSigs.insert(hashSignature(wSim.value(n), false));
  }
  cloneCostDp_.assign(spec_.numNetsTotal(), 0);
  for (GateId g : specAnalysis_.topoOrder()) {
    const auto& gate = spec_.gate(g);
    const NetId out = gate.out;
    if (wSigs.count(hashSignature(sSim.value(out), false))) {
      cloneCostDp_[out] = 0;  // likely reused via functional matching
    } else if (wSigs.count(hashSignature(sSim.value(out), true))) {
      cloneCostDp_[out] = 1;  // complement match: one inverter
    } else {
      std::uint64_t c = 1;
      for (NetId f : gate.fanins) c += cloneCostDp_[f];
      cloneCostDp_[out] =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(c, 100000));
    }
  }
}

// --- Candidate rectification points (§4.2 pre-selection) ----------------

std::vector<OutputSearch::PinCandidate> OutputSearch::rankPins(
    const std::vector<GateId>& cone, const Simulator& wSim,
    const std::vector<std::uint64_t>& errMask,
    const std::vector<std::uint64_t>& allMask) {
  const std::size_t words = errMask.size();
  // Observability propagated backwards through the cone, seeded twice:
  // by the error samples (the selection score) and by all genuine
  // samples (the don't-care structure of each point's required function).
  std::unordered_map<NetId, std::vector<std::uint64_t>> obs;
  std::unordered_map<NetId, std::vector<std::uint64_t>> obsFull;
  obs[w_.outputNet(o_)] = errMask;
  obsFull[w_.outputNet(o_)] = allMask;

  std::vector<PinCandidate> pins;
  // The output itself is a candidate rectification point ("or possibly at
  // circuit outputs", §3.2).
  pins.push_back(PinCandidate{{Sink{kNullId, o_}},
                              w_.outputNet(o_),
                              countBits(errMask),
                              0,
                              errMask,
                              allMask});

  // Cone sink pins per net (for group candidates).
  std::unordered_map<NetId, std::vector<Sink>> coneSinksOf;

  for (auto it = cone.rbegin(); it != cone.rend(); ++it) {
    const GateId g = *it;
    const auto& gate = w_.gate(g);
    auto oIt = obs.find(gate.out);
    if (oIt == obs.end()) continue;  // unobservable at this output
    const std::vector<std::uint64_t> gateObs = oIt->second;
    const std::vector<std::uint64_t> gateObsFull = obsFull[gate.out];
    std::vector<const Signature*> vals;
    vals.reserve(gate.fanins.size());
    for (NetId f : gate.fanins) vals.push_back(&wSim.value(f));
    for (std::size_t port = 0; port < gate.fanins.size(); ++port) {
      std::vector<std::uint64_t> pinObs(words, 0);
      std::vector<std::uint64_t> pinObsFull(words, 0);
      for (std::size_t wd = 0; wd < words; ++wd) {
        const std::uint64_t d = derivWord(gate.type, vals, port, wd);
        pinObs[wd] = gateObs[wd] & d;
        pinObsFull[wd] = gateObsFull[wd] & d;
      }
      const std::size_t score = countBits(pinObs);
      const Sink sink{g, static_cast<std::uint32_t>(port)};
      if (score > 0) {
        pins.push_back(PinCandidate{
            {sink}, gate.fanins[port], score, 0, pinObs, pinObsFull});
      }
      coneSinksOf[gate.fanins[port]].push_back(sink);
      auto& facc = obs[gate.fanins[port]];
      if (facc.empty()) facc.assign(words, 0);
      auto& faccFull = obsFull[gate.fanins[port]];
      if (faccFull.empty()) faccFull.assign(words, 0);
      for (std::size_t wd = 0; wd < words; ++wd) {
        facc[wd] |= pinObs[wd];
        faccFull[wd] |= pinObsFull[wd];
      }
    }
  }

  // Group candidates: all cone sinks of a net, rewired as one point.
  // Their observability is the accumulated net observability.
  for (auto& [net, sinks] : coneSinksOf) {
    if (sinks.size() < 2) continue;  // identical to the single pin
    const auto oIt = obs.find(net);
    if (oIt == obs.end()) continue;
    const std::size_t score = countBits(oIt->second);
    if (score == 0) continue;
    pins.push_back(
        PinCandidate{sinks, net, score, 0, oIt->second, obsFull[net]});
  }

  std::stable_sort(pins.begin(), pins.end(),
                   [](const PinCandidate& a, const PinCandidate& b) {
                     return a.score > b.score;
                   });
  if (pins.size() > opt_.maxCandidatePins)
    pins.resize(opt_.maxCandidatePins);
  return pins;
}

/// The topological constraint of §3.3: no path may connect any pair of
/// selected pins. The output pin only combines with itself.
bool OutputSearch::topologicallyIndependent(
    const std::vector<PinCandidate>& pins, const std::vector<std::size_t>& ps) {
  if (ps.size() <= 1) return true;
  for (std::size_t a : ps) {
    if (pins[a].isOutputPin()) return false;  // everything reaches a PO
  }
  // Pins within one group share a variable, so only cross-group paths
  // violate the constraint.
  for (std::size_t a : ps) {
    std::unordered_set<GateId> reach;
    for (const Sink& s : pins[a].sinks) {
      for (GateId g : reachableGates(w_, w_.gate(s.gate).out))
        reach.insert(g);
    }
    for (std::size_t b : ps) {
      if (a == b) continue;
      for (const Sink& s : pins[b].sinks) {
        if (!s.isOutput() && reach.count(s.gate)) return false;
      }
    }
  }
  return true;
}

// --- Symbolic cone evaluation over the sampling domain ------------------

struct OutputSearch::SymbolicCone {
  Bdd* mgr = nullptr;
  const Simulator* sim = nullptr;
  std::vector<std::uint32_t> zVars;
  std::unordered_map<NetId, Bdd::Ref> netBdd;
  std::unordered_map<std::uint64_t, std::size_t> pinIndex;  // pinKey->idx

  Bdd::Ref signatureBdd(NetId n) {
    if (auto it = netBdd.find(n); it != netBdd.end()) return it->second;
    const Bdd::Ref r = mgr->fromTruthTable(sim->value(n), zVars);
    netBdd.emplace(n, r);
    return r;
  }
};

/// Evaluates the cone of the output symbolically; at each listed pin,
/// `wrap(base, idx)` substitutes the pin's value (mux for H, y for Xi).
/// Untainted sub-cones use their sampled signatures directly - this is
/// what keeps the computation "independent of the design size".
template <typename WrapFn>
Bdd::Ref OutputSearch::evalOutput(SymbolicCone& sc,
                                  const std::vector<GateId>& cone,
                                  const std::vector<PinCandidate>& pins,
                                  const std::vector<std::size_t>& ps,
                                  WrapFn wrap) {
  // Taint: gates whose value depends on a substituted pin.
  std::unordered_set<GateId> tainted;
  std::unordered_set<GateId> coneSet(cone.begin(), cone.end());
  sc.pinIndex.clear();
  for (std::size_t k = 0; k < ps.size(); ++k) {
    for (const Sink& s : pins[ps[k]].sinks) {
      sc.pinIndex.emplace(pinKey(s), k);
      if (!s.isOutput()) tainted.insert(s.gate);
    }
  }
  for (GateId g : cone) {  // topological order propagates taint forward
    if (tainted.count(g)) continue;
    for (NetId f : w_.gate(g).fanins) {
      const GateId d = w_.driverOf(f);
      if (d != kNullId && tainted.count(d)) {
        tainted.insert(g);
        break;
      }
    }
  }

  Bdd& mgr = *sc.mgr;
  for (GateId g : cone) {
    if (!tainted.count(g)) continue;
    const auto& gate = w_.gate(g);
    std::vector<Bdd::Ref> in;
    in.reserve(gate.fanins.size());
    for (std::size_t port = 0; port < gate.fanins.size(); ++port) {
      const NetId f = gate.fanins[port];
      const GateId d = w_.driverOf(f);
      Bdd::Ref v = (d != kNullId && tainted.count(d))
                       ? sc.netBdd.at(f)
                       : sc.signatureBdd(f);
      const auto pit =
          sc.pinIndex.find(pinKey(Sink{g, static_cast<std::uint32_t>(port)}));
      if (pit != sc.pinIndex.end()) v = wrap(v, pit->second);
      in.push_back(v);
    }
    sc.netBdd[gate.out] = gateBdd(mgr, gate.type, in);
  }

  const NetId outNet = w_.outputNet(o_);
  const GateId outDrv = w_.driverOf(outNet);
  Bdd::Ref h = (outDrv != kNullId && tainted.count(outDrv))
                   ? sc.netBdd.at(outNet)
                   : sc.signatureBdd(outNet);
  // The output pin itself may be a rectification point.
  const auto pit = sc.pinIndex.find(pinKey(Sink{kNullId, o_}));
  if (pit != sc.pinIndex.end()) h = wrap(h, pit->second);
  return h;
}

// --- Feasible rectification point-sets via H(t) (§4.2) ------------------

std::vector<std::vector<std::size_t>> OutputSearch::enumeratePointSets(
    const SampleSet& samples, const Simulator& wSim, const Simulator& sSim,
    const std::vector<PinCandidate>& pins, int m,
    const std::vector<GateId>& cone) {
  const std::uint32_t nz = samples.numZVars();
  const std::size_t M = pins.size();
  std::uint32_t tb = 0;
  while ((std::size_t{1} << tb) < M) ++tb;
  if (tb == 0) tb = 1;
  const std::uint32_t numVars =
      nz + static_cast<std::uint32_t>(m) +
      static_cast<std::uint32_t>(m) * tb;

  Bdd mgr(numVars, samplingBddConfig(opt_.bddNodeLimit));
  mgr.setResourceGuard(&guard_);
  std::vector<std::uint32_t> zVars(nz);
  for (std::uint32_t i = 0; i < nz; ++i) zVars[i] = i;
  std::vector<std::uint32_t> yVars(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i)
    yVars[static_cast<std::size_t>(i)] = nz + static_cast<std::uint32_t>(i);
  std::vector<std::vector<std::uint32_t>> tVars(static_cast<std::size_t>(m));
  std::uint32_t next = nz + static_cast<std::uint32_t>(m);
  for (int i = 0; i < m; ++i) {
    for (std::uint32_t b = 0; b < tb; ++b)
      tVars[static_cast<std::size_t>(i)].push_back(next++);
  }

  // Minterms t_i^j: decision "pin q_j is the i-th rectification point".
  std::vector<std::vector<Bdd::Ref>> mint(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < M; ++j)
      mint[static_cast<std::size_t>(i)].push_back(mgr.mintermOf(
          static_cast<std::uint32_t>(j), tVars[static_cast<std::size_t>(i)]));
  }

  // All pins participate: ps = identity.
  std::vector<std::size_t> allPins(M);
  for (std::size_t j = 0; j < M; ++j) allPins[j] = j;

  SymbolicCone sc;
  sc.mgr = &mgr;
  sc.sim = &wSim;
  sc.zVars = zVars;

  // Figure 2's construct: sel_j = OR_i t_i^j; data1_j = AND_i(t_i^j -> y_i).
  auto wrap = [&](Bdd::Ref base, std::size_t j) {
    Bdd::Ref sel = Bdd::kFalse;
    Bdd::Ref data1 = Bdd::kTrue;
    for (int i = 0; i < m; ++i) {
      const Bdd::Ref tij = mint[static_cast<std::size_t>(i)][j];
      sel = mgr.bOr(sel, tij);
      data1 = mgr.bAnd(
          data1, mgr.bImp(tij, mgr.var(yVars[static_cast<std::size_t>(i)])));
    }
    return mgr.ite(sel, data1, base);
  };

  const Bdd::Ref h = evalOutput(sc, cone, pins, allPins, wrap);
  const Bdd::Ref fPrime =
      mgr.fromTruthTable(sSim.value(spec_.outputNet(op_)), zVars);

  // H(t) = forall z exists y (h == f'), restricted to valid encodings.
  Bdd::Ref equal = mgr.bXnor(h, fPrime);
  Bdd::Ref inner = mgr.exists(equal, yVars);
  Bdd::Ref H = mgr.forall(inner, zVars);
  for (int i = 0; i < m; ++i) {
    Bdd::Ref valid = Bdd::kFalse;
    for (std::size_t j = 0; j < M; ++j)
      valid = mgr.bOr(valid, mint[static_cast<std::size_t>(i)][j]);
    H = mgr.bAnd(H, valid);
  }
  if (H == Bdd::kFalse) return {};

  // Prime-cube seeds (§4.2): each ISOP cube is an implicant of H; any
  // index assignment consistent with its literals is a feasible set.
  std::vector<std::vector<std::size_t>> sets;
  std::vector<std::vector<std::size_t>> seen;
  auto addSet = [&](std::vector<std::size_t> s) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());  // merged selections
    if (std::find(seen.begin(), seen.end(), s) == seen.end()) {
      seen.push_back(s);
      sets.push_back(std::move(s));
    }
  };
  const std::vector<BddCube> cubes = mgr.isop(H);
  for (const BddCube& cube : cubes) {
    if (sets.size() >= effMaxPointSets_ * 4) break;
    // All pin indices consistent with the cube's t_i literals, per point.
    std::vector<std::vector<std::size_t>> consistent(
        static_cast<std::size_t>(m));
    bool ok = true;
    for (int i = 0; i < m && ok; ++i) {
      const auto& tv = tVars[static_cast<std::size_t>(i)];
      for (std::size_t j = 0; j < M; ++j) {
        bool fits = true;
        for (std::uint32_t b = 0; b < tb && fits; ++b) {
          const std::int8_t lit = cube.lits[tv[b]];
          const bool bit = (j >> (tb - 1 - b)) & 1;  // big-endian v^j
          if (lit >= 0 && lit != static_cast<std::int8_t>(bit)) fits = false;
        }
        if (fits) consistent[static_cast<std::size_t>(i)].push_back(j);
      }
      ok = !consistent[static_cast<std::size_t>(i)].empty();
    }
    if (!ok) continue;
    // A cube with don't-care selector bits denotes the cross product of
    // its per-position consistent pin lists; sample it (bounded) so H's
    // solution space is actually covered - e.g. the Figure-1 pair
    // (v0 pin, v1 pin) lives in one cube next to many weaker pairs.
    // For m >= 2 the output pin never combines (topological constraint),
    // so drop it from the lists up front.
    if (m >= 2) {
      bool dead = false;
      for (auto& list : consistent) {
        std::erase_if(list,
                      [&](std::size_t j) { return pins[j].isOutputPin(); });
        dead |= list.empty();
      }
      if (dead) continue;  // this cube only covered output-pin tuples
    }
    // Base tuple plus random samples of the cross product.
    std::vector<std::size_t> s;
    for (int i = 0; i < m; ++i)
      s.push_back(consistent[static_cast<std::size_t>(i)][0]);
    addSet(std::move(s));
    for (std::size_t draw = 0; draw < 15; ++draw) {
      if (sets.size() >= effMaxPointSets_ * 4) break;
      std::vector<std::size_t> t;
      for (int i = 0; i < m; ++i)
        t.push_back(rng_.pick(consistent[static_cast<std::size_t>(i)]));
      addSet(std::move(t));
    }
  }
  // Prefer smaller sets, then higher total observability.
  std::stable_sort(sets.begin(), sets.end(),
                   [&](const auto& a, const auto& b) {
                     if (a.size() != b.size()) return a.size() < b.size();
                     std::size_t sa = 0, sb = 0;
                     for (auto i : a) sa += pins[i].score;
                     for (auto i : b) sb += pins[i].score;
                     return sa > sb;
                   });
  if (sets.size() > effMaxPointSets_) sets.resize(effMaxPointSets_);
  return sets;
}

// --- Candidate rewiring nets (§4.3) --------------------------------------

std::vector<OutputSearch::NetCandidate> OutputSearch::candidateNets(
    const PinCandidate& pin, const Simulator& wSim, const Simulator& sSim,
    const std::vector<std::uint64_t>& errMask,
    const std::vector<std::uint64_t>& correctMask,
    const SupportTable& wSupports,
    const std::vector<std::uint64_t>& specOutMask,
    const std::vector<std::uint32_t>& wLevels,
    const std::vector<std::uint32_t>& specLevels,
    const std::vector<NetId>& specCone) {
  const Signature& pinSig = wSim.value(pin.driver);

  // §4.3 rectification utility: differing on error samples helps,
  // differing on already-correct samples risks breaking them - but only
  // where this point is observable at all. (The paper's heuristic uses
  // only the error-domain ratio; Xi(c) still decides exactly.)
  auto agreementOf = [&](const Signature& candSig) {
    std::ptrdiff_t key = 0;
    for (std::size_t wd = 0; wd < errMask.size(); ++wd) {
      const std::uint64_t obsF =
          pin.obsFullMask.empty() ? ~0ULL : pin.obsFullMask[wd];
      const std::uint64_t diff = pinSig[wd] ^ candSig[wd];
      key += std::popcount(diff & errMask[wd]);
      key -= 2 * std::popcount(diff & correctMask[wd] & obsF);
    }
    return key;
  };

  std::vector<NetCandidate> ranked;

  // Rewiring a pin of gate g to net s is acyclic iff s is not in TFO(g).
  std::unordered_set<NetId> forbidden;
  for (const Sink& s : pin.sinks) {
    if (s.isOutput()) continue;
    for (NetId n : reachableNets(w_, w_.gate(s.gate).out)) forbidden.insert(n);
  }

  // Candidates from the current implementation. Nets created after the
  // attempt's support/signature snapshot (rolled-back clone fragments)
  // are not considered.
  const NetId scanLimit = static_cast<NetId>(
      std::min<std::size_t>(w_.numNetsTotal(),
                            std::min(wSupports.numNets(),
                                     wSim.numNetsSimulated())));
  for (NetId n = 0; n < scanLimit; ++n) {
    const auto& net = w_.net(n);
    const bool liveDriven =
        net.srcKind == Netlist::SourceKind::Input ||
        (net.srcKind == Netlist::SourceKind::Gate &&
         !w_.gate(net.srcIdx).dead);
    if (!liveDriven || n == pin.driver) continue;
    if (forbidden.count(n)) continue;
    // Structural filter: the revised output's input dependence must
    // contain the candidate's transitive fanins.
    if (!wSupports.subsetOf(n, specOutMask)) continue;
    // Signatures are filled in only for survivors (copying one per net
    // over the whole netlist would dominate the attempt's cost).
    ranked.push_back(NetCandidate{n, false, wLevels[n], 0,
                                  agreementOf(wSim.value(n)), {}});
  }
  // Candidates from the synthesized specification's cone. Reusing a spec
  // net means instantiating its clone, so its approximate cone size
  // participates in the ranking: small revision logic (the injected delta
  // region) beats wholesale cone copies of equal utility.
  for (NetId n : specCone) {
    ranked.push_back(NetCandidate{n, true, specLevels[n], cloneCostDp_[n],
                                  agreementOf(sSim.value(n)), {}});
  }

  if (opt_.useUtilityHeuristic) {
    auto rankKey = [&](const NetCandidate& c) {
      return static_cast<double>(c.rankScore) -
             0.02 * static_cast<double>(std::min<std::uint32_t>(
                        c.cloneCost, 500));
    };
    std::stable_sort(ranked.begin(), ranked.end(),
                     [&](const NetCandidate& a, const NetCandidate& b) {
                       const double ka = rankKey(a), kb = rankKey(b);
                       if (opt_.levelDriven && std::abs(ka - kb) < 1e-9)
                         return a.level < b.level;
                       return ka > kb;
                     });
  } else {
    Rng shuffler = rng_.split();
    shuffler.shuffle(ranked);
  }
  if (ranked.size() > opt_.maxRewireNets + 12)
    ranked.resize(opt_.maxRewireNets + 12);  // margin for synthesis basis
  for (NetCandidate& c : ranked)
    c.sig = c.fromSpec ? sSim.value(c.net) : wSim.value(c.net);

  // Rectification function synthesis (extension of the paper's "future
  // work ... rectification logic synthesis"): when no existing net
  // realizes the needed function, try small algebraic combinations of
  // the strongest existing candidates against the pin's *required*
  // sampled function (flip where the errors are observable, hold
  // elsewhere). Hits are materialized as fresh W gates and compete as
  // ordinary candidates with a 1-2 gate cost.
  if (opt_.synthesizeFunctions && !pin.obsMask.empty()) {
    // Required function of this point: flip where the errors are
    // observable, hold where correct values are observable; samples the
    // point cannot influence are don't-cares.
    Signature required = pinSig;
    for (std::size_t wd = 0; wd < required.size(); ++wd)
      required[wd] ^= errMask[wd] & pin.obsMask[wd];
    std::vector<std::uint64_t> careMask(errMask.size());
    for (std::size_t wd = 0; wd < careMask.size(); ++wd)
      careMask[wd] = (errMask[wd] | correctMask[wd]) &
                     (pin.obsFullMask.empty() ? ~0ULL
                                              : pin.obsFullMask[wd]);
    auto matchesRequired = [&](const Signature& s) {
      for (std::size_t wd = 0; wd < required.size(); ++wd)
        if ((s[wd] ^ required[wd]) & careMask[wd]) return false;
      return true;
    };
    // Synthesis is pointless only when a *free* exact realization
    // already exists (an existing net); a matching spec net still costs
    // its clone, which a 1-2 gate synthesized function may undercut.
    bool haveFreeExact = false;
    for (const NetCandidate& c : ranked)
      haveFreeExact |= c.cloneCost == 0 && matchesRequired(c.sig);
    if (!haveFreeExact) {
      std::vector<NetCandidate> synth =
          synthesizeCandidates(pin, pinSig, ranked, required, careMask,
                               forbidden, wLevels, scanLimit);
      for (NetCandidate& c : synth) {
        c.rankScore = agreementOf(c.sig);
        // Synthesized exact matches outrank everything; put them first.
        ranked.insert(ranked.begin(), std::move(c));
      }
    }
  }

  std::vector<NetCandidate> out;
  // Index 0 is the trivial candidate: the pin keeps its driver (needed
  // because H(t) may over-approximate the number of points, §5.2).
  if (opt_.includeTrivialCandidate) {
    out.push_back(
        NetCandidate{pin.driver, false, wLevels[pin.driver], 0, 0, pinSig});
  }
  for (const NetCandidate& c : ranked) {
    if (out.size() >= opt_.maxRewireNets) break;
    out.push_back(c);
  }
  return out;
}

/// Tries small algebraic combinations (inversion, two-operand AND / OR /
/// XOR with optional input negations) of the strongest candidates
/// against the required sampled function; matches are materialized as
/// fresh gates in W and returned as candidates. Implements the
/// rectification-logic-synthesis direction of the paper's conclusions.
std::vector<OutputSearch::NetCandidate> OutputSearch::synthesizeCandidates(
    const PinCandidate& pin, const Signature& pinSig,
    const std::vector<NetCandidate>& ranked, const Signature& required,
    const std::vector<std::uint64_t>& careMask,
    const std::unordered_set<NetId>& forbidden,
    const std::vector<std::uint32_t>& wLevels, NetId scanLimit) {
  // Basis: the pin's own driver (added-condition revisions are
  // "driver AND c" shaped) plus the best-ranked existing nets.
  struct Basis {
    NetId net;
    const Signature* sig;
    std::uint32_t level;
  };
  std::vector<Basis> basis;
  if (!forbidden.count(pin.driver) && pin.driver < scanLimit)
    basis.push_back(Basis{pin.driver, &pinSig, wLevels[pin.driver]});
  std::vector<std::size_t> order(ranked.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ranked[a].rankScore > ranked[b].rankScore;
                   });
  for (std::size_t k = 0; k < order.size() && basis.size() < 11; ++k) {
    const NetCandidate& c = ranked[order[k]];
    if (c.fromSpec) continue;  // keep synthesis over existing W logic
    basis.push_back(Basis{c.net, &c.sig, c.level});
  }

  auto matches = [&](const Signature& s) {
    for (std::size_t wd = 0; wd < required.size(); ++wd)
      if ((s[wd] ^ required[wd]) & careMask[wd]) return false;
    return true;
  };

  std::vector<NetCandidate> hits;
  const std::size_t words = required.size();
  Signature tmp(words, 0);
  auto emit = [&](NetId net, const Signature& sig, std::uint32_t level,
                  std::uint32_t gates) {
    NetCandidate c;
    c.net = net;
    c.fromSpec = false;
    c.level = level;
    c.cloneCost = gates;
    c.sig = sig;
    hits.push_back(std::move(c));
  };

  // Unary: complement of a basis net.
  for (const Basis& a : basis) {
    if (hits.size() >= 3) break;
    if (!a.sig) continue;
    for (std::size_t wd = 0; wd < words; ++wd) tmp[wd] = ~(*a.sig)[wd];
    if (matches(tmp)) {
      const NetId g = w_.addGate(GateType::Not, {a.net});
      emit(g, tmp, a.level + 1, 1);
    }
  }
  // Binary combinations with optional input negation.
  struct Op {
    GateType type;
    bool negA;
    bool negB;
  };
  static constexpr Op kOps[] = {
      {GateType::And, false, false},  {GateType::Or, false, false},
      {GateType::Xor, false, false},  {GateType::Nand, false, false},
      {GateType::Nor, false, false},  {GateType::Xnor, false, false},
      {GateType::And, true, false},   {GateType::And, false, true},
      {GateType::Or, true, false},    {GateType::Or, false, true},
  };
  for (std::size_t i = 0; i < basis.size() && hits.size() < 3; ++i) {
    for (std::size_t j = i + 1; j < basis.size() && hits.size() < 3; ++j) {
      const Basis& a = basis[i];
      const Basis& b = basis[j];
      if (!a.sig || !b.sig) continue;
      for (const Op& op : kOps) {
        for (std::size_t wd = 0; wd < words; ++wd) {
          const std::uint64_t va =
              op.negA ? ~(*a.sig)[wd] : (*a.sig)[wd];
          const std::uint64_t vb =
              op.negB ? ~(*b.sig)[wd] : (*b.sig)[wd];
          const std::uint64_t ops[2] = {va, vb};
          tmp[wd] = evalGateWord(op.type, ops, 2);
        }
        if (!matches(tmp)) continue;
        NetId na = a.net, nb = b.net;
        std::uint32_t gates = 1;
        if (op.negA) {
          na = w_.addGate(GateType::Not, {na});
          ++gates;
        }
        if (op.negB) {
          nb = w_.addGate(GateType::Not, {nb});
          ++gates;
        }
        emit(w_.addGate(op.type, {na, nb}), tmp,
             std::max(a.level, b.level) + 2, gates);
        break;  // one op per pair suffices
      }
    }
  }
  return hits;
}

std::vector<std::uint64_t> OutputSearch::specOutSupportMaskInW(
    std::size_t words) {
  std::vector<std::uint64_t> mask(words, 0);
  for (std::uint32_t pi : specAnalysis_.outputSupport(op_)) {
    const std::uint32_t iw = w_.findInput(spec_.inputName(pi));
    if (iw != kNullId) mask[iw / 64] |= (std::uint64_t{1} << (iw % 64));
  }
  return mask;
}

/// Match-aware clone of a spec net into W. The cloner persists across the
/// search's attempts and its fallback: rollbacks restore pre-existing pins
/// and output re-drives change no internal function, so its signatures,
/// encodings, caches and pinned equivalences stay valid. Only a
/// *successful interior rewire* invalidates it (tryChoice drops it).
NetId OutputSearch::matchedClone(NetId specNet) {
  if (!cloner_) {
    MatcherOptions mopts;
    // Confirmations are per-net and plentiful; keep each one cheap. A
    // budget trip means "clone instead of reuse" - sweeping recovers
    // most of the loss at a fraction of the SAT cost.
    mopts.confirmBudget = 4000;
    Rng matchRng = rng_.split();
    cloner_ = std::make_unique<MatchedSpecCloner>(tracker_, spec_, mopts,
                                                  matchRng);
  }
  return cloner_->clone(specNet);
}

// --- Rewiring choices via Xi(c) (§4.4, Theorem 1) -------------------------

std::vector<OutputSearch::RewireChoice> OutputSearch::computeChoices(
    const SampleSet& samples, const Simulator& wSim, const Simulator& sSim,
    const std::vector<PinCandidate>& pins,
    const std::vector<std::size_t>& ps,
    const std::vector<std::vector<NetCandidate>>& cands,
    const std::vector<GateId>& cone) {
  const std::uint32_t nz = samples.numZVars();
  const std::size_t m = ps.size();
  std::vector<std::uint32_t> cBits(m);
  std::uint32_t totalC = 0;
  for (std::size_t i = 0; i < m; ++i) {
    std::uint32_t b = 0;
    while ((std::size_t{1} << b) < cands[i].size()) ++b;
    cBits[i] = std::max<std::uint32_t>(b, 1);
    totalC += cBits[i];
  }
  const std::uint32_t numVars =
      nz + static_cast<std::uint32_t>(m) + totalC;
  Bdd mgr(numVars, samplingBddConfig(opt_.bddNodeLimit));
  mgr.setResourceGuard(&guard_);

  std::vector<std::uint32_t> zVars(nz);
  for (std::uint32_t i = 0; i < nz; ++i) zVars[i] = i;
  std::vector<std::uint32_t> yVars(m);
  for (std::size_t i = 0; i < m; ++i)
    yVars[i] = nz + static_cast<std::uint32_t>(i);
  std::vector<std::vector<std::uint32_t>> cVars(m);
  std::uint32_t next = nz + static_cast<std::uint32_t>(m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::uint32_t b = 0; b < cBits[i]; ++b) cVars[i].push_back(next++);

  SymbolicCone sc;
  sc.mgr = &mgr;
  sc.sim = &wSim;
  sc.zVars = zVars;

  // Composition function h(z, y): the selected pins become free inputs.
  auto wrap = [&](Bdd::Ref /*base*/, std::size_t i) {
    return mgr.var(yVars[i]);
  };
  const Bdd::Ref h = evalOutput(sc, cone, pins, ps, wrap);
  const Bdd::Ref fPrime =
      mgr.fromTruthTable(sSim.value(spec_.outputNet(op_)), zVars);

  // R(z, y, c) = AND_i AND_j (c_i = j  ->  y_i == r_ij(z)).
  Bdd::Ref R = Bdd::kTrue;
  Bdd::Ref validC = Bdd::kTrue;
  for (std::size_t i = 0; i < m; ++i) {
    Bdd::Ref anyC = Bdd::kFalse;
    for (std::size_t j = 0; j < cands[i].size(); ++j) {
      const Bdd::Ref cij =
          mgr.mintermOf(static_cast<std::uint32_t>(j), cVars[i]);
      anyC = mgr.bOr(anyC, cij);
      // Each candidate carries its own sampled function (spec nets,
      // W nets and synthesized functions alike).
      const Bdd::Ref rij = mgr.fromTruthTable(cands[i][j].sig, zVars);
      R = mgr.bAnd(R,
                   mgr.bImp(cij, mgr.bXnor(mgr.var(yVars[i]), rij)));
    }
    validC = mgr.bAnd(validC, anyC);
  }

  // Theorem 1: Xi(c) = forall z,y ((L -> h) AND (h -> U)).
  const Bdd::Ref L = mgr.bAnd(fPrime, R);
  const Bdd::Ref U = mgr.bOr(fPrime, mgr.bNot(R));
  const Bdd::Ref F = mgr.bAnd(mgr.bImp(L, h), mgr.bImp(h, U));
  std::vector<std::uint32_t> zy = zVars;
  zy.insert(zy.end(), yVars.begin(), yVars.end());
  Bdd::Ref Xi = mgr.bAnd(mgr.forall(F, zy), validC);

  // Enumerate concrete rewire operations, cheapest first.
  std::vector<RewireChoice> choices;
  Bdd::Ref rem = Xi;
  for (std::size_t round = 0;
       round < opt_.maxChoices * 2 && rem != Bdd::kFalse; ++round) {
    BddCube cube;
    if (!mgr.pickCube(rem, cube)) break;
    RewireChoice choice;
    choice.pick.resize(m);
    bool ok = true;
    Bdd::Ref assignment = Bdd::kTrue;
    for (std::size_t i = 0; i < m && ok; ++i) {
      const std::size_t K = cands[i].size();
      std::size_t chosen = K;
      for (std::size_t j = 0; j < K; ++j) {
        bool fits = true;
        for (std::uint32_t b = 0; b < cBits[i] && fits; ++b) {
          const std::int8_t lit = cube.lits[cVars[i][b]];
          const bool bit = (j >> (cBits[i] - 1 - b)) & 1;
          if (lit >= 0 && lit != static_cast<std::int8_t>(bit)) fits = false;
        }
        if (fits) {
          chosen = j;
          break;
        }
      }
      if (chosen == K) {
        ok = false;
        break;
      }
      choice.pick[i] = chosen;
      assignment = mgr.bAnd(
          assignment,
          mgr.mintermOf(static_cast<std::uint32_t>(chosen), cVars[i]));
    }
    rem = mgr.bAnd(rem, mgr.bNot(assignment));
    if (!ok) continue;
    // Cost: non-trivial picks, spec clones, and (optionally) depth.
    for (std::size_t i = 0; i < m; ++i) {
      const NetCandidate& c = cands[i][choice.pick[i]];
      const bool trivial =
          opt_.includeTrivialCandidate && choice.pick[i] == 0;
      if (!trivial) {
        // Expected patch growth: rewiring an existing W net is nearly
        // free; cloning spec logic costs its unmatched region, and a
        // synthesized function costs its fresh gates.
        choice.cost += 0.3 + static_cast<double>(c.cloneCost) / 6.0;
        choice.tieLevel += pins[ps[i]].driverLevel;
        if (opt_.levelDriven) {
          // Level-driven selection (Table 3): penalize rewiring nets that
          // arrive later than the pin's current driver - that rise
          // propagates down every path through the pin.
          const double rise = static_cast<double>(c.level) -
                              static_cast<double>(pins[ps[i]].driverLevel);
          if (rise > 0) choice.cost += rise * 0.3;
        }
      }
    }
    if (choice.cost == 0.0) continue;  // all-trivial cannot rectify
    choices.push_back(std::move(choice));
  }
  std::stable_sort(choices.begin(), choices.end(),
                   [](const RewireChoice& a, const RewireChoice& b) {
                     return a.cost < b.cost;
                   });
  if (choices.size() > opt_.maxChoices) choices.resize(opt_.maxChoices);
  return choices;
}

// --- Application + validation (the CEGAR step, §5.2 step 5) --------------

bool OutputSearch::tryChoice(const SimScreen& screen,
                             const std::vector<PinCandidate>& pins,
                             const std::vector<std::size_t>& ps,
                             const std::vector<std::vector<NetCandidate>>& cands,
                             const RewireChoice& choice,
                             AttemptOutcome& outcome) {
  const std::size_t mark = tracker_.mark();
  std::vector<Sink> rewiredPins;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const NetCandidate& c = cands[i][choice.pick[i]];
    const bool trivial = opt_.includeTrivialCandidate && choice.pick[i] == 0;
    if (trivial) continue;
    const NetId target = c.fromSpec ? matchedClone(c.net) : c.net;
    for (const Sink& s : pins[ps[i]].sinks) {
      tracker_.rewire(s, target);
      rewiredPins.push_back(s);
    }
  }
  if (rewiredPins.empty()) {
    tracker_.rollback(mark);
    return false;
  }
  std::string why;
  if (!w_.isWellFormed(&why)) {
    // A spec clone re-converged onto a rewired pin; reject this choice.
    tracker_.rollback(mark);
    return false;
  }

  // Global quick screen: on the samples plus the random screen block, the
  // failing output must now match and no healthy output may break. This
  // kills most sampling-domain false positives without touching SAT; the
  // pattern that refuted the candidate feeds the refinement loop.
  Timer screenPhase;
  InputPattern screenCex;
  const bool screenOk =
      quickSimScreen(screen, rewiredPins, &screenCex);
  diag_.secondsScreening += screenPhase.seconds();
  if (!screenOk) {
    ++diag_.candidatesScreenRejected;
    if (opt_.verbose) std::fprintf(stderr, "[syseco]     screen reject\n");
    if (!screenCex.empty() && outcome.screenCounterexamples.size() < 8)
      outcome.screenCounterexamples.push_back(std::move(screenCex));
    tracker_.rollback(mark);
    return false;
  }
  if (opt_.verbose)
    std::fprintf(stderr, "[syseco]     screen pass -> SAT validate\n");

  // A drained governor must not start the expensive SAT validation; the
  // candidate is rejected and the output degrades to the fallback.
  if (!guard_.checkpoint("syseco.validation").isOk()) {
    outcome.limit = guard_.trippedCode();
    tracker_.rollback(mark);
    return false;
  }

  // Exact validation of every output the rewired pins can reach.
  Timer validatePhase;
  ++diag_.candidatesValidated;
  const std::vector<std::uint32_t> affected = affectedOutputs(w_, rewiredPins, o_);
  PairEncoding pe(w_, spec_);
  pe.setResourceGuard(&guard_);
  for (std::uint32_t ao : affected) {
    const std::uint32_t aop = specOutputOf(w_, spec_, ao);
    if (aop == kNullId) continue;
    const Solver::Result r =
        pe.solveDiffSwept(ao, aop, opt_.validationBudget, rng_);
    if (r == Solver::Result::Unsat) continue;
    if (r == Solver::Result::Sat) {
      outcome.counterexamples.push_back(pe.extractInputs(&rng_));
      ++diag_.candidatesRefuted;
    }
    tracker_.rollback(mark);
    diag_.secondsValidation += validatePhase.seconds();
    return false;
  }
  diag_.secondsValidation += validatePhase.seconds();
  cloner_.reset();  // interior pins changed: matcher is stale
  return true;
}

/// Incremental screen: re-simulates only the choice's affected region
/// (new clone/synthesis gates plus the forward closure of the rewired
/// pins) against the cached base values, then compares the affected
/// outputs with the spec. Exact, and orders of magnitude cheaper than a
/// full-netlist pass per candidate.
bool OutputSearch::quickSimScreen(const SimScreen& screen,
                                  const std::vector<Sink>& rewiredPins,
                                  InputPattern* failingPattern) {
  const std::size_t words = screen.patterns.simWords();
  std::unordered_map<NetId, Signature> changed;

  // Affected gate subset: producers of every new net backing the rewires
  // (clone cones, synthesized functions) + forward closure of the pins.
  std::unordered_set<GateId> subset;
  {
    // Closure rule: every subset gate pulls in (a) the producers of its
    // new-net fanins (so clone/synthesis values exist, including leftover
    // fragments from rolled-back choices that are still connected) and
    // (b) its fanout gates (so changed values propagate). Seeds are the
    // new driver nets and the rewired sink gates.
    std::vector<GateId> work;
    auto addGate = [&](GateId g) {
      if (subset.insert(g).second) work.push_back(g);
    };
    for (const Sink& s : rewiredPins) {
      const NetId target = s.isOutput() ? w_.outputNet(s.port)
                                        : w_.gate(s.gate).fanins[s.port];
      if (target >= screen.baseNets) {
        const GateId d = w_.driverOf(target);
        SYSECO_CHECK(d != kNullId);  // new nets are always gate outputs
        addGate(d);
      }
      if (!s.isOutput()) addGate(s.gate);
    }
    while (!work.empty()) {
      const GateId g = work.back();
      work.pop_back();
      for (NetId f : w_.gate(g).fanins) {
        if (f >= screen.baseNets) {
          const GateId d = w_.driverOf(f);
          SYSECO_CHECK(d != kNullId);
          addGate(d);
        }
      }
      for (const Sink& snk : w_.net(w_.gate(g).out).sinks) {
        if (!snk.isOutput()) addGate(snk.gate);
      }
    }
  }

  // Local topological order (Kahn restricted to the subset).
  std::vector<GateId> order;
  {
    std::unordered_map<GateId, std::uint32_t> pending;
    std::vector<GateId> ready;
    for (GateId g : subset) {
      std::uint32_t deps = 0;
      for (NetId f : w_.gate(g).fanins) {
        const GateId d = w_.driverOf(f);
        if (d != kNullId && subset.count(d)) ++deps;
      }
      pending[g] = deps;
      if (deps == 0) ready.push_back(g);
    }
    while (!ready.empty()) {
      const GateId g = ready.back();
      ready.pop_back();
      order.push_back(g);
      for (const Sink& snk : w_.net(w_.gate(g).out).sinks) {
        if (snk.isOutput() || !subset.count(snk.gate)) continue;
        if (--pending[snk.gate] == 0) ready.push_back(snk.gate);
      }
    }
    SYSECO_CHECK(order.size() == subset.size());
  }

  auto valueOf = [&](NetId n) -> const Signature& {
    if (const auto it = changed.find(n); it != changed.end())
      return it->second;
    SYSECO_CHECK(n < screen.baseNets);
    return screen.base->value(n);
  };
  std::vector<std::uint64_t> fanins(8);
  for (GateId g : order) {
    const auto& gate = w_.gate(g);
    if (fanins.size() < gate.fanins.size())
      fanins.resize(gate.fanins.size());
    Signature out(words, 0);
    for (std::size_t wd = 0; wd < words; ++wd) {
      for (std::size_t i = 0; i < gate.fanins.size(); ++i)
        fanins[i] = valueOf(gate.fanins[i])[wd];
      out[wd] = evalGateWord(gate.type, fanins.data(), gate.fanins.size());
    }
    changed[gate.out] = std::move(out);
  }

  auto firstMismatch =
      [&](const std::vector<std::uint64_t>& mask) -> bool {
    const std::size_t k = [&] {
      for (std::size_t wd = 0; wd < mask.size(); ++wd)
        if (mask[wd] != 0)
          return wd * 64 +
                 static_cast<std::size_t>(std::countr_zero(mask[wd]));
      return std::size_t{0};
    }();
    if (failingPattern && k < screen.patterns.count())
      *failingPattern = screen.patterns.patterns()[k];
    return false;
  };

  // Only affected outputs can change; unaffected healthy outputs stay
  // proven-correct from the base state. The target output is affected by
  // construction (its cone contains the rewired pins).
  for (std::uint32_t oo = 0; oo < w_.numOutputs(); ++oo) {
    const NetId on = w_.outputNet(oo);
    const bool affected = changed.count(on) || on >= screen.baseNets;
    if (!affected) {
      // An unaffected target output would mean the rewire cannot have
      // fixed anything; reject defensively.
      if (oo == o_) return false;
      continue;
    }
    if (oo != o_ && failing_.count(oo)) continue;  // still-broken peer
    if (screen.specOut[oo].empty()) continue;
    const auto mask =
        errorMask(valueOf(on), screen.specOut[oo], screen.patterns);
    if (countBits(mask) != 0) return firstMismatch(mask);
  }
  return true;
}

Result<WorkerPatch> runOutputTask(const TaskInputs& in, std::uint32_t output,
                                  const ResourceGuard::Limits& limits) {
  if (output >= in.base.numOutputs())
    return Status::invalidInput("worker task output out of range");
  try {
    // Task fault sites fail the pure task the same way under every
    // executor: oom/alloc as an allocation failure, any other engine kind
    // as a crash. "syseco.task" hits every task; the per-output variant
    // pins the blast radius to one output.
    const std::string persite = "syseco.task.o" + std::to_string(output);
    for (const char* site : {"syseco.task", persite.c_str()}) {
      const auto kind = fault::fire(site);
      if (kind == fault::Kind::kOom || kind == fault::Kind::kAllocFailure)
        throw std::bad_alloc{};
      if (kind) throw StatusError(Status::internal("injected task fault"));
    }
    // The search runs on a private copy of the base, protects every
    // planned output (none of them has committed on the base snapshot),
    // and searches under its slice of the run's resources. A produced
    // report is frag's only entry.
    Netlist w = in.base;
    PatchTracker tracker(w);
    const std::unordered_set<std::uint32_t> failing(in.protect.begin(),
                                                    in.protect.end());
    ResourceGuard guard(limits);
    SysecoDiagnostics frag;
    WorkerPatch p;
    p.produced =
        OutputSearch(in.search, tracker, failing, output, guard, frag).run();
    p.baseGates = in.base.numGatesTotal();
    p.baseNets = in.base.numNetsTotal();
    if (p.produced) {
      for (GateId g = static_cast<GateId>(p.baseGates); g < w.numGatesTotal();
           ++g) {
        const auto& gate = w.gate(g);
        p.gates.push_back(
            WorkerPatch::NewGate{gate.type, gate.fanins, gate.out});
      }
      p.rewires = tracker.rewires();
      p.frag = std::move(frag);
    }
    return p;
  } catch (const std::bad_alloc&) {
    return Status::budgetExhausted("worker task allocation failure");
  } catch (const StatusError& e) {
    return e.status();
  } catch (const std::exception& e) {
    return Status::internal(std::string("worker task threw: ") + e.what());
  }
}

}  // namespace syseco
