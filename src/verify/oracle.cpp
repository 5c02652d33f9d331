#include "verify/oracle.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "bdd/bdd.hpp"
#include "cnf/encode.hpp"
#include "util/fault.hpp"

namespace syseco {

namespace {

using Clock = std::chrono::steady_clock;

/// Simulation route sizing: the mass-random pass runs 64 * kSimWords
/// label-correlated patterns, the directed pass at most kSimDirectedMax
/// patterns confined to the output's support.
constexpr std::size_t kSimWords = 8;
constexpr std::size_t kSimDirectedMax = 64;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Builds the BDD of `root`'s function over pre-assigned input variables.
/// Inputs absent from `varOfInput` read constant 0 (the same convention as
/// CertificationOracle::mapToSpec, so all three routes check the identical
/// correspondence). Throws BddLimitExceeded when the manager budget trips.
///
/// `live` doubles as the memo map and the reorder root set: the caller's
/// root provider enumerates it, so a mid-build auto-reorder sees exactly
/// the refs later gates will still read. Entries whose remaining fanout
/// uses drop to zero are erased - that shrinking frontier is what makes
/// sifting's live-size objective meaningful on a cone build.
Bdd::Ref buildCone(Bdd& mgr, const Netlist& nl, NetId root,
                   const std::unordered_map<std::uint32_t, std::uint32_t>&
                       varOfInput,
                   std::unordered_map<NetId, Bdd::Ref>& live) {
  const std::vector<GateId> cone = nl.coneGates({root});
  std::unordered_map<NetId, std::uint32_t> usesLeft;
  for (GateId g : cone)
    for (NetId f : nl.gate(g).fanins) ++usesLeft[f];
  ++usesLeft[root];
  auto netRef = [&](NetId n) -> Bdd::Ref {
    if (auto it = live.find(n); it != live.end()) return it->second;
    // Not a gate output we computed: a PI (or an undriven net, which the
    // auditor would have flagged; treat it as constant 0 like evalOnce).
    Bdd::Ref ref = Bdd::kFalse;
    if (nl.isInputNet(n)) {
      const auto it = varOfInput.find(nl.net(n).srcIdx);
      if (it != varOfInput.end()) ref = mgr.var(it->second);
    }
    live.emplace(n, ref);
    return ref;
  };
  for (GateId g : cone) {
    const Netlist::Gate& gate = nl.gate(g);
    std::vector<Bdd::Ref> fan;
    fan.reserve(gate.fanins.size());
    for (NetId f : gate.fanins) fan.push_back(netRef(f));
    // Every partial lands in the pinned slot before the next operation
    // starts, so a reorder at any operation boundary keeps it live.
    Bdd::ScopedRef out(mgr, Bdd::kFalse);
    switch (gate.type) {
      case GateType::Const0: out = Bdd::kFalse; break;
      case GateType::Const1: out = Bdd::kTrue; break;
      case GateType::Buf: out = fan[0]; break;
      case GateType::Not: out = mgr.bNot(fan[0]); break;
      case GateType::And: out = mgr.andMany(fan); break;
      case GateType::Or: out = mgr.orMany(fan); break;
      case GateType::Nand:
        out = mgr.andMany(fan);
        out = mgr.bNot(out);
        break;
      case GateType::Nor:
        out = mgr.orMany(fan);
        out = mgr.bNot(out);
        break;
      case GateType::Xor:
      case GateType::Xnor: {
        for (Bdd::Ref f : fan) out = mgr.bXor(out, f);
        if (gate.type == GateType::Xnor) out = mgr.bNot(out);
        break;
      }
      case GateType::Mux: out = mgr.ite(fan[0], fan[2], fan[1]); break;
    }
    live[gate.out] = out;
    for (NetId f : gate.fanins)
      if (--usesLeft[f] == 0) live.erase(f);
  }
  return netRef(root);
}

}  // namespace

CertificationOracle::CertificationOracle(const Netlist& impl,
                                         const Netlist& spec,
                                         const OracleOptions& options)
    : impl_(impl), spec_(spec), opt_(options) {
  specInputFromImpl_.resize(spec_.numInputs(), kNullId);
  for (std::uint32_t i = 0; i < spec_.numInputs(); ++i)
    specInputFromImpl_[i] = impl_.findInput(spec_.inputName(i));
}

InputPattern CertificationOracle::mapToSpec(
    const InputPattern& implPattern) const {
  InputPattern out(spec_.numInputs(), 0);
  for (std::uint32_t i = 0; i < spec_.numInputs(); ++i)
    if (specInputFromImpl_[i] != kNullId)
      out[i] = implPattern[specInputFromImpl_[i]];
  return out;
}

RouteResult CertificationOracle::satRoute(std::uint32_t o, std::uint32_t op,
                                          InputPattern* cex) const {
  const Clock::time_point start = Clock::now();
  RouteResult result;
  // A fresh encoding: nothing (variable numbering, learned clauses, sweep
  // caches) is shared with the search that produced the patch.
  PairEncoding pe(impl_, spec_);
  Rng rng(opt_.seed ^ 0x5a7c3c0de0ULL ^
          (0x9e3779b97f4a7c15ULL * (o + 1)));
  const Solver::Result verdict =
      pe.solveDiffSwept(o, op, /*conflictBudget=*/-1, rng);
  switch (verdict) {
    case Solver::Result::Unsat:
      result.verdict = RouteVerdict::kEquivalent;
      break;
    case Solver::Result::Sat:
      result.verdict = RouteVerdict::kNotEquivalent;
      if (cex) *cex = pe.extractInputs(&rng);
      result.detail = "fresh miter satisfiable";
      break;
    case Solver::Result::Unknown:
      result.verdict = RouteVerdict::kSkippedBudget;
      result.detail = std::string("solver stopped: ") +
                      statusCodeName(pe.stopReason());
      break;
  }
  result.seconds = secondsSince(start);
  return result;
}

RouteResult CertificationOracle::bddRoute(std::uint32_t o, std::uint32_t op,
                                          std::optional<fault::Kind> injected,
                                          InputPattern* cex,
                                          BddStats* stats) const {
  const Clock::time_point start = Clock::now();
  RouteResult result;
  // Deterministic budget-trip injection for the skipped(budget) tests: the
  // route must behave exactly as if the node limit fired mid-build.
  if (injected == fault::Kind::kBddBlowup ||
      injected == fault::Kind::kBudgetExhausted) {
    result.verdict = RouteVerdict::kSkippedBudget;
    result.detail = "node budget exceeded (fault-injected)";
    result.seconds = secondsSince(start);
    return result;
  }
  // Label-correlated variable space over the union of both supports.
  const std::vector<std::uint32_t> implSup = impl_.support(impl_.outputNet(o));
  const std::vector<std::uint32_t> specSup = spec_.support(spec_.outputNet(op));
  std::unordered_map<std::uint32_t, std::uint32_t> implVar;
  std::unordered_map<std::uint32_t, std::uint32_t> specVar;
  std::uint32_t numVars = 0;
  for (std::uint32_t pi : implSup) implVar.emplace(pi, numVars++);
  for (std::uint32_t pi : specSup) {
    const std::uint32_t ii = specInputFromImpl_[pi];
    if (ii != kNullId) {
      if (auto it = implVar.find(ii); it != implVar.end()) {
        specVar.emplace(pi, it->second);
        continue;
      }
      // Correlated input outside the impl cone's support: it still needs a
      // shared variable so a cex assigns both sides consistently.
      const std::uint32_t v = numVars++;
      implVar.emplace(ii, v);
      specVar.emplace(pi, v);
      continue;
    }
    specVar.emplace(pi, numVars++);
  }
  BddConfig cfg;
  cfg.nodeLimit = opt_.bddNodeBudget;
  // Sifting: monolithic output cones at identity order are exactly where
  // dynamic reordering pays, and the verdict is order-independent (a cone
  // either completes - same function - or trips the same node budget).
  cfg.reorder = BddReorder::kSift;
  Bdd mgr(numVars, cfg);
  // Reorder roots: the in-progress cone frontier plus every finished
  // function still held across the remaining operations.
  std::unordered_map<NetId, Bdd::Ref> frontier;
  std::vector<Bdd::Ref> held;
  mgr.setRootProvider([&](std::vector<Bdd::Ref>& roots) {
    roots.reserve(roots.size() + frontier.size() + held.size());
    for (const auto& [net, ref] : frontier) roots.push_back(ref);
    roots.insert(roots.end(), held.begin(), held.end());
  });
  try {
    const Bdd::Ref fImpl =
        buildCone(mgr, impl_, impl_.outputNet(o), implVar, frontier);
    held.push_back(fImpl);
    frontier.clear();
    const Bdd::Ref fSpec =
        buildCone(mgr, spec_, spec_.outputNet(op), specVar, frontier);
    held.push_back(fSpec);
    frontier.clear();
    const Bdd::Ref diff = mgr.bXor(fImpl, fSpec);
    held.assign(1, diff);
    if (diff == Bdd::kFalse) {
      result.verdict = RouteVerdict::kEquivalent;
      result.detail =
          "monolithic cones over " + std::to_string(numVars) + " vars";
    } else {
      result.verdict = RouteVerdict::kNotEquivalent;
      result.detail = "XOR of cones is satisfiable";
      if (cex) {
        BddCube cube;
        mgr.pickCube(diff, cube);
        InputPattern pattern(impl_.numInputs(), 0);
        for (const auto& [pi, v] : implVar)
          if (v < cube.lits.size() && cube.lits[v] == 1) pattern[pi] = 1;
        *cex = std::move(pattern);
      }
    }
  } catch (const BddLimitExceeded&) {
    // The check did not finish; reporting anything but "skipped" here
    // would be a verdict the route never computed.
    result.verdict = RouteVerdict::kSkippedBudget;
    result.detail = "node budget exceeded at " +
                    std::to_string(opt_.bddNodeBudget) + " nodes";
  }
  if (stats) *stats = mgr.stats();
  result.seconds = secondsSince(start);
  return result;
}

RouteResult CertificationOracle::simRoute(std::uint32_t o, std::uint32_t op,
                                          InputPattern* cex) const {
  const Clock::time_point start = Clock::now();
  RouteResult result;
  Rng rng(opt_.seed ^ 0x51u ^ (0x9e3779b97f4a7c15ULL * (o + 1)));

  // Pass 1: mass random, label-correlated. Spec inputs with no impl
  // counterpart stay 0 (the Simulator zero-initializes), matching
  // mapToSpec's correspondence.
  Simulator implSim(impl_, kSimWords);
  Simulator specSim(spec_, kSimWords);
  implSim.randomizeInputs(rng);
  for (std::uint32_t i = 0; i < spec_.numInputs(); ++i) {
    const std::uint32_t ii = specInputFromImpl_[i];
    if (ii == kNullId) continue;
    for (std::size_t w = 0; w < kSimWords; ++w)
      specSim.setInputWord(i, w, implSim.word(impl_.inputNet(ii), w));
  }
  implSim.run();
  specSim.run();
  std::size_t checked = implSim.numPatterns();
  for (std::size_t w = 0; w < kSimWords; ++w) {
    const std::uint64_t diff =
        implSim.word(impl_.outputNet(o), w) ^ specSim.word(spec_.outputNet(op), w);
    if (diff == 0) continue;
    const std::size_t k = w * 64 +
        static_cast<std::size_t>(__builtin_ctzll(diff));
    result.verdict = RouteVerdict::kNotEquivalent;
    result.detail = "random pattern " + std::to_string(k) + " mismatches";
    if (cex) *cex = implSim.inputPatternAt(k);
    result.seconds = secondsSince(start);
    return result;
  }

  // Pass 2: directed at the output's support - walking-one and
  // walking-zero over the support inputs, then random-on-support-only
  // patterns, capped at kSimDirectedMax.
  const std::vector<std::uint32_t> sup = impl_.support(impl_.outputNet(o));
  std::vector<InputPattern> directed;
  const InputPattern zeros(impl_.numInputs(), 0);
  InputPattern ones = zeros;
  for (std::uint32_t pi : sup) ones[pi] = 1;
  directed.push_back(ones);
  for (std::uint32_t pi : sup) {
    if (directed.size() + 1 >= kSimDirectedMax) break;
    InputPattern one = zeros;
    one[pi] = 1;
    directed.push_back(one);  // walking one
    InputPattern zero = ones;
    zero[pi] = 0;
    directed.push_back(zero);  // walking zero
  }
  while (directed.size() < kSimDirectedMax) {
    InputPattern p = zeros;
    for (std::uint32_t pi : sup) p[pi] = rng.flip() ? 1 : 0;
    directed.push_back(std::move(p));
  }
  if (!directed.empty()) {
    const std::size_t dwords = (directed.size() + 63) / 64;
    Simulator dImpl(impl_, dwords);
    Simulator dSpec(spec_, dwords);
    dImpl.loadPatterns(directed);
    std::vector<InputPattern> specPatterns;
    specPatterns.reserve(directed.size());
    for (const InputPattern& p : directed) specPatterns.push_back(mapToSpec(p));
    dSpec.loadPatterns(specPatterns);
    dImpl.run();
    dSpec.run();
    checked += directed.size();
    for (std::size_t w = 0; w < dwords; ++w) {
      const std::uint64_t diff = dImpl.word(impl_.outputNet(o), w) ^
                                 dSpec.word(spec_.outputNet(op), w);
      if (diff == 0) continue;
      std::size_t k = w * 64 + static_cast<std::size_t>(__builtin_ctzll(diff));
      // Tail slots duplicate the all-zero assignment; the mismatch is
      // real, so report it on the canonical all-zero pattern.
      if (k >= directed.size()) k = directed.size();  // any tail slot
      result.verdict = RouteVerdict::kNotEquivalent;
      result.detail = "directed pattern mismatches";
      if (cex)
        *cex = k < directed.size() ? directed[k] : zeros;
      result.seconds = secondsSince(start);
      return result;
    }
  }
  result.verdict = RouteVerdict::kPassedBounded;
  result.detail = std::to_string(checked) + " patterns clean";
  result.seconds = secondsSince(start);
  return result;
}

OutputCertificate CertificationOracle::certify(
    std::uint32_t o, std::uint32_t op,
    std::optional<fault::Kind> bddFault) const {
  OutputCertificate cert;
  cert.output = o;
  cert.name = impl_.outputName(o);
  InputPattern satCex, bddCex, simCex;
  cert.sat = satRoute(o, op, &satCex);
  cert.bdd = bddRoute(o, op, bddFault, &bddCex, &cert.bddStats);
  cert.sim = simRoute(o, op, &simCex);

  int provers = 0;
  int refuters = 0;
  for (const RouteResult* r : {&cert.sat, &cert.bdd, &cert.sim}) {
    if (r->verdict == RouteVerdict::kEquivalent) ++provers;
    if (r->verdict == RouteVerdict::kNotEquivalent) ++refuters;
  }
  cert.certified = provers >= 1 && refuters == 0;
  cert.routesConflict = provers >= 1 && refuters >= 1;
  if (refuters > 0) {
    const Clock::time_point start = Clock::now();
    // Prefer the first refuting route whose counterexample the simulator
    // reproduces; a non-reproducing cex is kept but flagged.
    for (const InputPattern* candidate : {&simCex, &satCex, &bddCex}) {
      if (candidate->empty()) continue;
      bool reproduced = false;
      InputPattern shrunk =
          minimizeCex(impl_, o, spec_, op, *this, *candidate, &reproduced);
      if (reproduced || cert.cex.empty()) {
        cert.cex = std::move(shrunk);
        cert.cexReproduced = reproduced;
      }
      if (reproduced) break;
    }
    cert.cexDeviations = 0;
    for (std::uint8_t b : cert.cex) cert.cexDeviations += b ? 1 : 0;
    cert.cexSeconds = secondsSince(start);
  }
  return cert;
}

InputPattern minimizeCex(const Netlist& impl, std::uint32_t o,
                         const Netlist& spec, std::uint32_t op,
                         const CertificationOracle& oracle,
                         const InputPattern& cex, bool* reproduced) {
  auto mismatches = [&](const InputPattern& p) {
    return evalOnce(impl, p)[o] != evalOnce(spec, oracle.mapToSpec(p))[op];
  };
  if (!mismatches(cex)) {
    if (reproduced) *reproduced = false;
    return cex;
  }
  if (reproduced) *reproduced = true;

  // ddmin over the deviating (nonzero) bits: drive chunks of them back to
  // the all-zero baseline while the mismatch persists.
  InputPattern cur = cex;
  std::vector<std::size_t> dev;
  for (std::size_t i = 0; i < cur.size(); ++i)
    if (cur[i]) dev.push_back(i);
  std::size_t n = 2;
  while (!dev.empty()) {
    const std::size_t chunk = (dev.size() + n - 1) / n;
    bool reducedAny = false;
    for (std::size_t start = 0; start < dev.size(); start += chunk) {
      const std::size_t end = std::min(start + chunk, dev.size());
      InputPattern cand = cur;
      for (std::size_t j = start; j < end; ++j) cand[dev[j]] = 0;
      if (!mismatches(cand)) continue;
      cur = std::move(cand);
      dev.erase(dev.begin() + static_cast<std::ptrdiff_t>(start),
                dev.begin() + static_cast<std::ptrdiff_t>(end));
      n = n > 2 ? n - 1 : 2;
      reducedAny = true;
      break;
    }
    if (!reducedAny) {
      if (n >= dev.size()) break;  // 1-minimal
      n = std::min(n * 2, dev.size());
    }
  }
  return cur;
}

}  // namespace syseco
