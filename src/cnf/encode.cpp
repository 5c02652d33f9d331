#include "cnf/encode.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace syseco {

NetlistEncoder::NetlistEncoder(
    Solver& solver, const Netlist& netlist,
    std::unordered_map<std::string, Var>& inputVarByName)
    : solver_(solver),
      netlist_(netlist),
      inputVarByName_(inputVarByName),
      varOfNet_(netlist.numNetsTotal(), -1) {}

Var NetlistEncoder::netVar(NetId net) {
  // The netlist may have grown (patch cloning) since construction.
  if (net >= varOfNet_.size()) varOfNet_.resize(netlist_.numNetsTotal(), -1);
  if (varOfNet_[net] >= 0) return varOfNet_[net];
  // Re-entering a net whose cone is still being encoded means the netlist
  // has a combinational loop; fail closed instead of recursing forever.
  SYSECO_CHECK(varOfNet_[net] != kEncoding && "combinational cycle");
  varOfNet_[net] = kEncoding;

  const Netlist::Net& n = netlist_.net(net);
  Var v = -1;
  switch (n.srcKind) {
    case Netlist::SourceKind::Input: {
      const std::string& name = netlist_.inputName(n.srcIdx);
      auto it = inputVarByName_.find(name);
      if (it == inputVarByName_.end()) {
        v = solver_.newVar();
        inputVarByName_.emplace(name, v);
      } else {
        v = it->second;
      }
      break;
    }
    case Netlist::SourceKind::Gate:
      v = encodeGate(n.srcIdx);
      break;
    case Netlist::SourceKind::None:
      SYSECO_CHECK(false && "encoding an undriven net");
  }
  varOfNet_[net] = v;
  return v;
}

Var NetlistEncoder::encodeGate(GateId g) {
  const Netlist::Gate& gate = netlist_.gate(g);
  SYSECO_CHECK(!gate.dead);
  std::vector<Var> in;
  in.reserve(gate.fanins.size());
  for (NetId f : gate.fanins) in.push_back(netVar(f));

  auto lit = [](Var v, bool neg = false) { return Lit::make(v, neg); };
  Solver& s = solver_;

  switch (gate.type) {
    case GateType::Const0: {
      const Var v = s.newVar();
      s.addClause(lit(v, true));
      return v;
    }
    case GateType::Const1: {
      const Var v = s.newVar();
      s.addClause(lit(v));
      return v;
    }
    case GateType::Buf:
      return in[0];  // alias, no clauses needed
    case GateType::Not: {
      const Var v = s.newVar();
      s.addClause(lit(v), lit(in[0]));
      s.addClause(lit(v, true), lit(in[0], true));
      return v;
    }
    case GateType::And:
    case GateType::Nand: {
      const Var a = s.newVar();  // a == AND(in)
      std::vector<Lit> big;
      big.reserve(in.size() + 1);
      for (Var i : in) {
        s.addClause(lit(a, true), lit(i));  // a -> i
        big.push_back(lit(i, true));
      }
      big.push_back(lit(a));  // all i -> a
      s.addClause(std::move(big));
      if (gate.type == GateType::And) return a;
      const Var v = s.newVar();
      s.addClause(lit(v), lit(a));
      s.addClause(lit(v, true), lit(a, true));
      return v;
    }
    case GateType::Or:
    case GateType::Nor: {
      const Var a = s.newVar();  // a == OR(in)
      std::vector<Lit> big;
      big.reserve(in.size() + 1);
      for (Var i : in) {
        s.addClause(lit(a), lit(i, true));  // i -> a
        big.push_back(lit(i));
      }
      big.push_back(lit(a, true));  // a -> some i
      s.addClause(std::move(big));
      if (gate.type == GateType::Or) return a;
      const Var v = s.newVar();
      s.addClause(lit(v), lit(a));
      s.addClause(lit(v, true), lit(a, true));
      return v;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      // Chain binary XORs through intermediates.
      Var acc = in[0];
      for (std::size_t k = 1; k < in.size(); ++k) {
        const Var v = s.newVar();
        const Var b = in[k];
        s.addClause(lit(v, true), lit(acc), lit(b));
        s.addClause(lit(v, true), lit(acc, true), lit(b, true));
        s.addClause(lit(v), lit(acc, true), lit(b));
        s.addClause(lit(v), lit(acc), lit(b, true));
        acc = v;
      }
      if (in.size() == 1) {
        // Unary parity is identity; materialize for uniformity.
        const Var v = s.newVar();
        s.addClause(lit(v), lit(acc, true));
        s.addClause(lit(v, true), lit(acc));
        acc = v;
      }
      if (gate.type == GateType::Xor) return acc;
      const Var v = s.newVar();
      s.addClause(lit(v), lit(acc));
      s.addClause(lit(v, true), lit(acc, true));
      return v;
    }
    case GateType::Mux: {
      const Var v = s.newVar();
      const Var sel = in[0], d0 = in[1], d1 = in[2];
      s.addClause(lit(sel), lit(d0, true), lit(v));       // !sel & d0 -> v
      s.addClause(lit(sel), lit(d0), lit(v, true));       // !sel & !d0 -> !v
      s.addClause(lit(sel, true), lit(d1, true), lit(v)); // sel & d1 -> v
      s.addClause(lit(sel, true), lit(d1), lit(v, true)); // sel & !d1 -> !v
      // Redundant but propagation-strengthening clauses.
      s.addClause(lit(d0, true), lit(d1, true), lit(v));
      s.addClause(lit(d0), lit(d1), lit(v, true));
      return v;
    }
  }
  SYSECO_CHECK(false);
  return -1;
}

PairEncoding::PairEncoding(const Netlist& c, const Netlist& cPrime)
    : c_(c),
      cPrime_(cPrime),
      enc_(solver_, c, inputVarByName_),
      encPrime_(solver_, cPrime, inputVarByName_) {}

void PairEncoding::prepareSweeping(Rng& rng) {
  if (sweepReady_) return;
  sweepReady_ = true;
  constexpr std::size_t kWords = 8;  // 512 correlation patterns
  Simulator implSim(c_, kWords);
  Simulator specSim(cPrime_, kWords);
  implSim.randomizeInputs(rng);
  for (std::size_t i = 0; i < cPrime_.numInputs(); ++i) {
    const std::uint32_t idxC =
        c_.findInput(cPrime_.inputName(static_cast<std::uint32_t>(i)));
    for (std::size_t w = 0; w < kWords; ++w)
      specSim.setInputWord(
          static_cast<std::uint32_t>(i), w,
          idxC != kNullId ? implSim.word(c_.inputNet(idxC), w) : rng.next());
  }
  implSim.run();
  specSim.run();
  implSigs_.resize(c_.numNetsTotal());
  for (NetId n = 0; n < c_.numNetsTotal(); ++n) {
    const auto& net = c_.net(n);
    const bool liveDriven =
        net.srcKind == Netlist::SourceKind::Input ||
        (net.srcKind == Netlist::SourceKind::Gate &&
         !c_.gate(net.srcIdx).dead);
    if (!liveDriven) continue;
    implSigs_[n] = implSim.value(n);
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t w : implSigs_[n])
      h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    implBySig_[h].push_back(n);
  }
  specSigs_.resize(cPrime_.numNetsTotal());
  for (NetId n = 0; n < cPrime_.numNetsTotal(); ++n)
    specSigs_[n] = specSim.value(n);
}

Solver::Result PairEncoding::solveDiffSwept(std::uint32_t oC,
                                            std::uint32_t oCp,
                                            std::int64_t conflictBudget,
                                            Rng& rng,
                                            std::int64_t pairBudget) {
  prepareSweeping(rng);
  auto hashOf = [](const Signature& s, bool compl_) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t w : s) {
      if (compl_) w = ~w;
      h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  };
  auto equalSig = [](const Signature& a, const Signature& b, bool compl_) {
    if (a.size() != b.size() || a.empty()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if ((compl_ ? ~b[i] : b[i]) != a[i]) return false;
    return true;
  };

  // Bottom-up over the spec cone: prove one signature-suggested
  // equivalence per net and pin it with clauses. Lower proofs make upper
  // proofs (and finally the output miter) nearly propositional.
  for (GateId g : cPrime_.coneGates({cPrime_.outputNet(oCp)})) {
    const NetId sn = cPrime_.gate(g).out;
    if (!sweptSpecNets_.insert(sn).second) continue;  // already processed
    if (specSigs_[sn].empty()) continue;
    for (const bool compl_ : {false, true}) {
      const auto it = implBySig_.find(hashOf(specSigs_[sn], compl_));
      if (it == implBySig_.end()) continue;
      bool proven = false;
      std::size_t tried = 0;
      for (NetId cand : it->second) {
        if (!equalSig(implSigs_[cand], specSigs_[sn], compl_)) continue;
        if (++tried > 2) break;
        if (solveNetsDiff(cand, sn, compl_, pairBudget) ==
            Solver::Result::Unsat) {
          const Var a = enc_.netVar(cand);
          const Var b = encPrime_.netVar(sn);
          // Pin the proven relation: a == b (or a == !b).
          solver_.addClause(Lit::make(a, true), Lit::make(b, compl_));
          solver_.addClause(Lit::make(a, false), Lit::make(b, !compl_));
          proven = true;
          break;
        }
      }
      if (proven) break;
    }
  }
  return solveDiff(oC, oCp, conflictBudget);
}

Var PairEncoding::diffVar(std::uint32_t oC, std::uint32_t oCp) {
  const std::uint64_t key = (std::uint64_t{oC} << 32) | oCp;
  if (auto it = diffVars_.find(key); it != diffVars_.end()) return it->second;
  const Var a = enc_.outputVar(oC);
  const Var b = encPrime_.outputVar(oCp);
  const Var d = solver_.newVar();
  auto lit = [](Var v, bool neg = false) { return Lit::make(v, neg); };
  solver_.addClause(lit(d, true), lit(a), lit(b));
  solver_.addClause(lit(d, true), lit(a, true), lit(b, true));
  solver_.addClause(lit(d), lit(a, true), lit(b));
  solver_.addClause(lit(d), lit(a), lit(b, true));
  diffVars_.emplace(key, d);
  return d;
}

Solver::Result PairEncoding::solveDiff(std::uint32_t oC, std::uint32_t oCp,
                                       std::int64_t conflictBudget) {
  const Var d = diffVar(oC, oCp);
  return solver_.solve({Lit::make(d)}, conflictBudget);
}

Solver::Result PairEncoding::solveNetsDiff(NetId implNet, NetId specNet,
                                           bool complement,
                                           std::int64_t conflictBudget) {
  const Var a = enc_.netVar(implNet);
  const Var b = encPrime_.netVar(specNet);
  const Var d = solver_.newVar();
  auto lit = [](Var v, bool neg = false) { return Lit::make(v, neg); };
  // d == (a XOR b), or (a XNOR b) for complement-equivalence.
  solver_.addClause(lit(d, true), lit(a), lit(b, complement));
  solver_.addClause(lit(d, true), lit(a, true), lit(b, !complement));
  solver_.addClause(lit(d), lit(a, true), lit(b, complement));
  solver_.addClause(lit(d), lit(a), lit(b, !complement));
  return solver_.solve({lit(d)}, conflictBudget);
}

InputPattern PairEncoding::extractInputs(Rng* rng) const {
  InputPattern pattern(c_.numInputs(), 0);
  for (std::size_t i = 0; i < c_.numInputs(); ++i) {
    const auto it =
        inputVarByName_.find(c_.inputName(static_cast<std::uint32_t>(i)));
    if (it != inputVarByName_.end()) {
      pattern[i] = solver_.modelValue(it->second) ? 1 : 0;
    } else if (rng) {
      pattern[i] = rng->flip() ? 1 : 0;
    }
  }
  return pattern;
}

std::vector<InputPattern> PairEncoding::enumerateErrors(
    std::uint32_t oC, std::uint32_t oCp, std::size_t maxSamples,
    std::int64_t conflictBudget, Rng* rng) {
  std::vector<InputPattern> samples;
  // Block on the union of the two cones' PI supports: assignments outside
  // the support are irrelevant to this output pair.
  std::vector<std::uint32_t> supp = c_.support(c_.outputNet(oC));
  {
    // C' support, translated to C input indices by label.
    const auto& cp = encPrime_.netlist();
    for (std::uint32_t pi : cp.support(cp.outputNet(oCp))) {
      const std::uint32_t idxC = c_.findInput(cp.inputName(pi));
      if (idxC != kNullId) supp.push_back(idxC);
    }
    std::sort(supp.begin(), supp.end());
    supp.erase(std::unique(supp.begin(), supp.end()), supp.end());
  }
  while (samples.size() < maxSamples) {
    const Solver::Result r = solveDiff(oC, oCp, conflictBudget);
    if (r != Solver::Result::Sat) break;
    samples.push_back(extractInputs(rng));
    // Block this assignment on the support.
    std::vector<Lit> block;
    block.reserve(supp.size());
    for (std::uint32_t pi : supp) {
      const auto it = inputVarByName_.find(c_.inputName(pi));
      if (it == inputVarByName_.end()) continue;
      block.push_back(Lit::make(it->second, samples.back()[pi] != 0));
    }
    if (block.empty()) break;  // constant-difference pair: one sample only
    if (!solver_.addClause(std::move(block))) break;
  }
  return samples;
}

Solver::Result checkOutputEquiv(const Netlist& c, std::uint32_t oC,
                                const Netlist& cPrime, std::uint32_t oCp,
                                InputPattern* cex,
                                std::int64_t conflictBudget) {
  PairEncoding pe(c, cPrime);
  const Solver::Result r = pe.solveDiff(oC, oCp, conflictBudget);
  if (r == Solver::Result::Sat && cex) *cex = pe.extractInputs();
  return r;
}

Solver::Result checkNetsEquiv(const Netlist& n, NetId a, NetId b,
                              bool complement, std::int64_t conflictBudget) {
  Solver solver;
  std::unordered_map<std::string, Var> inputVars;
  NetlistEncoder enc(solver, n, inputVars);
  const Var va = enc.netVar(a);
  const Var vb = enc.netVar(b);
  const Var d = solver.newVar();
  auto lit = [](Var v, bool neg = false) { return Lit::make(v, neg); };
  // d == (a XOR b), or (a XNOR b) when checking complement-equivalence.
  const bool inv = complement;
  solver.addClause(lit(d, true), lit(va), lit(vb, inv));
  solver.addClause(lit(d, true), lit(va, true), lit(vb, !inv));
  solver.addClause(lit(d), lit(va, true), lit(vb, inv));
  solver.addClause(lit(d), lit(va), lit(vb, !inv));
  return solver.solve({lit(d)}, conflictBudget);
}

std::vector<std::uint32_t> findFailingOutputs(
    const Netlist& c, const Netlist& cPrime, Rng& rng,
    std::int64_t perOutputBudget, ResourceGuard* guard,
    std::vector<std::uint32_t>* unresolved) {
  // Phase 1: random simulation quickly classifies definite failures.
  constexpr std::size_t kWords = 16;  // 1024 patterns
  Simulator simC(c, kWords);
  Simulator simCp(cPrime, kWords);
  // Same patterns on label-correlated inputs.
  simC.randomizeInputs(rng);
  for (std::size_t i = 0; i < cPrime.numInputs(); ++i) {
    const std::uint32_t idxC =
        c.findInput(cPrime.inputName(static_cast<std::uint32_t>(i)));
    for (std::size_t w = 0; w < kWords; ++w) {
      const std::uint64_t bits =
          idxC != kNullId ? simC.word(c.inputNet(idxC), w) : rng.next();
      simCp.setInputWord(static_cast<std::uint32_t>(i), w, bits);
    }
  }
  simC.run();
  simCp.run();

  std::vector<std::uint32_t> failing;
  std::vector<std::uint32_t> undecided;
  for (std::uint32_t o = 0; o < c.numOutputs(); ++o) {
    const std::uint32_t op = cPrime.findOutput(c.outputName(o));
    if (op == kNullId) continue;
    if (simC.outputValue(o) != simCp.outputValue(op)) {
      failing.push_back(o);
    } else {
      undecided.push_back(o);
    }
  }

  // Phase 2: confirm the rest with one shared incremental encoding,
  // SAT-swept so the structurally-dissimilar miters stay easy.
  if (!undecided.empty()) {
    PairEncoding pe(c, cPrime);
    pe.setResourceGuard(guard);
    for (std::uint32_t o : undecided) {
      const std::uint32_t op = cPrime.findOutput(c.outputName(o));
      const Solver::Result r = pe.solveDiffSwept(o, op, perOutputBudget, rng);
      if (r == Solver::Result::Sat) failing.push_back(o);
      // Unknown is treated as "equivalent enough" on unbounded runs: the
      // validation loop will still catch a real mismatch later. A governed
      // caller gets the undecided set instead and degrades conservatively.
      if (r == Solver::Result::Unknown && unresolved != nullptr)
        unresolved->push_back(o);
    }
  }
  std::sort(failing.begin(), failing.end());
  return failing;
}

}  // namespace syseco
