#include "eco/patch.hpp"

#include <algorithm>

#include "cnf/encode.hpp"
#include "util/check.hpp"

namespace syseco {

PatchTracker::PatchTracker(Netlist& working)
    : working_(working),
      baseGates_(working.numGatesTotal()),
      baseNets_(working.numNetsTotal()) {
  for (std::uint32_t i = 0; i < working_.numInputs(); ++i)
    inputByName_.emplace(working_.inputName(i), working_.inputNet(i));
}

PatchTracker::PatchTracker(Netlist& working, const State& state)
    : working_(working),
      baseGates_(state.baseGates),
      baseNets_(state.baseNets),
      rewires_(state.rewires) {
  for (std::uint32_t i = 0; i < working_.numInputs(); ++i)
    inputByName_.emplace(working_.inputName(i), working_.inputNet(i));
  for (const auto& [specNet, here] : state.cloneCache)
    specCloneCache_.emplace(specNet, here);
}

PatchTracker::State PatchTracker::state() const {
  State s;
  s.baseGates = baseGates_;
  s.baseNets = baseNets_;
  s.rewires = rewires_;
  s.cloneCache.assign(specCloneCache_.begin(), specCloneCache_.end());
  std::sort(s.cloneCache.begin(), s.cloneCache.end());
  return s;
}

void PatchTracker::rewire(const Sink& sink, NetId newNet) {
  NetId oldNet;
  if (sink.isOutput()) {
    oldNet = working_.outputNet(sink.port);
  } else {
    oldNet = working_.gate(sink.gate).fanins[sink.port];
  }
  if (oldNet == newNet) return;
  working_.rewireSink(sink, newNet);
  rewires_.push_back(RewireRecord{sink, oldNet, newNet});
}

void PatchTracker::rollback(std::size_t mark) {
  while (rewires_.size() > mark) {
    const RewireRecord& r = rewires_.back();
    working_.rewireSink(r.sink, r.oldNet);
    rewires_.pop_back();
  }
}

NetId PatchTracker::cloneSpecCone(const Netlist& spec, NetId specNet) {
  return working_.cloneCone(spec, specNet, inputByName_, specCloneCache_);
}

PatchStats PatchTracker::finalize() {
  working_.sweepDeadLogic();
  PatchStats stats;

  // Outputs: distinct rewired pins whose final driver differs from the
  // original one (a pin rewired and later restored does not count).
  // The rewire log may touch the same pin several times; the last record
  // wins.
  std::vector<RewireRecord> lastBySink;  // oldNet = first original driver
  for (const RewireRecord& r : rewires_) {
    // Rewires of pins that belong to *added* gates are patch-internal
    // bookkeeping (sweeping merges); the patch boundary only counts pins of
    // pre-existing logic and primary outputs.
    if (!r.sink.isOutput() && r.sink.gate >= baseGates_) continue;
    auto it = std::find_if(
        lastBySink.begin(), lastBySink.end(),
        [&](const RewireRecord& p) { return p.sink == r.sink; });
    if (it != lastBySink.end())
      it->newNet = r.newNet;
    else
      lastBySink.push_back(r);
  }
  lastBySink.erase(std::remove_if(lastBySink.begin(), lastBySink.end(),
                                  [](const RewireRecord& r) {
                                    return r.oldNet == r.newNet;
                                  }),
                   lastBySink.end());

  auto isConstNet = [&](NetId n) {
    const auto& net = working_.net(n);
    if (net.srcKind != Netlist::SourceKind::Gate) return false;
    const GateType t = working_.gate(net.srcIdx).type;
    return t == GateType::Const0 || t == GateType::Const1;
  };

  std::vector<NetId> inputNets;
  std::vector<NetId> connectionNets;
  for (const RewireRecord& r : lastBySink) {
    ++stats.outputs;
    if (isOriginalNet(r.newNet)) {
      connectionNets.push_back(r.newNet);
      if (!isConstNet(r.newNet)) inputNets.push_back(r.newNet);
    }
  }

  // Added logic.
  for (GateId g = static_cast<GateId>(baseGates_);
       g < working_.numGatesTotal(); ++g) {
    const auto& gate = working_.gate(g);
    if (gate.dead) continue;
    const bool isConst =
        gate.type == GateType::Const0 || gate.type == GateType::Const1;
    if (!isConst) ++stats.gates;
    ++stats.nets;  // the gate's output net
    for (NetId f : gate.fanins) {
      if (isOriginalNet(f) && !isConstNet(f)) inputNets.push_back(f);
    }
  }

  std::sort(inputNets.begin(), inputNets.end());
  inputNets.erase(std::unique(inputNets.begin(), inputNets.end()),
                  inputNets.end());
  std::sort(connectionNets.begin(), connectionNets.end());
  connectionNets.erase(
      std::unique(connectionNets.begin(), connectionNets.end()),
      connectionNets.end());
  stats.inputs = inputNets.size();
  stats.nets += connectionNets.size();
  return stats;
}

bool verifyAllOutputs(const Netlist& impl, const Netlist& spec) {
  PairEncoding pe(impl, spec);
  Rng rng(0x5eedu);
  for (std::uint32_t o = 0; o < impl.numOutputs(); ++o) {
    const std::uint32_t op = spec.findOutput(impl.outputName(o));
    if (op == kNullId) continue;
    if (pe.solveDiffSwept(o, op, /*conflictBudget=*/-1, rng) !=
        Solver::Result::Unsat)
      return false;
  }
  return true;
}

}  // namespace syseco
