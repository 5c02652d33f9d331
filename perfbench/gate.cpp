#include "gate.hpp"

#include <chrono>

#include "cnf/encode.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace perfbench {

using syseco::kNullId;
using syseco::Netlist;

namespace {

// 64 words = 4096 random patterns per netlist.
constexpr std::size_t kSimWords = 64;

}  // namespace

GateVerdict checkAgainstSpec(const Netlist& rectified, const Netlist& spec,
                             std::uint64_t seed, Tracer& tracer) {
  GateVerdict v;
  auto fail = [&v](std::string why) {
    if (v.ok) v.detail = std::move(why);
    v.ok = false;
  };

  // One fresh encoding of the pair, shared by its per-output miters; SAT
  // sweeping keeps the structurally dissimilar miters of optimized
  // netlists tractable.
  syseco::PairEncoding miter(rectified, spec);
  syseco::Rng sweepRng(seed);
  for (std::uint32_t op = 0; op < spec.numOutputs(); ++op) {
    const std::uint32_t o = rectified.findOutput(spec.outputName(op));
    if (o == kNullId) {
      fail("output " + spec.outputName(op) + " missing from the patch");
      continue;
    }
    syseco::Solver::Result r;
    {
      ScopedSpan span(tracer, "sat.check_output");
      r = miter.solveDiffSwept(o, op, -1, sweepRng);
    }
    ++v.outputs;
    if (r != syseco::Solver::Result::Unsat)
      fail("output " + spec.outputName(op) +
           (r == syseco::Solver::Result::Sat ? " differs (SAT miter)"
                                             : " undecided (SAT miter)"));
  }

  // Random simulation over label-matched inputs; rectified inputs the spec
  // lacks get their own random words.
  syseco::Rng rng(seed);
  syseco::Simulator simSpec(spec, kSimWords);
  syseco::Simulator simRect(rectified, kSimWords);
  simSpec.randomizeInputs(rng);
  simRect.randomizeInputs(rng);
  for (std::uint32_t i = 0; i < rectified.numInputs(); ++i) {
    const std::uint32_t is = spec.findInput(rectified.inputName(i));
    if (is == kNullId) continue;
    for (std::size_t w = 0; w < kSimWords; ++w)
      simRect.setInputWord(i, w, simSpec.word(spec.inputNet(is), w));
  }
  {
    ScopedSpan span(tracer, "sim.random_pass");
    const auto t0 = std::chrono::steady_clock::now();
    simSpec.run();
    simRect.run();
    v.simSeconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  }
  v.gateEvaluations =
      static_cast<double>(spec.countLiveGates() + rectified.countLiveGates()) *
      static_cast<double>(simSpec.numPatterns());
  for (std::uint32_t op = 0; op < spec.numOutputs(); ++op) {
    const std::uint32_t o = rectified.findOutput(spec.outputName(op));
    if (o != kNullId && simRect.outputValue(o) != simSpec.outputValue(op))
      fail("output " + spec.outputName(op) + " differs (simulation)");
  }
  return v;
}

Netlist breakFirstOutput(const Netlist& netlist) {
  Netlist broken = netlist.clone();
  broken.rewireOutput(
      0, broken.addGate(syseco::GateType::Not, {broken.outputNet(0)}));
  return broken;
}

}  // namespace perfbench
