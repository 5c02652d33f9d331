// Tseitin encoding and equivalence-checking tests: every gate type's CNF
// against its truth table, miters, error enumeration, failing-output
// detection.

#include <gtest/gtest.h>

#include "cnf/encode.hpp"
#include "gen/spec_builder.hpp"
#include "opt/passes.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace syseco {
namespace {

/// Exhaustively checks that the CNF encoding of a single-gate circuit
/// admits exactly the gate's truth table.
void checkGateEncoding(GateType type, std::size_t arity) {
  Netlist nl;
  std::vector<NetId> ins;
  for (std::size_t i = 0; i < arity; ++i)
    ins.push_back(nl.addInput("i" + std::to_string(i)));
  nl.addOutput("o", nl.addGate(type, ins));

  Solver solver;
  std::unordered_map<std::string, Var> inputVars;
  NetlistEncoder enc(solver, nl, inputVars);
  const Var out = enc.outputVar(0);

  for (std::uint64_t m = 0; m < (1ULL << arity); ++m) {
    InputPattern p(arity);
    std::vector<Lit> assumptions;
    for (std::size_t i = 0; i < arity; ++i) {
      p[i] = (m >> i) & 1;
      assumptions.push_back(
          Lit::make(inputVars.at("i" + std::to_string(i)), p[i] == 0));
    }
    const bool expected = evalOnce(nl, p)[0] != 0;
    // Output forced to the expected value: satisfiable.
    auto sat = assumptions;
    sat.push_back(Lit::make(out, !expected));
    EXPECT_EQ(solver.solve(sat), Solver::Result::Sat)
        << gateTypeName(type) << " input " << m;
    // Output forced to the opposite: unsatisfiable.
    auto unsat = assumptions;
    unsat.push_back(Lit::make(out, expected));
    EXPECT_EQ(solver.solve(unsat), Solver::Result::Unsat)
        << gateTypeName(type) << " input " << m;
  }
}

TEST(Tseitin, AllGateTypesMatchTruthTables) {
  checkGateEncoding(GateType::Buf, 1);
  checkGateEncoding(GateType::Not, 1);
  checkGateEncoding(GateType::And, 2);
  checkGateEncoding(GateType::And, 3);
  checkGateEncoding(GateType::Or, 2);
  checkGateEncoding(GateType::Or, 4);
  checkGateEncoding(GateType::Nand, 2);
  checkGateEncoding(GateType::Nor, 3);
  checkGateEncoding(GateType::Xor, 2);
  checkGateEncoding(GateType::Xor, 3);
  checkGateEncoding(GateType::Xnor, 2);
  checkGateEncoding(GateType::Mux, 3);
}

TEST(Tseitin, ConstantGates) {
  Netlist nl;
  (void)nl.addInput("x");  // at least one input for pattern plumbing
  nl.addOutput("one", nl.addGate(GateType::Const1, {}));
  nl.addOutput("zero", nl.addGate(GateType::Const0, {}));
  Solver solver;
  std::unordered_map<std::string, Var> inputVars;
  NetlistEncoder enc(solver, nl, inputVars);
  EXPECT_EQ(solver.solve({Lit::make(enc.outputVar(0), true)}),
            Solver::Result::Unsat);
  EXPECT_EQ(solver.solve({Lit::make(enc.outputVar(1), false)}),
            Solver::Result::Unsat);
}

TEST(TseitinDeathTest, CombinationalCycleFailsClosed) {
  // Two gates feeding each other: encoding must stop on the invariant
  // check instead of recursing until the stack overflows.
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId x = nl.addGate(GateType::And, {a, a});
  const NetId y = nl.addGate(GateType::Or, {x, a});
  nl.rewireGatePin(nl.driverOf(x), 1, y);
  nl.addOutput("o", y);
  ASSERT_FALSE(nl.isAcyclic());

  Solver solver;
  std::unordered_map<std::string, Var> inputVars;
  NetlistEncoder enc(solver, nl, inputVars);
  EXPECT_DEATH(enc.outputVar(0), "invariant violated.*combinational cycle");
}

TEST(Equivalence, DetectsEquivalentAndDifferentOutputs) {
  // f = a AND b vs g = NOT(NOT a OR NOT b): equivalent (De Morgan).
  Netlist c;
  {
    const NetId a = c.addInput("a");
    const NetId b = c.addInput("b");
    c.addOutput("o", c.addGate(GateType::And, {a, b}));
  }
  Netlist cp;
  {
    const NetId a = cp.addInput("a");
    const NetId b = cp.addInput("b");
    const NetId na = cp.addGate(GateType::Not, {a});
    const NetId nb = cp.addGate(GateType::Not, {b});
    cp.addOutput("o", cp.addGate(GateType::Nor, {na, nb}));
  }
  EXPECT_EQ(checkOutputEquiv(c, 0, cp, 0), Solver::Result::Unsat);

  // Change the spec to OR: a counterexample must exist and differ.
  Netlist cq;
  {
    const NetId a = cq.addInput("a");
    const NetId b = cq.addInput("b");
    cq.addOutput("o", cq.addGate(GateType::Or, {a, b}));
  }
  InputPattern cex;
  EXPECT_EQ(checkOutputEquiv(c, 0, cq, 0, &cex), Solver::Result::Sat);
  ASSERT_EQ(cex.size(), 2u);
  EXPECT_NE(evalOnce(c, cex)[0], evalOnce(cq, cex)[0]);
}

TEST(Equivalence, NetsEquivWithinOneNetlist) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("b");
  const NetId x = nl.addGate(GateType::Xor, {a, b});
  const NetId y = nl.addGate(GateType::Xnor, {a, b});
  nl.addOutput("o", nl.addGate(GateType::Or, {x, y}));
  EXPECT_EQ(checkNetsEquiv(nl, x, y), Solver::Result::Sat);  // differ
  EXPECT_EQ(checkNetsEquiv(nl, x, y, /*complement=*/true),
            Solver::Result::Unsat);  // complement-equivalent
}

TEST(Equivalence, EnumerateErrorsFindsAllAndOnlyErrors) {
  // Impl: o = a AND b. Spec: o = a. Errors: a=1,b=0 (restricted to the
  // support {a, b}).
  Netlist c;
  {
    const NetId a = c.addInput("a");
    const NetId b = c.addInput("b");
    c.addOutput("o", c.addGate(GateType::And, {a, b}));
  }
  Netlist cp;
  {
    const NetId a = cp.addInput("a");
    (void)cp.addInput("b");
    cp.addOutput("o", cp.addGate(GateType::Buf, {a}));
  }
  PairEncoding pe(c, cp);
  Rng rng(1);
  const auto errors = pe.enumerateErrors(0, 0, 16, -1, &rng);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0][0], 1);  // a = 1
  EXPECT_EQ(errors[0][1], 0);  // b = 0
}

TEST(Equivalence, FindFailingOutputsExact) {
  // Three outputs; only the middle one is revised.
  Netlist c;
  {
    const NetId a = c.addInput("a");
    const NetId b = c.addInput("b");
    c.addOutput("keep1", c.addGate(GateType::And, {a, b}));
    c.addOutput("fix", c.addGate(GateType::Or, {a, b}));
    c.addOutput("keep2", c.addGate(GateType::Xor, {a, b}));
  }
  Netlist cp;
  {
    const NetId a = cp.addInput("a");
    const NetId b = cp.addInput("b");
    const NetId na = cp.addGate(GateType::Not, {a});
    const NetId nb = cp.addGate(GateType::Not, {b});
    cp.addOutput("keep1", cp.addGate(GateType::Nor, {na, nb}));
    cp.addOutput("fix", cp.addGate(GateType::Xor, {a, b}));  // revised!
    cp.addOutput("keep2", cp.addGate(GateType::Xor, {a, b}));
  }
  Rng rng(2);
  const auto failing = findFailingOutputs(c, cp, rng);
  EXPECT_EQ(failing, (std::vector<std::uint32_t>{1}));
}

TEST(Equivalence, FindFailingOutputsCatchesSimInvisibleErrors) {
  // The only difference is the all-ones minterm of 16 inputs: random
  // simulation (1024 patterns) almost surely misses it, so the exact SAT
  // confirmation phase must catch it.
  Netlist c;
  Netlist cp;
  {
    std::vector<NetId> ins;
    for (int i = 0; i < 16; ++i)
      ins.push_back(c.addInput("x" + std::to_string(i)));
    c.addOutput("o", c.addGate(GateType::And, ins));
    c.addOutput("same", c.addGate(GateType::Xor, {ins[0], ins[1]}));
  }
  {
    std::vector<NetId> ins;
    for (int i = 0; i < 16; ++i)
      ins.push_back(cp.addInput("x" + std::to_string(i)));
    cp.addOutput("o", cp.addGate(GateType::Const0, {}));  // revised
    cp.addOutput("same", cp.addGate(GateType::Xor, {ins[0], ins[1]}));
  }
  Rng rng(123);
  const auto failing = findFailingOutputs(c, cp, rng);
  EXPECT_EQ(failing, (std::vector<std::uint32_t>{0}));
}

class CnfVsSim : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CnfVsSim, RandomCircuitCnfAgreesWithSimulation) {
  // Property: for random circuits, forcing the encoded inputs to a random
  // pattern forces the encoded output to the simulated value.
  Rng rng(GetParam());
  SpecCircuit sc = buildSpec(SpecParams{2, 4, 2, 2, 4, 3, 2, 2}, rng);
  const Netlist& nl = sc.netlist;
  Solver solver;
  std::unordered_map<std::string, Var> inputVars;
  NetlistEncoder enc(solver, nl, inputVars);
  std::vector<Var> outVars;
  for (std::uint32_t o = 0; o < nl.numOutputs(); ++o)
    outVars.push_back(enc.outputVar(o));

  for (int trial = 0; trial < 8; ++trial) {
    InputPattern p(nl.numInputs());
    std::vector<Lit> assumptions;
    for (std::size_t i = 0; i < nl.numInputs(); ++i) {
      p[i] = rng.flip() ? 1 : 0;
      const auto it =
          inputVars.find(nl.inputName(static_cast<std::uint32_t>(i)));
      if (it != inputVars.end())
        assumptions.push_back(Lit::make(it->second, p[i] == 0));
    }
    const auto expected = evalOnce(nl, p);
    ASSERT_EQ(solver.solve(assumptions), Solver::Result::Sat);
    for (std::uint32_t o = 0; o < nl.numOutputs(); ++o)
      EXPECT_EQ(solver.modelValue(outVars[o]), expected[o] != 0)
          << "output " << o;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CnfVsSim, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace syseco
