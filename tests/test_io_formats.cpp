// BLIF and Verilog interchange tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "eco/patch.hpp"
#include "gen/eco_case.hpp"
#include "gen/spec_builder.hpp"
#include "io/blif_io.hpp"
#include "io/verilog_io.hpp"
#include "sim/simulator.hpp"

namespace syseco {

// gtest lists a value parameter after its test name, and CTest folds that
// listing into the test's name; a recipe printed by name keeps the name the
// same from run to run, where the default byte dump carries a heap address.
void PrintTo(const CaseRecipe& recipe, std::ostream* os) {
  *os << recipe.name;
}

namespace {

class BlifRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlifRoundTrip, PreservesFunction) {
  Rng rng(GetParam());
  SpecCircuit sc = buildSpec(SpecParams{2, 5, 3, 2, 4, 3, 2, 2}, rng);
  std::ostringstream os;
  writeBlif(os, sc.netlist, "rt");
  std::istringstream is(os.str());
  const Netlist back = readBlif(is);
  EXPECT_EQ(back.numInputs(), sc.netlist.numInputs());
  EXPECT_EQ(back.numOutputs(), sc.netlist.numOutputs());
  EXPECT_TRUE(verifyAllOutputs(back, sc.netlist));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlifRoundTrip,
                         ::testing::Values(1, 7, 13, 21, 33));

TEST(Blif, ParsesHandWrittenCover) {
  const char* text = R"(
# a 2:1 mux written as covers
.model muxy
.inputs s a b
.outputs y ny
.names s a b y
0 1- 1
11 -1 1
.names y ny
0 1
.end
)";
  // Note: BLIF masks have no spaces; rewrite rows properly.
  (void)text;
  const char* good = ".model muxy\n.inputs s a b\n.outputs y ny\n"
                     ".names s a b y\n01- 1\n1-1 1\n"
                     ".names y ny\n0 1\n.end\n";
  std::istringstream is(good);
  const Netlist nl = readBlif(is);
  for (int s = 0; s <= 1; ++s)
    for (int a = 0; a <= 1; ++a)
      for (int b = 0; b <= 1; ++b) {
        const auto out = evalOnce(nl, {static_cast<std::uint8_t>(s),
                                       static_cast<std::uint8_t>(a),
                                       static_cast<std::uint8_t>(b)});
        const int expect = s ? b : a;
        EXPECT_EQ(out[0], expect);
        EXPECT_EQ(out[1], 1 - expect);
      }
}

TEST(Blif, ParsesOffsetCover) {
  // f written via the off-set: rows with value 0 build the complement.
  const char* text = ".model offs\n.inputs a b\n.outputs f\n"
                     ".names a b f\n00 0\n.end\n";
  std::istringstream is(text);
  const Netlist nl = readBlif(is);
  // f = NOT(!a & !b) = a | b.
  EXPECT_EQ(evalOnce(nl, {0, 0})[0], 0);
  EXPECT_EQ(evalOnce(nl, {0, 1})[0], 1);
  EXPECT_EQ(evalOnce(nl, {1, 0})[0], 1);
  EXPECT_EQ(evalOnce(nl, {1, 1})[0], 1);
}

TEST(Blif, ParsesConstantsAndContinuations) {
  const char* text = ".model k\n.inputs a\n.outputs one zero buf\n"
                     ".names one\n1\n.names zero\n\n.names a \\\nbuf\n1 1\n"
                     ".end\n";
  std::istringstream is(text);
  const Netlist nl = readBlif(is);
  EXPECT_EQ(evalOnce(nl, {0})[0], 1);
  EXPECT_EQ(evalOnce(nl, {0})[1], 0);
  EXPECT_EQ(evalOnce(nl, {1})[2], 1);
}

TEST(Blif, HandlesOutOfOrderCovers) {
  // BLIF allows covers in any order; y depends on t defined later.
  const char* text = ".model ooo\n.inputs a b\n.outputs y\n"
                     ".names t y\n0 1\n.names a b t\n11 1\n.end\n";
  std::istringstream is(text);
  const Netlist nl = readBlif(is);
  EXPECT_EQ(evalOnce(nl, {1, 1})[0], 0);  // y = !(a&b)
  EXPECT_EQ(evalOnce(nl, {1, 0})[0], 1);
}

TEST(Blif, RejectsUnsupportedConstructs) {
  {
    std::istringstream is(".model l\n.inputs a\n.outputs q\n"
                          ".latch a q re clk 0\n.end\n");
    EXPECT_THROW(readBlif(is), std::runtime_error);
  }
  {
    std::istringstream is(".model c\n.inputs a\n.outputs y\n"
                          ".names a b y\n11 1\n.names y a b\n1- 1\n.end\n");
    // b depends on y depends on b: combinational cycle.
    EXPECT_THROW(readBlif(is), std::runtime_error);
  }
  {
    std::istringstream is(".inputs a\n.outputs y\n.end\n");
    EXPECT_THROW(readBlif(is), std::runtime_error);  // missing .model
  }
}

// --- Faithful ingest -------------------------------------------------------

Netlist roundTrip(const Netlist& nl) {
  std::ostringstream os;
  writeBlif(os, nl);
  std::istringstream is(os.str());
  return readBlif(is);
}

/// Non-dead gates per type, indexed by GateType.
std::array<std::size_t, 11> gateCounts(const Netlist& nl) {
  std::array<std::size_t, 11> counts{};
  for (GateId g = 0; g < nl.numGatesTotal(); ++g)
    if (!nl.gate(g).dead)
      ++counts[static_cast<std::size_t>(nl.gate(g).type)];
  return counts;
}

/// Compares every output of `a` and `b` (matched by label) on all
/// 2^inputs assignments; inputs are matched by position.
void expectSameFunctionExhaustive(const Netlist& a, const Netlist& b) {
  ASSERT_EQ(a.numInputs(), b.numInputs());
  ASSERT_LE(a.numInputs(), 20u);
  const std::size_t n = a.numInputs();
  const std::size_t words = n <= 6 ? 1 : std::size_t{1} << (n - 6);
  Simulator sa(a, words), sb(b, words);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = 0;
      for (std::size_t k = 0; k < 64; ++k) {
        const std::size_t pattern = w * 64 + k;
        if ((pattern >> i) & 1) bits |= std::uint64_t{1} << k;
      }
      sa.setInputWord(i, w, bits);
      sb.setInputWord(i, w, bits);
    }
  }
  sa.run();
  sb.run();
  const std::uint64_t tail =
      n >= 6 ? ~std::uint64_t{0} : (std::uint64_t{1} << (1u << n)) - 1;
  for (std::uint32_t o = 0; o < a.numOutputs(); ++o) {
    const std::uint32_t ob = b.findOutput(a.outputName(o));
    ASSERT_NE(ob, kNullId) << a.outputName(o);
    for (std::size_t w = 0; w < words; ++w)
      ASSERT_EQ(sa.outputValue(o)[w] & tail, sb.outputValue(ob)[w] & tail)
          << "output " << a.outputName(o) << " word " << w;
  }
}

/// Checks that `back` holds `orig`'s live gates one for one: the writer
/// emits them in topological order and the reader builds a file in
/// topological order cover by cover, so read gate i is the writer's i-th
/// gate, with the same type and the corresponding fanins, and every output
/// is driven by the corresponding net.
void expectSameGates(const Netlist& orig, const Netlist& back) {
  ASSERT_EQ(back.numInputs(), orig.numInputs());
  ASSERT_EQ(back.numOutputs(), orig.numOutputs());
  std::vector<NetId> netOf(orig.numNetsTotal(), kNullId);
  for (std::uint32_t i = 0; i < orig.numInputs(); ++i)
    netOf[orig.inputNet(i)] = back.inputNet(i);
  const std::vector<GateId> order = orig.topoOrder();
  ASSERT_EQ(back.numGatesTotal(), order.size());
  for (GateId j = 0; j < order.size(); ++j) {
    const Netlist::Gate& a = orig.gate(order[j]);
    const Netlist::Gate& b = back.gate(j);
    ASSERT_EQ(a.type, b.type) << "gate " << j;
    ASSERT_EQ(a.fanins.size(), b.fanins.size()) << "gate " << j;
    for (std::size_t k = 0; k < a.fanins.size(); ++k)
      ASSERT_EQ(netOf[a.fanins[k]], b.fanins[k]) << "gate " << j;
    netOf[a.out] = b.out;
  }
  for (std::uint32_t o = 0; o < orig.numOutputs(); ++o)
    EXPECT_EQ(netOf[orig.outputNet(o)],
              back.outputNet(back.findOutput(orig.outputName(o))))
        << orig.outputName(o);
}

class BlifFaithful : public ::testing::TestWithParam<CaseRecipe> {};

// The writer's covers read back as the gates it wrote: the impl gate for
// gate, the spec never larger than the live logic it was written from.
TEST_P(BlifFaithful, ImplGateForGateSpecNoLarger) {
  const EcoCase c = makeCase(GetParam());
  const Netlist impl = roundTrip(c.impl);
  EXPECT_EQ(gateCounts(impl), gateCounts(c.impl));
  expectSameGates(c.impl, impl);
  const Netlist spec = roundTrip(c.spec);
  EXPECT_LE(spec.countLiveGates(), c.spec.countLiveGates());
  expectSameGates(c.spec, spec);
}

std::vector<CaseRecipe> allRecipes() {
  std::vector<CaseRecipe> all = suiteRecipes();
  for (CaseRecipe& r : timingRecipes()) all.push_back(std::move(r));
  return all;
}

INSTANTIATE_TEST_SUITE_P(Recipes, BlifFaithful,
                         ::testing::ValuesIn(allRecipes()));

/// One foreign cover over inputs x0..x{k-1}, plus the single gate it must
/// read back as (or nothing: any correct decoding will do, but never a
/// parity gate).
struct ForeignCover {
  std::size_t k;
  std::vector<std::string> rows;  ///< "<mask> <value>"
  std::optional<GateType> gate;
};

/// The cover's function, straight from its rows: on-set rows mark the
/// minterms they match as 1, off-set rows as 0, and an empty cover is 0.
bool coverValue(const ForeignCover& fc, std::size_t assignment) {
  bool any = false;
  char value = '1';
  for (const std::string& row : fc.rows) {
    value = row.back();
    bool match = true;
    for (std::size_t i = 0; i < fc.k; ++i) {
      const bool bit = (assignment >> i) & 1;
      if ((row[i] == '1' && !bit) || (row[i] == '0' && bit)) match = false;
    }
    any |= match;
  }
  return value == '1' ? any : !any;
}

TEST(BlifForeign, CoversDecodeToTheirTruthTables) {
  using G = GateType;
  const std::vector<ForeignCover> corpus = {
      {2, {"11 1"}, G::And},
      {3, {"111 0"}, G::Nand},
      {2, {"00 1"}, G::Nor},
      {2, {"00 0"}, G::Or},
      {1, {"0 0"}, G::Buf},
      {1, {"1 0"}, G::Not},
      {3, {"-1- 1", "1-- 1", "--1 1"}, G::Or},  // permuted one-hot
      {3, {"0-- 1", "--0 1", "-0- 1"}, G::Nand},
      {3, {"--1 0", "1-- 0", "-1- 0"}, G::Nor},
      {3, {"111 1", "100 1", "010 1", "001 1"}, G::Xor},  // permuted
      {3, {"110 1", "000 1", "101 1", "011 1"}, G::Xnor},
      {3, {"000 0", "011 0", "101 0", "110 0"}, G::Xor},  // off-set parity
      {4,
       {"1000 1", "0100 1", "0010 1", "0001 1", "1110 1", "1101 1", "1011 1",
        "0111 1"},
       G::Xor},
      {3, {"1-1 1", "01- 1"}, G::Mux},  // writer's mux, rows swapped
      {3, {}, G::Const0},                // empty cover
      {3, {"--- 1"}, G::Const1},
      {3, {"--- 0"}, G::Const0},
      // Don't-care rows, off-set covers, duplicate and overlapping rows.
      {3, {"1-0 1", "-11 1"}, std::nullopt},
      {3, {"1-0 0", "-11 0"}, std::nullopt},
      {3, {"11- 1", "11- 1"}, std::nullopt},
      {3, {"1-- 1", "11- 1", "-1- 1"}, std::nullopt},
      {3, {"1-0 1", "--- 1"}, std::nullopt},
      {3, {"01- 0", "1-1 0"}, std::nullopt},  // mux rows, off-set
      {3, {"01- 1", "1-0 1"}, std::nullopt},  // not the writer's mux
      {2, {"1- 1", "-1 1", "11 1"}, std::nullopt},
      {4, {"1-0- 0", "0-1- 0", "-1-1 0"}, std::nullopt},
      // Near-parity: must not read as XOR/XNOR.
      {3, {"100 1", "100 1", "010 1", "001 1"}, std::nullopt},  // duplicate
      {3, {"111 1", "100 1", "010 1", "000 1"}, std::nullopt},  // mixed
      {3, {"1-- 1", "100 1", "010 1", "001 1"}, std::nullopt},  // don't care
      {3, {"100 1", "010 1", "001 1"}, std::nullopt},           // too few
      {2, {"10 1", "00 1"}, std::nullopt},
  };
  for (const ForeignCover& fc : corpus) {
    std::string label;
    for (const std::string& r : fc.rows) label += r + "; ";
    SCOPED_TRACE("k=" + std::to_string(fc.k) + " rows: " + label);
    std::string text = ".model f\n.inputs";
    std::string names;
    for (std::size_t i = 0; i < fc.k; ++i) {
      text += " x" + std::to_string(i);
      names += " x" + std::to_string(i);
    }
    text += "\n.outputs y\n.names" + names + " y\n";
    for (const std::string& r : fc.rows) text += r + "\n";
    text += ".end\n";
    std::istringstream is(text);
    const Netlist nl = readBlif(is);
    for (std::size_t m = 0; m < (std::size_t{1} << fc.k); ++m) {
      InputPattern in(fc.k);
      for (std::size_t i = 0; i < fc.k; ++i) in[i] = (m >> i) & 1;
      EXPECT_EQ(evalOnce(nl, in)[0], coverValue(fc, m)) << "minterm " << m;
    }
    const auto counts = gateCounts(nl);
    if (fc.gate) {
      EXPECT_EQ(nl.countLiveGates(), 1u);
      EXPECT_EQ(counts[static_cast<std::size_t>(*fc.gate)], 1u);
    } else {
      EXPECT_EQ(counts[static_cast<std::size_t>(GateType::Xor)], 0u);
      EXPECT_EQ(counts[static_cast<std::size_t>(GateType::Xnor)], 0u);
    }
  }
}

TEST(BlifForeign, SharesOneInverterPerNet) {
  // Three covers complement a and b; each complement exists once.
  std::istringstream is(".model s\n.inputs a b c\n.outputs p q r\n"
                        ".names a b c p\n01- 1\n0-1 1\n"
                        ".names a b q\n00 1\n10 1\n"
                        ".names a b r\n0- 0\n-0 0\n.end\n");
  const Netlist nl = readBlif(is);
  std::vector<NetId> inverted;
  for (GateId g = 0; g < nl.numGatesTotal(); ++g)
    if (nl.gate(g).type == GateType::Not)
      inverted.push_back(nl.gate(g).fanins[0]);
  std::sort(inverted.begin(), inverted.end());
  EXPECT_EQ(std::adjacent_find(inverted.begin(), inverted.end()),
            inverted.end());
}

TEST(BlifForeign, RejectsMixedPolarityCoverAtItsRow) {
  std::istringstream is(".model m\n.inputs a b\n.outputs y\n"
                        ".names a b y\n11 1\n00 0\n.end\n");
  try {
    (void)readBlif(is);
    FAIL() << "a cover mixing on-set and off-set rows was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("mixes on-set and off-set"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("at line 6"), std::string::npos)
        << e.what();
  }
}

TEST(BlifForeign, ReportsUndrivenSignalsAndCycles) {
  auto message = [](const char* text) {
    std::istringstream is(text);
    try {
      (void)readBlif(is);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_NE(message(".model m\n.inputs a\n.outputs y\n"
                    ".names a nope y\n11 1\n.end\n")
                .find("undriven signal nope at line 4"),
            std::string::npos);
  EXPECT_NE(message(".model m\n.inputs a\n.outputs y\n"
                    ".names a t y\n11 1\n.names y t\n1 1\n.end\n")
                .find("combinational cycle"),
            std::string::npos);
}

TEST(BlifWriter, NamesNeverCollideWithPrimaryIo) {
  // Inputs and outputs named like the writer's internal nets: net 2 is the
  // AND, and an input is called n2; outputs n3 and n4 are driven by other
  // gates than nets 3 and 4.
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId n2 = nl.addInput("n2");
  const NetId g2 = nl.addGate(GateType::And, {a, n2});
  const NetId g3 = nl.addGate(GateType::Xor, {g2, a});
  const NetId g4 = nl.addGate(GateType::Not, {g3});
  nl.addOutput("n4", g3);
  nl.addOutput("n3", g4);
  nl.addOutput("n2_", g2);
  expectSameGates(nl, roundTrip(nl));
}

TEST(BlifWriter, WideXorRoundTripsByFunction) {
  Netlist nl;
  std::vector<NetId> in;
  for (int i = 0; i < 20; ++i)
    in.push_back(nl.addInput("i" + std::to_string(i)));
  nl.addOutput("x", nl.addGate(GateType::Xor, in));
  nl.addOutput("xn", nl.addGate(GateType::Xnor, in));
  std::ostringstream os;
  writeBlif(os, nl);
  EXPECT_LT(os.str().size(), 10000u);  // a tree, not 2^19 rows
  std::istringstream is(os.str());
  const Netlist back = readBlif(is);
  ASSERT_TRUE(back.isWellFormed());
  expectSameFunctionExhaustive(nl, back);
}

TEST(Verilog, EmitsCompilableStructure) {
  Rng rng(3);
  SpecCircuit sc = buildSpec(SpecParams{2, 4, 2, 1, 3, 2, 1, 1}, rng);
  std::ostringstream os;
  writeVerilog(os, sc.netlist, "dut");
  const std::string v = os.str();
  EXPECT_NE(v.find("module dut"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  // Every live gate materializes exactly one assign for its net.
  std::size_t assigns = 0;
  for (std::size_t pos = 0; (pos = v.find("assign", pos)) != std::string::npos;
       ++pos)
    ++assigns;
  EXPECT_EQ(assigns,
            sc.netlist.countLiveGates() + sc.netlist.numOutputs());
}

TEST(Verilog, EscapesAwkwardNames) {
  Netlist nl;
  const NetId a = nl.addInput("a[3]");
  nl.addOutput("out.q", nl.addGate(GateType::Not, {a}));
  std::ostringstream os;
  writeVerilog(os, nl);
  EXPECT_NE(os.str().find("\\a[3] "), std::string::npos);
  EXPECT_NE(os.str().find("\\out.q "), std::string::npos);
}

}  // namespace
}  // namespace syseco
