#include "io/blif_io.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "io/parse_guard.hpp"

namespace syseco {

namespace {

struct Cover {
  std::vector<std::string> signals;  ///< inputs..., output last
  /// One mask per row: a 0/1/- literal per input ("" for a constant).
  std::vector<std::string> rows;
  char value = 0;  ///< output column shared by every row ('0'/'1'), 0 if none
  int line = 0;
  /// Source of each input: a cover index, or kInputRef | the input's net.
  std::vector<std::uint32_t> fanins;
};

constexpr std::uint32_t kInputRef = 0x80000000u;

[[noreturn]] void fail(int line, const std::string& msg) {
  throw std::runtime_error("blif: " + msg + " at line " +
                           std::to_string(line));
}

/// Continuation-aware, comment-stripping line reader.
bool nextLogicalLine(std::istream& is, std::string& out, int& line) {
  out.clear();
  std::string raw;
  while (std::getline(is, raw)) {
    ++line;
    if (const auto hash = raw.find('#'); hash != std::string::npos)
      raw.resize(hash);
    // Trim trailing whitespace.
    while (!raw.empty() && (raw.back() == ' ' || raw.back() == '\t' ||
                            raw.back() == '\r'))
      raw.pop_back();
    if (!raw.empty() && raw.back() == '\\') {
      raw.pop_back();
      out += raw;
      continue;  // continuation
    }
    out += raw;
    if (out.find_first_not_of(" \t") == std::string::npos) {
      out.clear();
      continue;  // blank
    }
    return true;
  }
  return !out.empty();
}

std::vector<std::string> tokens(const std::string& s) {
  std::istringstream ls(s);
  std::vector<std::string> out;
  std::string t;
  while (ls >> t) out.push_back(t);
  return out;
}

/// True when `s` consists of `c` only.
bool allOf(const std::string& s, char c) {
  return s.find_first_not_of(c) == std::string::npos;
}

/// The single gate a cover of k >= 1 inputs denotes, when it has the shape
/// of one: the writer's covers (whatever their row order) plus their
/// off-set and De Morgan duals. Recognition is exact - a cover matches only
/// if the gate computes its function - so anything else decodes as SOP.
std::optional<GateType> recognise(const Cover& c, std::size_t k) {
  const bool on = c.value == '1';
  const std::vector<std::string>& rows = c.rows;

  // One row: a single cube.
  if (rows.size() == 1) {
    const std::string& m = rows[0];
    if (allOf(m, '-')) return on ? GateType::Const1 : GateType::Const0;
    if (allOf(m, '1'))
      return k == 1 ? (on ? GateType::Buf : GateType::Not)
                    : (on ? GateType::And : GateType::Nand);
    if (allOf(m, '0'))
      return k == 1 ? (on ? GateType::Not : GateType::Buf)
                    : (on ? GateType::Nor : GateType::Or);
    return std::nullopt;
  }

  // k rows of one literal each, every input once, one literal polarity:
  // one-hot OR (and its duals).
  if (rows.size() == k) {
    std::vector<char> seen(k, 0);
    char lit = 0;
    bool ok = true;
    for (const std::string& r : rows) {
      const std::size_t pos = r.find_first_not_of('-');
      if (pos == std::string::npos || seen[pos] ||
          r.find_first_not_of('-', pos + 1) != std::string::npos ||
          (lit != 0 && r[pos] != lit)) {
        ok = false;
        break;
      }
      seen[pos] = 1;
      lit = r[pos];
    }
    if (ok)
      return lit == '1' ? (on ? GateType::Or : GateType::Nor)
                        : (on ? GateType::Nand : GateType::And);
  }

  // The writer's mux (sel, d0, d1).
  if (k == 3 && on && rows.size() == 2) {
    const std::string& a = rows[0];
    const std::string& b = rows[1];
    if ((a == "01-" && b == "1-1") || (a == "1-1" && b == "01-"))
      return GateType::Mux;
  }

  // Full parity: 2^(k-1) distinct, fully specified rows that all have the
  // same number of ones modulo 2 list every minterm of that parity.
  // Distinctness is checked on a 2^k-bit map, which is no larger than the
  // rows themselves.
  if (k >= 2 && k < 31 && rows.size() == (std::size_t{1} << (k - 1))) {
    std::vector<std::uint64_t> seen(((std::size_t{1} << k) + 63) / 64, 0);
    int parity = -1;
    for (const std::string& r : rows) {
      std::uint32_t code = 0;
      int ones = 0;
      for (std::size_t i = 0; i < k; ++i) {
        if (r[i] == '-') return std::nullopt;
        if (r[i] == '1') {
          code |= 1u << i;
          ++ones;
        }
      }
      if (parity < 0) parity = ones & 1;
      if ((ones & 1) != parity) return std::nullopt;
      std::uint64_t& word = seen[code / 64];
      const std::uint64_t bit = std::uint64_t{1} << (code % 64);
      if (word & bit) return std::nullopt;
      word |= bit;
    }
    return (parity == 1) == on ? GateType::Xor : GateType::Xnor;
  }
  return std::nullopt;
}

/// Turns covers into gates: one gate per recognised cover, otherwise a
/// sum of products over one shared inverter per net.
class CoverDecoder {
 public:
  explicit CoverDecoder(Netlist& nl) : nl_(nl) {}

  NetId build(const Cover& c, const std::vector<NetId>& in) {
    if (c.rows.empty()) return nl_.addGate(GateType::Const0, {});
    const bool on = c.value == '1';
    if (in.empty())
      return nl_.addGate(on ? GateType::Const1 : GateType::Const0, {});
    if (const std::optional<GateType> t = recognise(c, in.size())) {
      if (gateArity(*t) == 0) return nl_.addGate(*t, {});
      const NetId out = nl_.addGate(*t, in);
      if (*t == GateType::Not && notOf(in[0]) == kNullId)
        notOf(in[0]) = out;
      return out;
    }
    for (const std::string& r : c.rows)
      if (allOf(r, '-'))
        return nl_.addGate(on ? GateType::Const1 : GateType::Const0, {});
    std::vector<NetId> terms;
    terms.reserve(c.rows.size());
    for (const std::string& r : c.rows) {
      std::vector<NetId> lits;
      for (std::size_t i = 0; i < in.size(); ++i) {
        if (r[i] == '1') lits.push_back(in[i]);
        if (r[i] == '0') lits.push_back(negate(in[i]));
      }
      terms.push_back(lits.size() == 1 ? lits[0]
                                       : nl_.addGate(GateType::And, lits));
    }
    const NetId sum =
        terms.size() == 1 ? terms[0] : nl_.addGate(GateType::Or, terms);
    return on ? sum : negate(sum);
  }

 private:
  NetId& notOf(NetId n) {
    if (n >= inverse_.size()) inverse_.resize(n + 1, kNullId);
    return inverse_[n];
  }

  /// The shared inverter of `n`, created on first use. Inverters the file
  /// spells as covers of their own count as shared too.
  NetId negate(NetId n) {
    if (notOf(n) == kNullId) {
      const NetId inv = nl_.addGate(GateType::Not, {n});
      notOf(n) = inv;
    }
    return notOf(n);
  }

  Netlist& nl_;
  std::vector<NetId> inverse_;  ///< net -> its shared NOT, or kNullId
};

}  // namespace

Netlist readBlif(std::istream& is) {
  io_detail::hitParseSite("io.blif");
  Netlist nl;
  std::unordered_map<std::string, NetId> inputByName;
  std::vector<std::string> declaredOutputs;
  std::vector<Cover> covers;
  Cover* open = nullptr;
  int line = 0;
  std::string text;
  bool sawModel = false, sawEnd = false;

  while (nextLogicalLine(is, text, line)) {
    const auto tok = tokens(text);
    if (tok.empty()) continue;
    const std::string& head = tok[0];
    if (head[0] == '.') {
      open = nullptr;
      if (head == ".model") {
        sawModel = true;
      } else if (head == ".inputs") {
        for (std::size_t i = 1; i < tok.size(); ++i) {
          if (inputByName.count(tok[i]))
            fail(line, "duplicate input " + tok[i]);
          inputByName.emplace(tok[i], nl.addInput(tok[i]));
        }
      } else if (head == ".outputs") {
        for (std::size_t i = 1; i < tok.size(); ++i) {
          if (std::find(declaredOutputs.begin(), declaredOutputs.end(),
                        tok[i]) != declaredOutputs.end())
            fail(line, "duplicate output " + tok[i]);
          declaredOutputs.push_back(tok[i]);
        }
      } else if (head == ".names") {
        if (tok.size() < 2) fail(line, ".names needs at least an output");
        covers.push_back(Cover{{tok.begin() + 1, tok.end()}, {}, 0, line, {}});
        open = &covers.back();
      } else if (head == ".end") {
        sawEnd = true;
        break;
      } else if (head == ".latch" || head == ".subckt" || head == ".gate") {
        fail(line, "unsupported construct " + head +
                       " (combinational flat BLIF only)");
      } else {
        fail(line, "unknown directive " + head);
      }
    } else {
      if (!open) fail(line, "cover row outside .names");
      const std::size_t numIn = open->signals.size() - 1;
      std::string mask, value;
      if (numIn == 0 && tok.size() == 1) {
        value = tok[0];  // constant cover: single column "1" or "0"
      } else if (numIn > 0 && tok.size() == 2) {
        mask = tok[0];
        value = tok[1];
      } else {
        fail(line, "malformed cover row");
      }
      if (mask.size() != numIn ||
          mask.find_first_not_of("01-") != std::string::npos)
        fail(line, "bad cover row '" + text + "'");
      if (value != "0" && value != "1")
        fail(line, "bad cover value '" + value + "'");
      // A cover lists either on-set or off-set rows; a mix has no single
      // meaning, so reject it rather than guess one polarity.
      if (open->value != 0 && open->value != value[0])
        fail(line, "cover of " + open->signals.back() +
                       " mixes on-set and off-set rows");
      open->value = value[0];
      open->rows.push_back(std::move(mask));
    }
  }
  if (!sawModel) fail(line, "missing .model");
  if (!sawEnd) fail(line + 1, "missing .end");

  // Resolve every cover input to its source once.
  std::unordered_map<std::string, std::uint32_t> coverOf;
  coverOf.reserve(covers.size());
  for (std::uint32_t ci = 0; ci < covers.size(); ++ci) {
    const std::string& out = covers[ci].signals.back();
    if (inputByName.count(out) || !coverOf.emplace(out, ci).second)
      fail(covers[ci].line, "signal " + out + " driven twice");
  }
  for (Cover& c : covers) {
    c.fanins.reserve(c.signals.size() - 1);
    for (std::size_t i = 0; i + 1 < c.signals.size(); ++i) {
      if (const auto it = coverOf.find(c.signals[i]); it != coverOf.end()) {
        c.fanins.push_back(it->second);
      } else if (const auto pi = inputByName.find(c.signals[i]);
                 pi != inputByName.end()) {
        c.fanins.push_back(kInputRef | pi->second);
      } else {
        fail(c.line, "undriven signal " + c.signals[i]);
      }
    }
  }

  // One topological sort of the name graph (iterative DFS, fanins first,
  // file order among independent covers: a file already in topological
  // order builds in file order).
  std::vector<std::uint32_t> order;
  order.reserve(covers.size());
  {
    std::vector<std::uint8_t> state(covers.size(), 0);  // 1 open, 2 done
    std::vector<std::pair<std::uint32_t, std::size_t>> stack;
    for (std::uint32_t root = 0; root < covers.size(); ++root) {
      if (state[root]) continue;
      state[root] = 1;
      stack.emplace_back(root, 0);
      while (!stack.empty()) {
        const std::uint32_t ci = stack.back().first;
        const std::size_t next = stack.back().second++;
        if (next == covers[ci].fanins.size()) {
          state[ci] = 2;
          order.push_back(ci);
          stack.pop_back();
          continue;
        }
        const std::uint32_t d = covers[ci].fanins[next];
        if ((d & kInputRef) || state[d] == 2) continue;
        if (state[d] == 1)
          fail(covers[d].line, "combinational cycle through " +
                                   covers[d].signals.back());
        state[d] = 1;
        stack.emplace_back(d, 0);
      }
    }
  }

  // A one-row buffer cover onto a primary output names that output after
  // an existing net; the writer emits one for every output whose net
  // carries another name, so it becomes an alias, not a gate.
  std::vector<char> isOutput(covers.size(), 0);
  for (const std::string& o : declaredOutputs)
    if (const auto it = coverOf.find(o); it != coverOf.end())
      isOutput[it->second] = 1;

  CoverDecoder decoder(nl);
  std::vector<NetId> coverNet(covers.size(), kNullId);
  std::vector<NetId> in;
  for (const std::uint32_t ci : order) {
    const Cover& c = covers[ci];
    in.clear();
    for (const std::uint32_t d : c.fanins)
      in.push_back((d & kInputRef) ? d & ~kInputRef : coverNet[d]);
    const bool alias = isOutput[ci] && in.size() == 1 && c.value == '1' &&
                       c.rows.size() == 1 && c.rows[0] == "1";
    coverNet[ci] = alias ? in[0] : decoder.build(c, in);
  }

  for (const std::string& o : declaredOutputs) {
    NetId net = kNullId;
    if (const auto it = coverOf.find(o); it != coverOf.end())
      net = coverNet[it->second];
    else if (const auto it = inputByName.find(o); it != inputByName.end())
      net = it->second;
    if (net == kNullId) fail(line, "undriven output " + o);
    nl.addOutput(o, net);
  }
  std::string why;
  if (!nl.isWellFormed(&why)) fail(line, "ill-formed result: " + why);
  return nl;
}

namespace {

/// Writes the rows of a k-input parity cover: every minterm whose number
/// of ones is odd (XOR) or even (XNOR).
void writeParityRows(std::ostream& os, std::size_t k, bool odd) {
  std::string row(k, '0');
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << k); ++m) {
    int ones = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const bool bit = (m >> i) & 1;
      row[i] = bit ? '1' : '0';
      ones += bit;
    }
    if ((ones % 2 == 1) == odd) os << row << " 1\n";
  }
}

}  // namespace

void writeBlif(std::ostream& os, const Netlist& netlist,
               const std::string& modelName) {
  os << ".model " << modelName << "\n.inputs";
  for (std::uint32_t i = 0; i < netlist.numInputs(); ++i)
    os << ' ' << netlist.inputName(i);
  os << "\n.outputs";
  for (std::uint32_t o = 0; o < netlist.numOutputs(); ++o)
    os << ' ' << netlist.outputName(o);
  os << "\n";

  // Internal nets are named n<id>, plus underscores while that collides
  // with a primary input or output name. Every generated base ends in a
  // digit, so two generated names never coincide either.
  std::unordered_set<std::string> reserved;
  for (std::uint32_t i = 0; i < netlist.numInputs(); ++i)
    reserved.insert(netlist.inputName(i));
  for (std::uint32_t o = 0; o < netlist.numOutputs(); ++o)
    reserved.insert(netlist.outputName(o));
  auto fresh = [&](std::string base) {
    while (reserved.count(base)) base += '_';
    return base;
  };
  auto name = [&](NetId n) -> std::string {
    const auto& net = netlist.net(n);
    if (net.srcKind == Netlist::SourceKind::Input)
      return netlist.inputName(net.srcIdx);
    return fresh("n" + std::to_string(n));
  };
  auto header = [&](const std::vector<std::string>& ins,
                    const std::string& out) {
    os << ".names";
    for (const std::string& s : ins) os << ' ' << s;
    os << ' ' << out << "\n";
  };

  // Wider parity gates are written as a balanced tree of 2-input XOR
  // covers: one cover would need 2^(k-1) rows.
  constexpr std::size_t kMaxParityCover = 16;

  std::vector<std::string> ins;
  for (GateId g : netlist.topoOrder()) {
    const auto& gate = netlist.gate(g);
    const std::size_t k = gate.fanins.size();
    ins.clear();
    for (NetId f : gate.fanins) ins.push_back(name(f));
    const bool parity =
        gate.type == GateType::Xor || gate.type == GateType::Xnor;
    if (parity && k > kMaxParityCover) {
      std::size_t tmp = 0;
      while (ins.size() > 2) {
        std::vector<std::string> next;
        for (std::size_t i = 0; i + 1 < ins.size(); i += 2) {
          next.push_back(fresh("n" + std::to_string(gate.out) + "_x" +
                               std::to_string(tmp++)));
          header({ins[i], ins[i + 1]}, next.back());
          writeParityRows(os, 2, /*odd=*/true);
        }
        if (ins.size() % 2) next.push_back(ins.back());
        ins = std::move(next);
      }
      header(ins, name(gate.out));
      writeParityRows(os, 2, gate.type == GateType::Xor);
      continue;
    }
    header(ins, name(gate.out));
    switch (gate.type) {
      case GateType::Const0:
        break;  // empty cover = constant 0
      case GateType::Const1:
        os << "1\n";
        break;
      case GateType::Buf:
        os << "1 1\n";
        break;
      case GateType::Not:
        os << "0 1\n";
        break;
      case GateType::And:
        os << std::string(k, '1') << " 1\n";
        break;
      case GateType::Nand:
        os << std::string(k, '1') << " 0\n";
        break;
      case GateType::Or:
        for (std::size_t i = 0; i < k; ++i) {
          std::string row(k, '-');
          row[i] = '1';
          os << row << " 1\n";
        }
        break;
      case GateType::Nor:
        os << std::string(k, '0') << " 1\n";
        break;
      case GateType::Xor:
      case GateType::Xnor:
        writeParityRows(os, k, gate.type == GateType::Xor);
        break;
      case GateType::Mux:
        os << "01- 1\n1-1 1\n";  // (sel, d0, d1)
        break;
    }
  }

  // Outputs that alias an input or another named net need a buffer cover.
  for (std::uint32_t o = 0; o < netlist.numOutputs(); ++o) {
    const std::string src = name(netlist.outputNet(o));
    if (src != netlist.outputName(o))
      os << ".names " << src << ' ' << netlist.outputName(o) << "\n1 1\n";
  }
  os << ".end\n";
}

Result<Netlist> readBlifChecked(std::istream& is) {
  return io_detail::guardedParse("blif", [&] { return readBlif(is); });
}

Netlist loadBlif(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("blif: cannot open " + path);
  return readBlif(f);
}

Result<Netlist> loadBlifChecked(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::invalidInput("blif: cannot open " + path);
  return io_detail::withPath(path, readBlifChecked(f));
}

void saveBlif(const std::string& path, const Netlist& netlist,
              const std::string& modelName) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("blif: cannot open " + path);
  writeBlif(f, netlist, modelName);
}

}  // namespace syseco
