#include "netlist/netlist.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <queue>
#include <sstream>

#include "util/check.hpp"

namespace syseco {

std::uint8_t gateArity(GateType type) {
  switch (type) {
    case GateType::Const0:
    case GateType::Const1:
      return 0;
    case GateType::Buf:
    case GateType::Not:
      return 1;
    case GateType::Mux:
      return 3;
    default:
      return 0xFF;  // n-ary, at least 1
  }
}

const char* gateTypeName(GateType type) {
  switch (type) {
    case GateType::Const0: return "const0";
    case GateType::Const1: return "const1";
    case GateType::Buf: return "buf";
    case GateType::Not: return "not";
    case GateType::And: return "and";
    case GateType::Or: return "or";
    case GateType::Nand: return "nand";
    case GateType::Nor: return "nor";
    case GateType::Xor: return "xor";
    case GateType::Xnor: return "xnor";
    case GateType::Mux: return "mux";
  }
  return "?";
}

std::uint64_t evalGateWord(GateType type, const std::uint64_t* fanins,
                           std::size_t numFanins) {
  switch (type) {
    case GateType::Const0:
      return 0;
    case GateType::Const1:
      return ~0ULL;
    case GateType::Buf:
      return fanins[0];
    case GateType::Not:
      return ~fanins[0];
    case GateType::And:
    case GateType::Nand: {
      std::uint64_t acc = ~0ULL;
      for (std::size_t i = 0; i < numFanins; ++i) acc &= fanins[i];
      return type == GateType::And ? acc : ~acc;
    }
    case GateType::Or:
    case GateType::Nor: {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < numFanins; ++i) acc |= fanins[i];
      return type == GateType::Or ? acc : ~acc;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < numFanins; ++i) acc ^= fanins[i];
      return type == GateType::Xor ? acc : ~acc;
    }
    case GateType::Mux:
      return (fanins[0] & fanins[2]) | (~fanins[0] & fanins[1]);
  }
  return 0;
}

NetId Netlist::newNet() {
  nets_.emplace_back();
  return static_cast<NetId>(nets_.size() - 1);
}

void Netlist::attachSink(NetId net, const Sink& sink) {
  nets_[net].sinks.push_back(sink);
}

void Netlist::detachSink(NetId net, const Sink& sink) {
  auto& sinks = nets_[net].sinks;
  auto it = std::find(sinks.begin(), sinks.end(), sink);
  SYSECO_CHECK(it != sinks.end());
  sinks.erase(it);
}

NetId Netlist::addInput(const std::string& name) {
  SYSECO_CHECK(inputIndex_.find(name) == inputIndex_.end());
  const NetId n = newNet();
  nets_[n].srcKind = SourceKind::Input;
  nets_[n].srcIdx = static_cast<std::uint32_t>(inputs_.size());
  nets_[n].name = name;
  inputIndex_.emplace(name, static_cast<std::uint32_t>(inputs_.size()));
  inputs_.push_back(n);
  inputNames_.push_back(name);
  return n;
}

NetId Netlist::addGate(GateType type, std::vector<NetId> fanins) {
  const std::uint8_t arity = gateArity(type);
  if (arity == 0xFF) {
    SYSECO_CHECK(!fanins.empty());
  } else {
    SYSECO_CHECK(fanins.size() == arity);
  }
  for (NetId f : fanins) SYSECO_CHECK(f < nets_.size());

  const GateId g = static_cast<GateId>(gates_.size());
  const NetId out = newNet();
  gates_.push_back(Gate{type, std::move(fanins), out, false});
  nets_[out].srcKind = SourceKind::Gate;
  nets_[out].srcIdx = g;
  // Read the fanins back from stable storage: the argument may have
  // aliased gates_ before the push_back above.
  const std::vector<NetId>& stored = gates_[g].fanins;
  for (std::uint32_t port = 0; port < stored.size(); ++port) {
    attachSink(stored[port], Sink{g, port});
  }
  return out;
}

std::uint32_t Netlist::addOutput(const std::string& name, NetId net) {
  SYSECO_CHECK(net < nets_.size());
  SYSECO_CHECK(outputIndex_.find(name) == outputIndex_.end());
  const std::uint32_t idx = static_cast<std::uint32_t>(outputs_.size());
  outputs_.push_back(net);
  outputNames_.push_back(name);
  outputIndex_.emplace(name, idx);
  attachSink(net, Sink{kNullId, idx});
  return idx;
}

void Netlist::rewireGatePin(GateId gate, std::uint32_t port, NetId newNet) {
  SYSECO_CHECK(gate < gates_.size() && port < gates_[gate].fanins.size());
  SYSECO_CHECK(newNet < nets_.size());
  const NetId old = gates_[gate].fanins[port];
  if (old == newNet) return;
  detachSink(old, Sink{gate, port});
  gates_[gate].fanins[port] = newNet;
  attachSink(newNet, Sink{gate, port});
}

void Netlist::rewireOutput(std::uint32_t outIdx, NetId newNet) {
  SYSECO_CHECK(outIdx < outputs_.size() && newNet < nets_.size());
  const NetId old = outputs_[outIdx];
  if (old == newNet) return;
  detachSink(old, Sink{kNullId, outIdx});
  outputs_[outIdx] = newNet;
  attachSink(newNet, Sink{kNullId, outIdx});
}

void Netlist::rewireSink(const Sink& sink, NetId newNet) {
  if (sink.isOutput()) {
    rewireOutput(sink.port, newNet);
  } else {
    rewireGatePin(sink.gate, sink.port, newNet);
  }
}

std::size_t Netlist::sweepDeadLogic() {
  // Mark gates reachable from outputs.
  std::vector<char> live(gates_.size(), 0);
  std::vector<GateId> stack;
  auto pushNet = [&](NetId n) {
    if (nets_[n].srcKind == SourceKind::Gate) {
      const GateId g = nets_[n].srcIdx;
      if (!live[g]) {
        live[g] = 1;
        stack.push_back(g);
      }
    }
  };
  for (NetId o : outputs_) pushNet(o);
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (NetId f : gates_[g].fanins) pushNet(f);
  }
  std::size_t newlyDead = 0;
  for (GateId g = 0; g < gates_.size(); ++g) {
    if (!live[g] && !gates_[g].dead) {
      // Detach the dead gate's input pins so sink lists reflect live logic.
      for (std::uint32_t port = 0; port < gates_[g].fanins.size(); ++port) {
        detachSink(gates_[g].fanins[port], Sink{g, port});
      }
      gates_[g].fanins.clear();
      gates_[g].dead = true;
      ++newlyDead;
    }
  }
  return newlyDead;
}

std::vector<GateId> Netlist::topoOrder() const {
  // Kahn's algorithm over live gates.
  std::vector<std::uint32_t> pending(gates_.size(), 0);
  std::vector<GateId> order;
  order.reserve(gates_.size());
  std::vector<GateId> ready;
  for (GateId g = 0; g < gates_.size(); ++g) {
    if (gates_[g].dead) continue;
    std::uint32_t gateFanins = 0;
    for (NetId f : gates_[g].fanins) {
      if (nets_[f].srcKind == SourceKind::Gate && !gates_[nets_[f].srcIdx].dead)
        ++gateFanins;
    }
    pending[g] = gateFanins;
    if (gateFanins == 0) ready.push_back(g);
  }
  while (!ready.empty()) {
    const GateId g = ready.back();
    ready.pop_back();
    order.push_back(g);
    for (const Sink& s : nets_[gates_[g].out].sinks) {
      if (s.isOutput()) continue;
      if (gates_[s.gate].dead) continue;
      if (--pending[s.gate] == 0) ready.push_back(s.gate);
    }
  }
  return order;
}

std::vector<GateId> Netlist::coneGates(const std::vector<NetId>& roots) const {
  // DFS collecting the transitive fanin, then emit in topological order via
  // post-order (fanins are visited before the gate itself).
  std::vector<char> seen(gates_.size(), 0);
  std::vector<GateId> order;
  // Iterative DFS with explicit phase to get post-order.
  struct Frame {
    GateId gate;
    std::size_t next;
  };
  std::vector<Frame> stack;
  auto visitNet = [&](NetId n) {
    if (nets_[n].srcKind != SourceKind::Gate) return;
    const GateId g = nets_[n].srcIdx;
    if (gates_[g].dead || seen[g]) return;
    seen[g] = 1;
    stack.push_back(Frame{g, 0});
  };
  for (NetId r : roots) {
    visitNet(r);
    while (!stack.empty()) {
      Frame& fr = stack.back();
      if (fr.next < gates_[fr.gate].fanins.size()) {
        const NetId f = gates_[fr.gate].fanins[fr.next++];
        visitNet(f);
      } else {
        order.push_back(fr.gate);
        stack.pop_back();
      }
    }
  }
  return order;
}

std::vector<std::uint32_t> Netlist::support(NetId net) const {
  std::vector<std::uint32_t> result;
  std::vector<char> seenNet(nets_.size(), 0);
  std::vector<NetId> stack{net};
  seenNet[net] = 1;
  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    if (nets_[n].srcKind == SourceKind::Input) {
      result.push_back(nets_[n].srcIdx);
    } else if (nets_[n].srcKind == SourceKind::Gate) {
      for (NetId f : gates_[nets_[n].srcIdx].fanins) {
        if (!seenNet[f]) {
          seenNet[f] = 1;
          stack.push_back(f);
        }
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<std::uint32_t> Netlist::netLevels() const {
  std::vector<std::uint32_t> level(nets_.size(), 0);
  for (GateId g : topoOrder()) {
    // Arity-aware unit delay: an n-ary associative gate stands for a
    // ceil(log2 n)-deep tree of 2-input cells; Mux and inverters cost one.
    std::uint32_t cost = 1;
    const std::size_t arity = gates_[g].fanins.size();
    if (gates_[g].type != GateType::Mux && arity > 2) {
      cost = 0;
      std::size_t n = arity - 1;
      while (n > 0) {
        ++cost;
        n >>= 1;
      }
    }
    std::uint32_t maxIn = 0;
    for (NetId f : gates_[g].fanins) maxIn = std::max(maxIn, level[f] + cost);
    if (gates_[g].fanins.empty()) maxIn = 0;  // constants
    level[gates_[g].out] = maxIn;
  }
  return level;
}

bool Netlist::isAcyclic() const {
  std::size_t liveCount = 0;
  for (const Gate& g : gates_)
    if (!g.dead) ++liveCount;
  return topoOrder().size() == liveCount;
}

bool Netlist::isWellFormed(std::string* whyNot) const {
  auto fail = [&](const std::string& msg) {
    if (whyNot) *whyNot = msg;
    return false;
  };
  // Net source consistency.
  for (NetId n = 0; n < nets_.size(); ++n) {
    const Net& net = nets_[n];
    if (net.srcKind == SourceKind::Gate) {
      if (net.srcIdx >= gates_.size() || gates_[net.srcIdx].out != n)
        return fail("net " + std::to_string(n) + " has inconsistent driver");
    } else if (net.srcKind == SourceKind::Input) {
      if (net.srcIdx >= inputs_.size() || inputs_[net.srcIdx] != n)
        return fail("net " + std::to_string(n) + " has inconsistent PI");
    }
    // Every sink must reference back.
    for (const Sink& s : net.sinks) {
      if (s.isOutput()) {
        if (s.port >= outputs_.size() || outputs_[s.port] != n)
          return fail("net " + std::to_string(n) + " has stale PO sink");
      } else {
        if (s.gate >= gates_.size() || gates_[s.gate].dead ||
            s.port >= gates_[s.gate].fanins.size() ||
            gates_[s.gate].fanins[s.port] != n)
          return fail("net " + std::to_string(n) + " has stale gate sink");
      }
    }
  }
  // Every live gate pin must appear exactly once in its net's sink list.
  for (GateId g = 0; g < gates_.size(); ++g) {
    if (gates_[g].dead) continue;
    for (std::uint32_t port = 0; port < gates_[g].fanins.size(); ++port) {
      const NetId f = gates_[g].fanins[port];
      if (f >= nets_.size()) return fail("gate fanin out of range");
      const auto& sinks = nets_[f].sinks;
      const Sink want{g, port};
      if (std::count(sinks.begin(), sinks.end(), want) != 1)
        return fail("pin not registered exactly once in sink list");
    }
  }
  for (std::uint32_t o = 0; o < outputs_.size(); ++o) {
    const auto& sinks = nets_[outputs_[o]].sinks;
    const Sink want{kNullId, o};
    if (std::count(sinks.begin(), sinks.end(), want) != 1)
      return fail("output not registered exactly once in sink list");
  }
  if (!isAcyclic()) return fail("cycle detected");
  return true;
}

NetId Netlist::cloneCone(
    const Netlist& src, NetId srcNet,
    const std::unordered_map<std::string, NetId>& inputByName,
    std::unordered_map<NetId, NetId>& cache) {
  // Depth-first post-order with an explicit stack - each gate's fanins left
  // to right, then the gate - so the clones get the ids a recursive walk
  // would give them and a deep cone cannot overflow the call stack. Each
  // frame is a source net and the next fanin of its driver to visit.
  std::vector<std::pair<NetId, std::size_t>> stack;
  if (!cache.count(srcNet)) stack.emplace_back(srcNet, 0);
  while (!stack.empty()) {
    const NetId top = stack.back().first;
    const Net& sn = src.nets_[top];
    NetId here = kNullId;
    switch (sn.srcKind) {
      case SourceKind::Input: {
        auto it = inputByName.find(src.inputNames_[sn.srcIdx]);
        SYSECO_CHECK(it != inputByName.end());
        here = it->second;
        break;
      }
      case SourceKind::Gate: {
        const Gate& sg = src.gates_[sn.srcIdx];
        std::size_t& next = stack.back().second;
        while (next < sg.fanins.size() && cache.count(sg.fanins[next])) ++next;
        if (next < sg.fanins.size()) {
          // A source cycle would grow the stack without bound.
          SYSECO_CHECK(stack.size() < src.nets_.size() && "cyclic source");
          stack.emplace_back(sg.fanins[next], 0);
          continue;
        }
        std::vector<NetId> fanins;
        fanins.reserve(sg.fanins.size());
        for (NetId f : sg.fanins) fanins.push_back(cache.at(f));
        here = addGate(sg.type, fanins);
        break;
      }
      case SourceKind::None:
        SYSECO_CHECK(false && "cloning an undriven net");
    }
    cache.emplace(top, here);
    stack.pop_back();
  }
  return cache.at(srcNet);
}

namespace {

constexpr const char* kRawMagic = "syseco-raw-netlist-v1";
// Caps on declared counts: a snapshot of a legitimate run never approaches
// these, and bounding them keeps a corrupt count from driving a giant
// allocation before any cross-checking can happen.
constexpr std::size_t kRawMaxItems = 50u * 1000u * 1000u;

/// Percent-encodes a label so it survives whitespace-delimited parsing.
/// The empty string encodes as "%" alone (never produced by the encoder
/// for non-empty input, since '%' itself is escaped).
std::string encodeRawName(const std::string& s) {
  if (s.empty()) return "%";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u <= 0x20 || u == '%' || u >= 0x7F) {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

bool decodeRawName(const std::string& s, std::string* out) {
  if (s == "%") {
    out->clear();
    return true;
  }
  out->clear();
  out->reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out->push_back(s[i]);
      continue;
    }
    if (i + 2 >= s.size()) return false;
    auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    const int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return true;
}

Status rawError(std::size_t line, const std::string& what) {
  return Status::invalidInput("raw netlist line " + std::to_string(line) +
                              ": " + what);
}

}  // namespace

void Netlist::dumpRaw(std::ostream& os) const {
  os << kRawMagic << '\n';
  os << "counts " << gates_.size() << ' ' << nets_.size() << ' '
     << inputs_.size() << ' ' << outputs_.size() << '\n';
  for (std::size_t i = 0; i < inputs_.size(); ++i)
    os << "input " << inputs_[i] << ' ' << encodeRawName(inputNames_[i])
       << '\n';
  for (const Gate& g : gates_) {
    os << "gate " << static_cast<unsigned>(g.type) << ' ' << g.out << ' '
       << (g.dead ? 1 : 0) << ' ' << g.fanins.size();
    for (NetId f : g.fanins) os << ' ' << f;
    os << '\n';
  }
  for (const Net& n : nets_) {
    os << "net " << static_cast<unsigned>(n.srcKind) << ' ' << n.srcIdx << ' '
       << encodeRawName(n.name) << ' ' << n.sinks.size();
    for (const Sink& s : n.sinks) os << ' ' << s.gate << ' ' << s.port;
    os << '\n';
  }
  for (std::size_t o = 0; o < outputs_.size(); ++o)
    os << "output " << outputs_[o] << ' ' << encodeRawName(outputNames_[o])
       << '\n';
  os << "end\n";
}

std::string Netlist::dumpRawString() const {
  std::ostringstream os;
  dumpRaw(os);
  return os.str();
}

Result<Netlist> Netlist::restoreRaw(std::istream& is) {
  std::string line;
  std::size_t lineNo = 0;
  auto nextLine = [&]() -> bool {
    while (std::getline(is, line)) {
      ++lineNo;
      if (!line.empty()) return true;
    }
    return false;
  };

  if (!nextLine() || line != kRawMagic)
    return rawError(lineNo == 0 ? 1 : lineNo, "bad magic");

  std::size_t nGates = 0, nNets = 0, nInputs = 0, nOutputs = 0;
  {
    if (!nextLine()) return rawError(lineNo + 1, "missing counts");
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag >> nGates >> nNets >> nInputs >> nOutputs) ||
        tag != "counts")
      return rawError(lineNo, "malformed counts");
    if (nGates > kRawMaxItems || nNets > kRawMaxItems ||
        nInputs > kRawMaxItems || nOutputs > kRawMaxItems)
      return rawError(lineNo, "count exceeds sanity cap");
  }

  Netlist nl;
  nl.gates_.resize(nGates);
  nl.nets_.resize(nNets);
  nl.inputs_.reserve(nInputs);
  nl.outputs_.reserve(nOutputs);

  auto checkNet = [&](std::uint64_t id) { return id < nNets; };
  auto checkGate = [&](std::uint64_t id) { return id < nGates; };

  for (std::size_t i = 0; i < nInputs; ++i) {
    if (!nextLine()) return rawError(lineNo + 1, "missing input line");
    std::istringstream ls(line);
    std::string tag, enc;
    std::uint64_t net = 0;
    if (!(ls >> tag >> net >> enc) || tag != "input" || !checkNet(net))
      return rawError(lineNo, "malformed input line");
    std::string name;
    if (!decodeRawName(enc, &name))
      return rawError(lineNo, "bad input name encoding");
    if (nl.inputIndex_.count(name))
      return rawError(lineNo, "duplicate input name");
    nl.inputIndex_.emplace(name, static_cast<std::uint32_t>(i));
    nl.inputs_.push_back(static_cast<NetId>(net));
    nl.inputNames_.push_back(std::move(name));
  }

  for (std::size_t g = 0; g < nGates; ++g) {
    if (!nextLine()) return rawError(lineNo + 1, "missing gate line");
    std::istringstream ls(line);
    std::string tag;
    std::uint64_t type = 0, out = 0, dead = 0, nFanins = 0;
    if (!(ls >> tag >> type >> out >> dead >> nFanins) || tag != "gate" ||
        type > static_cast<std::uint64_t>(GateType::Mux) || dead > 1 ||
        !checkNet(out) || nFanins > kRawMaxItems)
      return rawError(lineNo, "malformed gate line");
    Gate& gate = nl.gates_[g];
    gate.type = static_cast<GateType>(type);
    gate.out = static_cast<NetId>(out);
    gate.dead = dead != 0;
    gate.fanins.reserve(nFanins);
    for (std::uint64_t k = 0; k < nFanins; ++k) {
      std::uint64_t f = 0;
      if (!(ls >> f) || !checkNet(f))
        return rawError(lineNo, "malformed gate fanin");
      gate.fanins.push_back(static_cast<NetId>(f));
    }
  }

  for (std::size_t n = 0; n < nNets; ++n) {
    if (!nextLine()) return rawError(lineNo + 1, "missing net line");
    std::istringstream ls(line);
    std::string tag, enc;
    std::uint64_t srcKind = 0, srcIdx = 0, nSinks = 0;
    if (!(ls >> tag >> srcKind >> srcIdx >> enc >> nSinks) || tag != "net" ||
        srcKind > static_cast<std::uint64_t>(SourceKind::Gate) ||
        nSinks > kRawMaxItems)
      return rawError(lineNo, "malformed net line");
    Net& net = nl.nets_[n];
    net.srcKind = static_cast<SourceKind>(srcKind);
    switch (net.srcKind) {
      case SourceKind::Input:
        if (srcIdx >= nInputs) return rawError(lineNo, "net PI index range");
        break;
      case SourceKind::Gate:
        if (!checkGate(srcIdx)) return rawError(lineNo, "net gate index range");
        break;
      case SourceKind::None:
        if (srcIdx != kNullId) return rawError(lineNo, "undriven net srcIdx");
        break;
    }
    net.srcIdx = static_cast<std::uint32_t>(srcIdx);
    if (!decodeRawName(enc, &net.name))
      return rawError(lineNo, "bad net name encoding");
    net.sinks.reserve(nSinks);
    for (std::uint64_t k = 0; k < nSinks; ++k) {
      std::uint64_t g = 0, port = 0;
      if (!(ls >> g >> port)) return rawError(lineNo, "malformed sink");
      if (g != kNullId && !checkGate(g))
        return rawError(lineNo, "sink gate range");
      if (g == kNullId && port >= nOutputs)
        return rawError(lineNo, "sink output range");
      net.sinks.push_back(Sink{static_cast<GateId>(g),
                               static_cast<std::uint32_t>(port)});
    }
  }

  for (std::size_t o = 0; o < nOutputs; ++o) {
    if (!nextLine()) return rawError(lineNo + 1, "missing output line");
    std::istringstream ls(line);
    std::string tag, enc;
    std::uint64_t net = 0;
    if (!(ls >> tag >> net >> enc) || tag != "output" || !checkNet(net))
      return rawError(lineNo, "malformed output line");
    std::string name;
    if (!decodeRawName(enc, &name))
      return rawError(lineNo, "bad output name encoding");
    if (nl.outputIndex_.count(name))
      return rawError(lineNo, "duplicate output name");
    nl.outputIndex_.emplace(name, static_cast<std::uint32_t>(o));
    nl.outputs_.push_back(static_cast<NetId>(net));
    nl.outputNames_.push_back(std::move(name));
  }

  if (!nextLine() || line != "end")
    return rawError(lineNo, "missing end marker");
  if (nextLine()) return rawError(lineNo, "trailing content after end marker");

  std::string why;
  if (!nl.isWellFormed(&why))
    return Status::invalidInput("raw netlist fails well-formedness: " + why);
  return nl;
}

Result<Netlist> Netlist::restoreRawString(const std::string& text) {
  std::istringstream is(text);
  return restoreRaw(is);
}

const std::string& Netlist::inputName(std::uint32_t i) const {
  return inputNames_[i];
}
const std::string& Netlist::outputName(std::uint32_t o) const {
  return outputNames_[o];
}

std::uint32_t Netlist::findOutput(const std::string& name) const {
  auto it = outputIndex_.find(name);
  return it == outputIndex_.end() ? kNullId : it->second;
}
std::uint32_t Netlist::findInput(const std::string& name) const {
  auto it = inputIndex_.find(name);
  return it == inputIndex_.end() ? kNullId : it->second;
}

std::size_t Netlist::countLiveGates() const {
  std::size_t n = 0;
  for (const Gate& g : gates_)
    if (!g.dead) ++n;
  return n;
}

std::size_t Netlist::countLiveNets() const {
  // A net is live when it has a live source or any sink.
  std::size_t n = 0;
  for (NetId i = 0; i < nets_.size(); ++i) {
    const Net& net = nets_[i];
    const bool liveSrc =
        net.srcKind == SourceKind::Input ||
        (net.srcKind == SourceKind::Gate && !gates_[net.srcIdx].dead);
    if (liveSrc && (!net.sinks.empty() || net.srcKind == SourceKind::Input))
      ++n;
  }
  return n;
}

std::size_t Netlist::countSinks() const {
  std::size_t n = 0;
  for (const Net& net : nets_) n += net.sinks.size();
  return n;
}

}  // namespace syseco
