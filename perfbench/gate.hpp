#pragma once
// The benchmark's own correctness gate. It runs after every case, outside
// the timed region, and trusts nothing the engine reports: every
// label-matched output pair of the rectified netlist is re-proven against
// the revised specification with a fresh SAT miter (a new PairEncoding,
// shared by the output pairs of one netlist and solved with SAT sweeping; a
// plain checkOutputEquiv miter does not finish on the optimized cases), and
// a random-pattern simulation of both netlists cross-checks the proofs.

#include <cstdint>
#include <string>

#include "netlist/netlist.hpp"
#include "trace.hpp"

namespace perfbench {

struct GateVerdict {
  bool ok = true;
  std::string detail;            ///< first mismatch, empty when ok
  std::size_t outputs = 0;       ///< output pairs re-proven
  double simSeconds = 0.0;       ///< time in Simulator::run
  double gateEvaluations = 0.0;  ///< live gates x patterns simulated
};

/// Re-proves every output of `spec` against the same-labelled output of
/// `rectified`. A spec output with no counterpart is a mismatch.
GateVerdict checkAgainstSpec(const syseco::Netlist& rectified,
                             const syseco::Netlist& spec, std::uint64_t seed,
                             Tracer& tracer);

/// Copy of `netlist` with output 0 inverted: a netlist the gate must reject.
syseco::Netlist breakFirstOutput(const syseco::Netlist& netlist);

}  // namespace perfbench
