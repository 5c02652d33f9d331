#pragma once
// Patch representation and accounting shared by every ECO engine.
//
// All engines modify a working copy of the implementation in place: they
// instantiate new gates (clones of C' logic or fresh logic) and rewire sink
// pins. A PatchTracker wraps the working netlist, records every change, and
// afterwards derives the patch attributes reported in the paper's Table 2:
//
//   gates   - live newly-instantiated gates, constants excluded
//             (constants are tie-offs, not library cells),
//   nets    - live newly-created nets plus the distinct pre-existing nets a
//             pin was rewired to (each is a new connection the ECO adds),
//   inputs  - distinct pre-existing non-constant nets that feed the added
//             logic or directly drive a rewired pin,
//   outputs - rewired sink pins (the rectification points where the patch
//             drives existing logic or a circuit output).
//
// The tracker also supports rollback, which the syseco validation loop uses
// to discard sampling-domain candidates refuted by SAT.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace syseco {

struct PatchStats {
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  std::size_t gates = 0;
  std::size_t nets = 0;
};

/// Result of one engine run; `rectified` is the patched implementation.
struct EcoResult {
  bool success = false;   ///< every output proven equivalent to the spec
  PatchStats stats;
  double seconds = 0.0;
  std::size_t failingOutputsBefore = 0;
  Netlist rectified;
};

class PatchTracker {
 public:
  struct RewireRecord {
    Sink sink;
    NetId oldNet;
    NetId newNet;
  };

  /// Detachable copy of the tracker's accounting, journaled alongside the
  /// working-netlist snapshot so a resumed run computes the same finalize()
  /// statistics (and the same clone reuse) as an uninterrupted one.
  struct State {
    std::size_t baseGates = 0;
    std::size_t baseNets = 0;
    std::vector<RewireRecord> rewires;
    /// specCloneCache_ as sorted (specNet, workingNet) pairs.
    std::vector<std::pair<NetId, NetId>> cloneCache;
  };

  explicit PatchTracker(Netlist& working);

  /// Re-attaches journaled accounting to a restored working netlist.
  PatchTracker(Netlist& working, const State& state);

  /// Snapshot of the accounting for journaling.
  State state() const;

  Netlist& netlist() { return working_; }
  const Netlist& netlist() const { return working_; }

  /// Rewires a sink pin, recording the change for stats and rollback.
  void rewire(const Sink& sink, NetId newNet);

  /// Marks the current change count; rollback(mark) undoes rewires past it.
  /// (Added gates become dead logic and are removed by the final sweep.)
  std::size_t mark() const { return rewires_.size(); }
  void rollback(std::size_t mark);

  /// Clones a cone of the specification into the working netlist (cached
  /// across calls so shared spec logic is instantiated once).
  NetId cloneSpecCone(const Netlist& spec, NetId specNet);

  /// True when `net` existed before any patching began.
  bool isOriginalNet(NetId net) const { return net < baseNets_; }

  /// Sweeps dead logic and computes the final patch attributes.
  PatchStats finalize();

  const std::vector<RewireRecord>& rewires() const { return rewires_; }

 private:
  Netlist& working_;
  std::size_t baseGates_;
  std::size_t baseNets_;
  std::vector<RewireRecord> rewires_;
  std::unordered_map<NetId, NetId> specCloneCache_;
  std::unordered_map<std::string, NetId> inputByName_;
};

/// Exact equivalence check of every label-matched output pair
/// (unbounded SAT). The final verification step of each engine.
bool verifyAllOutputs(const Netlist& impl, const Netlist& spec);

}  // namespace syseco
