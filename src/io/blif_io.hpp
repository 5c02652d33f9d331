#pragma once
// Berkeley Logic Interchange Format (BLIF) subset reader/writer.
//
// Supported constructs:
//   .model / .inputs / .outputs / .end
//   .names <in...> <out>   followed by single-output SOP cover rows
//                          ("-01 1" style; both on-set and off-set covers)
//   .latch                 rejected (combinational ECO scope, paper §2)
//   .subckt / .gate        rejected (flat covers only)
//
// A cover that has the shape of one gate becomes that gate, whatever its
// row order: single-row AND/NAND/NOR, one-hot OR, full-parity XOR/XNOR,
// the writer's mux, and their off-set duals - so writeBlif followed by
// readBlif gives back the written gates. A one-row buffer cover onto a
// primary output (the writer's output alias) names an existing net. Any
// other cover decodes as sum-of-products: one AND per row over one shared
// inverter per net, OR-ed, and complemented for an off-set ("... 0")
// cover. A cover mixing on-set and off-set rows is rejected. This is
// enough to exchange circuits with ABC and the ISCAS/ITC benchmark
// translations commonly shipped as BLIF.

#include <iosfwd>
#include <string>

#include "netlist/netlist.hpp"
#include "util/status.hpp"

namespace syseco {

/// Parses a BLIF model. Throws std::runtime_error with a line-accurate
/// message on malformed or unsupported input.
Netlist readBlif(std::istream& is);

/// Non-throwing variant: malformed input comes back as kInvalidInput with
/// the same line-accurate diagnostic, allocation failure as kInternal. The
/// parse itself never crashes or aborts on hostile input.
Result<Netlist> readBlifChecked(std::istream& is);

/// Serializes the netlist as BLIF: every gate becomes a .names cover, an
/// XOR/XNOR of more than 16 inputs a balanced tree of 2-input covers.
/// Internal nets are named n<id>, suffixed with '_' while that collides
/// with a primary input or output name.
void writeBlif(std::ostream& os, const Netlist& netlist,
               const std::string& modelName = "syseco");

/// File wrappers.
Netlist loadBlif(const std::string& path);
Result<Netlist> loadBlifChecked(const std::string& path);
void saveBlif(const std::string& path, const Netlist& netlist,
              const std::string& modelName = "syseco");

}  // namespace syseco
