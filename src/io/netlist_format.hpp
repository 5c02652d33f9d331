#pragma once
// The one dispatch over the netlist file formats: BLIF (io/blif_io), the
// structural Verilog subset (io/verilog_io) and the plain-text netlist
// format (io/netlist_io). Formats are named by the tokens the serve
// protocol and the queue WAL carry - "blif", "v" and "netlist" - and a file
// path picks its format by extension, falling back to the plain-text
// format. The CLI, the daemon, the batch driver and the job queue all
// resolve formats here.

#include <string>
#include <string_view>

#include "netlist/netlist.hpp"
#include "util/status.hpp"

namespace syseco {

/// Format name of `path`: "blif" for *.blif, "v" for *.v, else "netlist".
std::string netlistFormatOf(const std::string& path);

/// True for "blif", "v" and "netlist".
bool isNetlistFormat(std::string_view format);

/// The file extension (with the dot) a format's files are written with.
std::string netlistFormatExtension(std::string_view format);

/// Checked parse of netlist text in `format`: malformed text comes back as
/// kInvalidInput with the parser's line-accurate diagnostic.
Result<Netlist> parseNetlistText(std::string_view format,
                                 const std::string& text);

/// The netlist written as text in `format`.
std::string netlistText(std::string_view format, const Netlist& netlist);

/// Checked load and throwing save, in the format of the path's extension.
Result<Netlist> loadAnyNetlistChecked(const std::string& path);
void saveAnyNetlist(const std::string& path, const Netlist& netlist);

/// The whole file as bytes; kInvalidInput when it cannot be opened.
Result<std::string> readFileText(const std::string& path);

}  // namespace syseco
