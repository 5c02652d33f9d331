#include "io/netlist_format.hpp"

#include <fstream>
#include <sstream>

#include "io/blif_io.hpp"
#include "io/netlist_io.hpp"
#include "io/verilog_io.hpp"

namespace syseco {

std::string netlistFormatOf(const std::string& path) {
  auto endsWith = [&](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (endsWith(".blif")) return "blif";
  if (endsWith(".v")) return "v";
  return "netlist";
}

bool isNetlistFormat(std::string_view format) {
  return format == "blif" || format == "v" || format == "netlist";
}

std::string netlistFormatExtension(std::string_view format) {
  if (format == "blif") return ".blif";
  if (format == "v") return ".v";
  return ".netlist";
}

Result<Netlist> parseNetlistText(std::string_view format,
                                 const std::string& text) {
  std::istringstream is(text);
  if (format == "blif") return readBlifChecked(is);
  if (format == "v") return readVerilogChecked(is);
  return readNetlistChecked(is);
}

std::string netlistText(std::string_view format, const Netlist& netlist) {
  std::ostringstream os;
  if (format == "blif")
    writeBlif(os, netlist);
  else if (format == "v")
    writeVerilog(os, netlist);
  else
    writeNetlist(os, netlist);
  return os.str();
}

Result<Netlist> loadAnyNetlistChecked(const std::string& path) {
  const std::string format = netlistFormatOf(path);
  if (format == "blif") return loadBlifChecked(path);
  if (format == "v") return loadVerilogChecked(path);
  return loadNetlistChecked(path);
}

void saveAnyNetlist(const std::string& path, const Netlist& netlist) {
  const std::string format = netlistFormatOf(path);
  if (format == "blif")
    saveBlif(path, netlist);
  else if (format == "v")
    saveVerilog(path, netlist);
  else
    saveNetlist(path, netlist);
}

Result<std::string> readFileText(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    return Status::invalidInput("cannot open '" + path + "' for reading");
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

}  // namespace syseco
