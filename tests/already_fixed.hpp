#pragma once
// The outputs a clean `jobs = 1` run commits as already fixed: earlier
// commits fixed them for free (global favoring), so the plan-order
// supervisor commits a no-op for each when it reaches the commit frontier,
// and that commit adds no rewire.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "eco/syseco.hpp"
#include "gen/eco_case.hpp"

namespace syseco {

inline std::vector<std::uint32_t> alreadyFixedOutputs(const EcoCase& c) {
  std::vector<std::uint32_t> fixed;
  std::size_t rewires = 0;
  SysecoOptions opt;
  opt.checkpointHook = [&](const RunCheckpoint& cp) {
    if (cp.tracker.rewires().size() == rewires)
      fixed.push_back(cp.report.output);
    rewires = cp.tracker.rewires().size();
    return true;
  };
  runSyseco(c.impl, c.spec, opt);
  return fixed;
}

}  // namespace syseco
