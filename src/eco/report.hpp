#pragma once
// The machine-readable run report (schema documented in README.md), shared
// by the CLI one-shot path and the fleet agent's whole-case batch path: a
// case dispatched to a remote agent must ship back the same report document
// a local run would have written, byte-for-byte after the standard timing
// normalization.

#include <ostream>
#include <string>

#include "eco/patch.hpp"
#include "eco/syseco.hpp"
#include "verify/audit.hpp"

namespace syseco {

/// Streams the full run report JSON for one engine run.
void writeRunReport(std::ostream& os, const std::string& engine,
                    const EcoResult& result, const SysecoDiagnostics& diag,
                    AuditLevel auditLevel, int exitCode);

/// Convenience: the report as a string (the wire/batch shape).
std::string runReportText(const std::string& engine, const EcoResult& result,
                          const SysecoDiagnostics& diag, AuditLevel auditLevel,
                          int exitCode);

}  // namespace syseco
