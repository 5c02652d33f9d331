#include "util/fault_plan.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace syseco::fault {

namespace {

bool parseU64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

std::vector<std::string> splitTokens(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    std::size_t end = pos;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t') ++end;
    if (end > pos) tokens.emplace_back(line.substr(pos, end - pos));
    pos = end;
  }
  return tokens;
}

/// The canonical fired-log line for a one-shot entry (must match what
/// Injector::logFired writes).
std::string firedKey(const PlanEntry& e) {
  std::string key = std::to_string(e.atHit);
  key += ' ';
  key += e.site;
  key += ' ';
  key += kindName(e.kind);
  return key;
}

Result<std::string> slurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::invalidInput("cannot read file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

Result<FaultPlan> parseFaultPlan(std::string_view text) {
  FaultPlan plan;
  std::size_t lineNo = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineNo;
    const std::vector<std::string> tokens = splitTokens(line);
    if (tokens.empty() || tokens[0][0] == '#') continue;

    const std::string where = "fault plan line " + std::to_string(lineNo);
    PlanEntry entry;
    if (tokens[0] == "at") {
      entry.oneShot = true;
    } else if (tokens[0] == "from") {
      entry.oneShot = false;
    } else {
      return Status::invalidInput(where + ": expected 'at' or 'from', got '" +
                                  tokens[0] + "'");
    }
    if (tokens.size() < 4 || tokens.size() > 5) {
      return Status::invalidInput(
          where + ": expected '<at|from> <hit> <site> <kind> [arg]'");
    }
    if (!parseU64(tokens[1], &entry.atHit)) {
      return Status::invalidInput(where + ": bad hit ordinal '" + tokens[1] +
                                  "'");
    }
    entry.site = tokens[2];
    const std::optional<Kind> kind = kindFromName(tokens[3]);
    if (!kind) {
      return Status::invalidInput(where + ": unknown fault kind '" +
                                  tokens[3] + "'");
    }
    entry.kind = *kind;
    if (tokens.size() == 5 && !parseU64(tokens[4], &entry.arg)) {
      return Status::invalidInput(where + ": bad arg '" + tokens[4] + "'");
    }
    plan.entries.push_back(std::move(entry));
  }
  return plan;
}

std::string serializeFaultPlan(const FaultPlan& plan) {
  std::string out;
  for (const PlanEntry& e : plan.entries) {
    out += e.oneShot ? "at " : "from ";
    out += std::to_string(e.atHit);
    out += ' ';
    out += e.site;
    out += ' ';
    out += kindName(e.kind);
    if (e.arg != 0) {
      out += ' ';
      out += std::to_string(e.arg);
    }
    out += '\n';
  }
  return out;
}

const std::vector<FaultSite>& storageFaultSites() {
  // Every fallibleWrite/fallibleFsync site in the tree. The README's fault
  // reference table mirrors this list; update both together.
  static const std::vector<FaultSite> sites = {
      // Engine run journal (util/journal under the CLI's journal dir).
      {"journal.write", false},
      {"journal.fsync", true},
      {"journal.marker.write", false},
      {"journal.marker.fsync", true},
      {"journal.compact.write", false},
      {"journal.compact.fsync", true},
      // Generic atomic-file staging (reports, netlists, port files).
      {"atomic.write", false},
      {"atomic.fsync", true},
      // Job-queue WAL behind --serve and --batch (serve/job_queue).
      {"queue.wal.write", false},
      {"queue.wal.fsync", true},
      {"queue.wal.marker.write", false},
      {"queue.wal.marker.fsync", true},
      {"queue.wal.compact.write", false},
      {"queue.wal.compact.fsync", true},
      // Failure repro bundles (verify/repro).
      {"repro.write", false},
      {"repro.fsync", true},
  };
  return sites;
}

FaultPlan generateChaosPlan(std::uint64_t seed, std::size_t count,
                            const std::vector<FaultSite>* sites) {
  const std::vector<FaultSite>& pool =
      sites != nullptr ? *sites : storageFaultSites();
  FaultPlan plan;
  if (pool.empty() || count == 0) return plan;
  Rng rng(seed);
  // Write-site and fsync-site kind pools. Crashes ride along at low
  // weight: a schedule mixing power cuts with disk faults is exactly the
  // storm the heal invariant must survive.
  static const Kind kWriteKinds[] = {Kind::kEnospc, Kind::kEio,
                                     Kind::kShortWrite, Kind::kTornFrame,
                                     Kind::kTornFrame, Kind::kCrash};
  static const Kind kFsyncKinds[] = {Kind::kFsyncFail, Kind::kFsyncFail,
                                     Kind::kEio, Kind::kCrash};
  std::vector<std::pair<std::string_view, std::uint64_t>> used;
  for (std::size_t i = 0; i < count; ++i) {
    PlanEntry entry;
    // Unique (site, hit) pairs: two one-shots on the same ordinal could
    // never both fire, which would leave a dangling armed trigger and an
    // ambiguous fired-log match. Bounded rejection keeps generation
    // deterministic even when the pool is nearly saturated.
    bool placed = false;
    for (int attempt = 0; attempt < 64 && !placed; ++attempt) {
      const FaultSite& site =
          pool[static_cast<std::size_t>(rng.below(pool.size()))];
      const std::uint64_t hit = rng.below(6);
      bool clash = false;
      for (const auto& [usedSite, usedHit] : used) {
        if (usedSite == site.name && usedHit == hit) {
          clash = true;
          break;
        }
      }
      if (clash) continue;
      used.emplace_back(site.name, hit);
      entry.site = std::string(site.name);
      entry.atHit = hit;
      if (site.isFsync) {
        entry.kind = kFsyncKinds[rng.below(std::size(kFsyncKinds))];
      } else {
        entry.kind = kWriteKinds[rng.below(std::size(kWriteKinds))];
      }
      if (entry.kind == Kind::kTornFrame || entry.kind == Kind::kShortWrite) {
        // 0 means "half the buffer"; a concrete small offset tears inside
        // the frame header about half the time.
        if (rng.flip()) entry.arg = rng.range(1, 24);
      }
      placed = true;
    }
    if (!placed) break;  // pool saturated; plan is just shorter
    plan.entries.push_back(std::move(entry));
  }
  return plan;
}

Status applyFaultPlan(const FaultPlan& plan, const std::string& planPath) {
  Injector& inj = Injector::instance();
  std::vector<std::string> fired;
  if (!planPath.empty()) {
    const std::string logPath = planPath + ".fired";
    std::ifstream in(logPath);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) fired.push_back(line);
    }
    inj.setFireLog(logPath);
  }
  for (const PlanEntry& e : plan.entries) {
    if (e.oneShot) {
      // Consume one matching fired-log line per entry: an earlier life of
      // this process tree already injected it.
      bool consumed = false;
      const std::string key = firedKey(e);
      for (auto it = fired.begin(); it != fired.end(); ++it) {
        if (*it == key) {
          fired.erase(it);
          consumed = true;
          break;
        }
      }
      if (consumed) continue;
      inj.schedule(e.site, e.kind, e.atHit, e.arg);
    } else {
      inj.arm(e.site, e.kind, e.atHit, e.arg);
    }
  }
  return Status::ok();
}

Status loadFaultPlanFromEnv() {
  const char* env = std::getenv("SYSECO_FAULT_PLAN");
  if (env == nullptr || env[0] == '\0') return Status::ok();
  const std::string path(env);
  Result<std::string> text = slurpFile(path);
  if (!text.isOk()) {
    return Status::invalidInput("SYSECO_FAULT_PLAN: " +
                                text.status().message());
  }
  Result<FaultPlan> plan = parseFaultPlan(text.value());
  if (!plan.isOk()) {
    return Status::invalidInput("SYSECO_FAULT_PLAN: " +
                                plan.status().message());
  }
  return applyFaultPlan(plan.value(), path);
}

}  // namespace syseco::fault
