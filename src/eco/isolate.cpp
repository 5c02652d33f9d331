#include "eco/isolate.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "eco/resume.hpp"
#include "io/journal_io.hpp"
#include "util/ipc.hpp"
#include "util/journal.hpp"

namespace syseco {

namespace {

Status bad(const std::string& what) {
  return Status::invalidInput("worker patch: " + what);
}

}  // namespace

std::string encodeTaskRequest(const IsolateTaskRequest& req) {
  std::ostringstream os;
  os << "{\"output\":" << req.output << ",\"attempt\":" << req.attempt << "}";
  return os.str();
}

Result<IsolateTaskRequest> decodeTaskRequest(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& v = parsed.value();
  IsolateTaskRequest req;
  if (!readU32(v, "output", &req.output) ||
      !readI64(v, "attempt", &req.attempt) || req.attempt < 1 ||
      req.attempt > kMaxSmallCount)
    return Status::invalidInput("task request: malformed fields");
  return req;
}

std::string encodeWorkerPatch(const WorkerPatch& patch) {
  std::ostringstream os;
  // max_digits10: phase seconds must survive the round trip bit-exactly so
  // isolated-run diagnostics match the in-process speculative mode.
  os << std::setprecision(17);
  os << "{\"produced\":" << (patch.produced ? "true" : "false")
     << ",\"base_gates\":" << patch.baseGates
     << ",\"base_nets\":" << patch.baseNets << ",\"gates\":[";
  for (std::size_t i = 0; i < patch.gates.size(); ++i) {
    const WorkerPatch::NewGate& g = patch.gates[i];
    os << (i ? "," : "") << "[" << static_cast<unsigned>(g.type) << ","
       << g.out;
    for (NetId f : g.fanins) os << "," << f;
    os << "]";
  }
  os << "],\"rewires\":[";
  for (std::size_t i = 0; i < patch.rewires.size(); ++i) {
    const PatchTracker::RewireRecord& r = patch.rewires[i];
    os << (i ? "," : "") << "[" << r.sink.gate << "," << r.sink.port << ","
       << r.oldNet << "," << r.newNet << "]";
  }
  os << "],\"counters\":[" << patch.frag.outputsRectified << ","
     << patch.frag.outputsViaRewire << "," << patch.frag.outputsViaFallback
     << "," << patch.frag.candidatesValidated << ","
     << patch.frag.candidatesRefuted << ","
     << patch.frag.candidatesScreenRejected << ","
     << patch.frag.refinementRounds << "],\"seconds\":["
     << patch.frag.secondsSampling << "," << patch.frag.secondsSymbolic << ","
     << patch.frag.secondsScreening << "," << patch.frag.secondsValidation
     << "," << patch.frag.secondsFallback << "]";
  if (patch.produced && !patch.frag.outputs.empty()) {
    os << ",\"report\":";
    serializeReportInto(os, toJournalReport(patch.frag.outputs.back()));
  }
  os << "}";
  return os.str();
}

Result<WorkerPatch> decodeWorkerPatch(std::string_view payload,
                                      const Netlist& base) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& v = parsed.value();
  if (v.kind != JsonValue::Kind::Object) return bad("not an object");

  WorkerPatch patch;
  if (!readBool(v, "produced", &patch.produced) ||
      !readU64(v, "base_gates", &patch.baseGates) ||
      !readU64(v, "base_nets", &patch.baseNets))
    return bad("malformed envelope");
  if (patch.baseGates != base.numGatesTotal() ||
      patch.baseNets != base.numNetsTotal())
    return bad("base snapshot counts disagree with the supervisor's");

  const JsonValue* gates = v.find("gates");
  if (!gates || gates->kind != JsonValue::Kind::Array)
    return bad("missing gates array");
  if (gates->items.size() > static_cast<std::size_t>(kMaxSmallCount))
    return bad("absurd gate count");
  patch.gates.reserve(gates->items.size());
  for (std::size_t i = 0; i < gates->items.size(); ++i) {
    const JsonValue& item = gates->items[i];
    if (item.kind != JsonValue::Kind::Array || item.items.size() < 2)
      return bad("malformed gate entry");
    std::uint32_t typeRaw = 0, out = 0;
    if (!jsonU32(item.items[0], &typeRaw) || !jsonU32(item.items[1], &out))
      return bad("malformed gate entry");
    if (typeRaw > static_cast<std::uint32_t>(GateType::Mux))
      return bad("unknown gate type");
    WorkerPatch::NewGate g;
    g.type = static_cast<GateType>(typeRaw);
    // addGate creates exactly one net per gate, so appended gate i must
    // drive net baseNets+i - the invariant the commit-time remap relies on.
    if (out != patch.baseNets + i) return bad("gate output id out of order");
    g.out = out;
    g.fanins.reserve(item.items.size() - 2);
    for (std::size_t f = 2; f < item.items.size(); ++f) {
      std::uint32_t fanin = 0;
      if (!jsonU32(item.items[f], &fanin)) return bad("malformed gate fanin");
      // Strictly older nets only: keeps the replayed patch acyclic and
      // every remapped fanin id in range.
      if (fanin >= out) return bad("gate fanin from the future");
      g.fanins.push_back(fanin);
    }
    const std::uint8_t arity = gateArity(g.type);
    const bool arityOk = arity == 0xFF ? !g.fanins.empty()
                                       : g.fanins.size() == arity;
    if (!arityOk) return bad("gate fanin arity mismatch");
    patch.gates.push_back(std::move(g));
  }
  const std::uint64_t totalGates = patch.baseGates + patch.gates.size();
  const std::uint64_t totalNets = patch.baseNets + patch.gates.size();

  const JsonValue* rewires = v.find("rewires");
  if (!rewires || rewires->kind != JsonValue::Kind::Array)
    return bad("missing rewires array");
  if (rewires->items.size() > static_cast<std::size_t>(kMaxSmallCount))
    return bad("absurd rewire count");
  patch.rewires.reserve(rewires->items.size());
  for (const JsonValue& item : rewires->items) {
    if (item.kind != JsonValue::Kind::Array || item.items.size() != 4)
      return bad("malformed rewire entry");
    std::uint32_t f[4];
    for (std::size_t i = 0; i < 4; ++i)
      if (!jsonU32(item.items[i], &f[i])) return bad("malformed rewire entry");
    PatchTracker::RewireRecord r{Sink{f[0], f[1]}, f[2], f[3]};
    if (r.oldNet >= totalNets || r.newNet >= totalNets)
      return bad("rewire net id out of range");
    if (r.sink.isOutput()) {
      if (r.sink.port >= base.numOutputs())
        return bad("rewire output index out of range");
    } else {
      if (r.sink.gate >= totalGates) return bad("rewire gate id out of range");
      const std::size_t faninCount =
          r.sink.gate < patch.baseGates
              ? base.gate(r.sink.gate).fanins.size()
              : patch.gates[r.sink.gate - patch.baseGates].fanins.size();
      if (r.sink.port >= faninCount) return bad("rewire port out of range");
    }
    patch.rewires.push_back(r);
  }

  const JsonValue* counters = v.find("counters");
  if (!counters || counters->kind != JsonValue::Kind::Array ||
      counters->items.size() != 7)
    return bad("malformed counters");
  std::uint64_t c[7];
  for (std::size_t i = 0; i < 7; ++i)
    if (!jsonU64(counters->items[i], &c[i])) return bad("malformed counters");
  patch.frag.outputsRectified = c[0];
  patch.frag.outputsViaRewire = c[1];
  patch.frag.outputsViaFallback = c[2];
  patch.frag.candidatesValidated = c[3];
  patch.frag.candidatesRefuted = c[4];
  patch.frag.candidatesScreenRejected = c[5];
  patch.frag.refinementRounds = c[6];

  const JsonValue* seconds = v.find("seconds");
  if (!seconds || seconds->kind != JsonValue::Kind::Array ||
      seconds->items.size() != 5)
    return bad("malformed seconds");
  double s[5];
  for (std::size_t i = 0; i < 5; ++i)
    if (!jsonDouble(seconds->items[i], &s[i]) || s[i] < 0.0)
      return bad("malformed seconds");
  patch.frag.secondsSampling = s[0];
  patch.frag.secondsSymbolic = s[1];
  patch.frag.secondsScreening = s[2];
  patch.frag.secondsValidation = s[3];
  patch.frag.secondsFallback = s[4];

  if (patch.produced) {
    // A worker always sends the isolation fields a journal may omit.
    const JsonValue* report = v.find("report");
    JournalOutputReport j;
    if (!report || !report->find("attempts") || !report->find("exit_cause") ||
        !parseReport(*report, &j))
      return bad("malformed report");
    std::optional<OutputReport> r = fromJournalReport(j, base);
    if (!r) return bad("malformed report");
    patch.frag.outputs.push_back(std::move(*r));
  }
  return patch;
}

// --- Fleet transport payloads ---------------------------------------------

namespace {

Status badFleet(const std::string& what) {
  return Status::invalidInput("fleet payload: " + what);
}

/// uint64 carried as a decimal string (read back by readU64String): the
/// journal idiom for values (seed, epoch) that may not fit a JSON int64.
void putU64String(std::ostringstream& os, std::uint64_t v) {
  os << '"' << v << '"';
}

}  // namespace

std::string encodeFleetTaskRequest(const FleetTaskRequest& req) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"output\":" << req.output << ",\"attempt\":" << req.attempt
     << ",\"epoch\":";
  putU64String(os, req.epoch);
  os << ",\"lease_seconds\":" << req.leaseSeconds
     << ",\"case_crc\":" << req.caseCrc;
  const ResourceGuard::Limits& l = req.limits;
  if (l.deadlineSeconds > 0.0)
    os << ",\"deadline_seconds\":" << l.deadlineSeconds;
  if (l.conflictBudget > 0) os << ",\"conflict_budget\":" << l.conflictBudget;
  if (l.bddNodeBudget > 0) os << ",\"bdd_node_budget\":" << l.bddNodeBudget;
  os << "}";
  return os.str();
}

Result<FleetTaskRequest> decodeFleetTaskRequest(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& v = parsed.value();
  if (v.kind != JsonValue::Kind::Object) return badFleet("not an object");
  FleetTaskRequest req;
  if (!readU32(v, "output", &req.output) ||
      !readI64(v, "attempt", &req.attempt) || req.attempt < 1 ||
      req.attempt > kMaxSmallCount ||
      !readU64String(v, "epoch", &req.epoch) ||
      !readDouble(v, "lease_seconds", &req.leaseSeconds) ||
      req.leaseSeconds <= 0.0 || !readU32(v, "case_crc", &req.caseCrc))
    return badFleet("malformed task request");
  ResourceGuard::Limits& l = req.limits;
  if (!readDouble(v, "deadline_seconds", &l.deadlineSeconds,
                  JsonKey::kOptional) ||
      !readI64(v, "conflict_budget", &l.conflictBudget, JsonKey::kOptional) ||
      !readI64(v, "bdd_node_budget", &l.bddNodeBudget, JsonKey::kOptional) ||
      l.deadlineSeconds < 0.0 || l.conflictBudget < 0 || l.bddNodeBudget < 0)
    return badFleet("malformed task limits");
  return req;
}

std::string encodeFleetCase(const Netlist& base, const Netlist& spec,
                            const SysecoOptions& options,
                            const std::vector<std::uint32_t>& protect) {
  std::ostringstream os;
  os << "{\"impl\":\"" << jsonEscape(base.dumpRawString()) << "\",\"spec\":\""
     << jsonEscape(spec.dumpRawString()) << "\",\"options\":{"
     << "\"samples\":" << options.numSamples
     << ",\"points\":" << options.maxPoints
     << ",\"pins\":" << options.maxCandidatePins
     << ",\"nets\":" << options.maxRewireNets
     << ",\"sets\":" << options.maxPointSets
     << ",\"choices\":" << options.maxChoices
     << ",\"refine\":" << options.maxRefineIters
     << ",\"vbudget\":" << options.validationBudget
     << ",\"sbudget\":" << options.samplingBudget
     << ",\"bddlimit\":" << options.bddNodeLimit
     << ",\"errsample\":" << (options.useErrorDomainSampling ? "true" : "false")
     << ",\"utility\":" << (options.useUtilityHeuristic ? "true" : "false")
     << ",\"trivial\":" << (options.includeTrivialCandidate ? "true" : "false")
     << ",\"sweep\":" << (options.enableSweeping ? "true" : "false")
     << ",\"synth\":" << (options.synthesizeFunctions ? "true" : "false")
     << ",\"level\":" << (options.levelDriven ? "true" : "false")
     << ",\"seed\":";
  putU64String(os, options.seed);
  os << "},\"protect\":[";
  for (std::size_t i = 0; i < protect.size(); ++i)
    os << (i ? "," : "") << protect[i];
  os << "]}";
  return os.str();
}

Result<FleetCase> decodeFleetCase(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& v = parsed.value();
  if (v.kind != JsonValue::Kind::Object) return badFleet("not an object");

  std::string implDump, specDump;
  if (!readString(v, "impl", &implDump) || !readString(v, "spec", &specDump))
    return badFleet("missing netlist snapshots");
  Result<Netlist> base = Netlist::restoreRawString(implDump);
  if (!base.isOk())
    return badFleet("impl snapshot: " + base.status().message());
  Result<Netlist> spec = Netlist::restoreRawString(specDump);
  if (!spec.isOk())
    return badFleet("spec snapshot: " + spec.status().message());

  const JsonValue* opts = v.find("options");
  if (!opts || opts->kind != JsonValue::Kind::Object)
    return badFleet("missing options");
  FleetCase out;
  SysecoOptions& o = out.options;
  std::uint64_t samples = 0, pins = 0, nets = 0, sets = 0, choices = 0,
                bddLimit = 0;
  std::int64_t points = 0, refine = 0;
  if (!(readU64(*opts, "samples", &samples) &&
        readI64(*opts, "points", &points) && readU64(*opts, "pins", &pins) &&
        readU64(*opts, "nets", &nets) && readU64(*opts, "sets", &sets) &&
        readU64(*opts, "choices", &choices) &&
        readI64(*opts, "refine", &refine) &&
        readI64(*opts, "vbudget", &o.validationBudget) &&
        readI64(*opts, "sbudget", &o.samplingBudget) &&
        readU64(*opts, "bddlimit", &bddLimit) &&
        readBool(*opts, "errsample", &o.useErrorDomainSampling) &&
        readBool(*opts, "utility", &o.useUtilityHeuristic) &&
        readBool(*opts, "trivial", &o.includeTrivialCandidate) &&
        readBool(*opts, "sweep", &o.enableSweeping) &&
        readBool(*opts, "synth", &o.synthesizeFunctions) &&
        readBool(*opts, "level", &o.levelDriven) &&
        readU64String(*opts, "seed", &o.seed)))
    return badFleet("malformed options");
  if (points < 1 || points > kMaxSmallCount || refine < 0 ||
      refine > kMaxSmallCount)
    return badFleet("malformed options");
  o.numSamples = static_cast<std::size_t>(samples);
  o.maxPoints = static_cast<int>(points);
  o.maxCandidatePins = static_cast<std::size_t>(pins);
  o.maxRewireNets = static_cast<std::size_t>(nets);
  o.maxPointSets = static_cast<std::size_t>(sets);
  o.maxChoices = static_cast<std::size_t>(choices);
  o.maxRefineIters = static_cast<int>(refine);
  o.bddNodeLimit = static_cast<std::size_t>(bddLimit);
  if (const Status s = validateSysecoOptions(o); !s.isOk())
    return badFleet("options rejected: " + s.message());

  const JsonValue* protect = v.find("protect");
  if (!protect || protect->kind != JsonValue::Kind::Array)
    return badFleet("missing protect array");
  if (protect->items.size() > static_cast<std::size_t>(kMaxSmallCount))
    return badFleet("absurd protect count");
  out.protect.reserve(protect->items.size());
  for (const JsonValue& item : protect->items) {
    std::uint32_t idx = 0;
    if (!jsonU32(item, &idx) || idx >= base.value().numOutputs())
      return badFleet("protect entry out of range");
    out.protect.push_back(idx);
  }
  out.base = base.take();
  out.spec = spec.take();
  return out;
}

std::string encodeFleetNeedCase(std::uint32_t caseCrc) {
  std::ostringstream os;
  os << "{\"case_crc\":" << caseCrc << "}";
  return os.str();
}

Result<std::uint32_t> decodeFleetNeedCase(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  std::uint32_t crc = 0;
  if (parsed.value().kind != JsonValue::Kind::Object ||
      !readU32(parsed.value(), "case_crc", &crc))
    return badFleet("malformed need-case");
  return crc;
}

std::string encodeFleetHeartbeat(std::uint64_t epoch) {
  std::ostringstream os;
  os << "{\"epoch\":";
  putU64String(os, epoch);
  os << "}";
  return os.str();
}

Result<std::uint64_t> decodeFleetHeartbeat(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  std::uint64_t epoch = 0;
  if (parsed.value().kind != JsonValue::Kind::Object ||
      !readU64String(parsed.value(), "epoch", &epoch))
    return badFleet("malformed heartbeat");
  return epoch;
}

std::string encodeFleetResult(std::uint64_t epoch, const WorkerPatch& patch) {
  // The patch document with the assignment epoch stamped into its envelope;
  // decodeWorkerPatch ignores the extra key, so the patch half of the
  // payload decodes through the one hardened codec both transports share.
  std::string body = encodeWorkerPatch(patch);
  std::ostringstream os;
  os << "{\"epoch\":";
  putU64String(os, epoch);
  os << ",";
  os << std::string_view(body).substr(1);
  return os.str();
}

Result<std::uint64_t> peekFleetEpoch(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  std::uint64_t epoch = 0;
  if (parsed.value().kind != JsonValue::Kind::Object ||
      !readU64String(parsed.value(), "epoch", &epoch))
    return badFleet("missing epoch");
  return epoch;
}

std::string encodeFleetFailure(const FleetFailure& failure) {
  std::ostringstream os;
  os << "{\"epoch\":";
  putU64String(os, failure.epoch);
  os << ",\"cause\":\"" << jsonEscape(failure.cause) << "\",\"detail\":\""
     << jsonEscape(failure.detail) << "\"}";
  return os.str();
}

Result<FleetFailure> decodeFleetFailure(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& v = parsed.value();
  FleetFailure f;
  if (v.kind != JsonValue::Kind::Object ||
      !readU64String(v, "epoch", &f.epoch) ||
      !readString(v, "cause", &f.cause) ||
      !readString(v, "detail", &f.detail) ||
      !workerExitCauseFromName(f.cause))
    return badFleet("malformed failure");
  if (f.detail.size() > 4096) f.detail.resize(4096);
  return f;
}

// --- Whole-case batch fan-out payloads ------------------------------------

namespace {

// The report and verdicts are bounded text documents; the netlist snapshot
// dominates the frame and is bounded by the frame cap itself. Each bound is
// checked at decode so a corrupt length can't drive supervisor allocation.
constexpr std::size_t kMaxCaseTextBytes = 4u << 20;  // report / verdicts

}  // namespace

bool validFleetCaseName(std::string_view name) {
  if (name.empty() || name.size() > 64 || name.front() == '.') return false;
  for (char c : name) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string encodeFleetCaseTask(const FleetCaseTask& task) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"name\":\"" << jsonEscape(task.name)
     << "\",\"case_crc\":" << task.caseCrc << ",\"epoch\":";
  putU64String(os, task.epoch);
  os << ",\"lease_seconds\":" << task.leaseSeconds << ",\"jobs\":" << task.jobs
     << ",\"attempt\":" << task.attempt << "}";
  return os.str();
}

Result<FleetCaseTask> decodeFleetCaseTask(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& v = parsed.value();
  if (v.kind != JsonValue::Kind::Object) return badFleet("not an object");
  FleetCaseTask task;
  if (!readString(v, "name", &task.name) || !validFleetCaseName(task.name) ||
      !readU32(v, "case_crc", &task.caseCrc) ||
      !readU64String(v, "epoch", &task.epoch) ||
      !readDouble(v, "lease_seconds", &task.leaseSeconds) ||
      task.leaseSeconds <= 0.0 || !readU32(v, "jobs", &task.jobs) ||
      task.jobs < 1 || task.jobs > kMaxCaseJobs ||
      !readI64(v, "attempt", &task.attempt) || task.attempt < 1 ||
      task.attempt > kMaxSmallCount)
    return badFleet("malformed case task");
  return task;
}

std::string encodeFleetCaseResult(const FleetCaseResult& result) {
  std::ostringstream os;
  os << "{\"epoch\":";
  putU64String(os, result.epoch);
  os << ",\"exit_code\":" << result.exitCode << ",\"report\":\""
     << jsonEscape(result.report) << "\",\"verdicts\":\""
     << jsonEscape(result.verdicts) << "\",\"netlist\":\""
     << jsonEscape(result.netlist) << "\",\"cache_hits\":" << result.cacheHits
     << ",\"cache_misses\":" << result.cacheMisses
     << ",\"cache_evictions\":" << result.cacheEvictions << "}";
  return os.str();
}

Result<FleetCaseResult> decodeFleetCaseResult(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& v = parsed.value();
  if (v.kind != JsonValue::Kind::Object) return badFleet("not an object");
  FleetCaseResult r;
  std::int64_t exitCode = 0;
  if (!readU64String(v, "epoch", &r.epoch) ||
      !readI64(v, "exit_code", &exitCode) || exitCode < 0 || exitCode > 255 ||
      !readString(v, "report", &r.report) ||
      !readString(v, "verdicts", &r.verdicts) ||
      !readString(v, "netlist", &r.netlist) ||
      !readU64(v, "cache_hits", &r.cacheHits) ||
      !readU64(v, "cache_misses", &r.cacheMisses) ||
      !readU64(v, "cache_evictions", &r.cacheEvictions))
    return badFleet("malformed case result");
  r.exitCode = static_cast<int>(exitCode);
  if (r.report.size() > kMaxCaseTextBytes ||
      r.verdicts.size() > kMaxCaseTextBytes)
    return badFleet("oversized case result text");
  // The report must at least parse as a JSON object (it is re-served to
  // clients verbatim); the verdicts record, when present, must be a single
  // journal line - one JSON object tagged "verdicts", no embedded newline -
  // because the supervisor compares it byte-for-byte with local runs.
  if (Result<JsonValue> rep = parseJson(r.report);
      !rep.isOk() || rep.value().kind != JsonValue::Kind::Object)
    return badFleet("case result report is not a JSON object");
  if (!r.verdicts.empty()) {
    if (r.verdicts.find('\n') != std::string::npos)
      return badFleet("verdicts record contains a newline");
    Result<JsonValue> ver = parseJson(r.verdicts);
    std::string type;
    if (!ver.isOk() || ver.value().kind != JsonValue::Kind::Object ||
        !readString(ver.value(), "type", &type) || type != "verdicts")
      return badFleet("malformed verdicts record");
  }
  // The netlist snapshot is validated by the caller via restoreRawString
  // (it needs the Netlist anyway); the codec only bounds it.
  if (r.netlist.size() > ipc::kMaxPayloadBytes)
    return badFleet("oversized netlist snapshot");
  return r;
}

double retryBackoffSeconds(const SysecoOptions& opt, std::uint32_t output,
                           int failedAttempts) {
  const int shift = std::min(failedAttempts - 1, 10);
  double ms = opt.isolateBackoffMs * static_cast<double>(1u << shift);
  ms = std::min(ms, 5000.0);
  std::uint64_t h =
      opt.seed ^
      (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(output) + 1));
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  ms += (static_cast<double>(h % 1024) / 1024.0) * 0.5 * ms;
  return ms / 1000.0;
}

}  // namespace syseco
