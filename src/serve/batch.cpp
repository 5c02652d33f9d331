#include "serve/batch.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "io/journal_io.hpp"
#include "io/netlist_format.hpp"
#include "util/atomic_file.hpp"
#include "util/io_retry.hpp"
#include "util/subprocess.hpp"

namespace syseco::serve {

// --- Manifest -------------------------------------------------------------

namespace {

constexpr std::size_t kMaxManifestCases = 4096;

Status badManifest(const std::string& why) {
  return Status::invalidInput("batch manifest: " + why);
}

}  // namespace

Result<std::vector<ManifestCase>> parseBatchManifest(std::string_view text) {
  Result<JsonValue> parsed = parseJson(text);
  if (!parsed.isOk())
    return badManifest("not valid JSON: " + parsed.status().message());
  const JsonValue& v = parsed.value();
  if (v.kind != JsonValue::Kind::Object)
    return badManifest("top level is not an object");
  const JsonValue* cases = v.find("cases");
  if (cases == nullptr || cases->kind != JsonValue::Kind::Array)
    return badManifest("missing \"cases\" array");
  if (cases->items.empty()) return badManifest("\"cases\" is empty");
  if (cases->items.size() > kMaxManifestCases)
    return badManifest("more than " + std::to_string(kMaxManifestCases) +
                       " cases");

  std::vector<ManifestCase> out;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < cases->items.size(); ++i) {
    const JsonValue& e = cases->items[i];
    const std::string at = "case #" + std::to_string(i + 1);
    if (e.kind != JsonValue::Kind::Object)
      return badManifest(at + " is not an object");
    ManifestCase c;
    if (!readString(e, "name", &c.name) || !validFleetCaseName(c.name))
      return badManifest(
          at + " needs a portable \"name\" (1..64 of [A-Za-z0-9._-], not "
               "starting with '.')");
    if (!seen.insert(c.name).second)
      return badManifest("duplicate case name '" + c.name + "'");
    if (!readString(e, "impl", &c.implPath) || c.implPath.empty())
      return badManifest(at + " needs an \"impl\" path");
    if (!readString(e, "spec", &c.specPath) || c.specPath.empty())
      return badManifest(at + " needs a \"spec\" path");
    c.hasSeed = e.find("seed") != nullptr;
    if (!readU64(e, "seed", &c.seed, JsonKey::kOptional))
      return badManifest(at + ": \"seed\" must be a non-negative integer");
    c.hasJobs = e.find("jobs") != nullptr;
    if (!readI64(e, "jobs", &c.jobs, JsonKey::kOptional) ||
        (c.hasJobs && (c.jobs < 1 || c.jobs > kMaxCaseJobs)))
      return badManifest(at + ": \"jobs\" must be in 1.." +
                         std::to_string(kMaxCaseJobs));
    out.push_back(std::move(c));
  }
  return out;
}

// --- runBatch -------------------------------------------------------------

namespace {

constexpr int kBatchTickMs = 50;

/// Reads and validates one case's inputs into `req`; the status says why
/// the case cannot run (kept as the failed job's detail).
Status loadCaseInputs(const ManifestCase& m, SubmitRequest& req) {
  Result<std::string> impl = readFileText(m.implPath);
  Result<std::string> spec = readFileText(m.specPath);
  if (impl.isOk()) req.implText = impl.take();
  if (spec.isOk()) req.specText = spec.take();
  if (!impl.isOk()) return impl.status();
  if (!spec.isOk()) return spec.status();
  if (netlistFormatOf(m.specPath) != req.format)
    return Status::invalidInput("impl and spec must share one netlist format");
  return validatePayload(req);
}

/// Registers one manifest case as a queue job named by its manifest name.
/// A case whose inputs do not read or parse is registered already failed
/// as invalid-input, so it is never dispatched and the sweep continues.
Status registerCase(JobQueue& queue, const ManifestCase& m,
                    const BatchOptions& opt) {
  SubmitRequest req;
  req.format = netlistFormatOf(m.implPath);
  req.seed = m.hasSeed ? m.seed : opt.defaultSeed;
  req.jobs = m.hasJobs ? m.jobs : opt.defaultJobs;
  const Status inputs = loadCaseInputs(m, req);
  Result<Job*> job = queue.submit(req, m.name);
  if (!job.isOk()) return job.status();
  if (!inputs.isOk() && job.value()->state == QueueState::kQueued)
    return queue.markFailed(*job.value(), "invalid-input", inputs.message());
  return Status::ok();
}

Status writeBatchReport(JobQueue& queue, bool degraded, bool interrupted) {
  std::ostringstream os;
  CacheCounters totals;
  os << "{\"cases\":[";
  bool first = true;
  for (const Job* j : queue.all()) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << jsonEscape(j->id) << "\",\"state\":\""
       << queueStateName(j->state) << "\",\"exit_code\":" << j->exitCode
       << ",\"attempt\":" << j->attempt << ",\"worker\":\""
       << jsonEscape(j->worker) << "\",\"cause\":\"" << jsonEscape(j->cause)
       << "\",\"cache\":{\"hits\":" << j->cache.hits
       << ",\"misses\":" << j->cache.misses
       << ",\"evictions\":" << j->cache.evictions << "}}";
    totals.hits += j->cache.hits;
    totals.misses += j->cache.misses;
    totals.evictions += j->cache.evictions;
  }
  os << "],\"degraded_to_local\":" << (degraded ? "true" : "false")
     << ",\"interrupted\":" << (interrupted ? "true" : "false")
     << ",\"cache_totals\":{\"hits\":" << totals.hits
     << ",\"misses\":" << totals.misses
     << ",\"evictions\":" << totals.evictions << "}}\n";
  return writeFileAtomic(queue.stateDir() + "/batch_report.json", os.str());
}

}  // namespace

Result<BatchOutcome> runBatch(const BatchOptions& opt) {
  if (opt.manifestPath.empty())
    return Status::invalidInput("--batch needs a manifest path");
  if (opt.stateDir.empty())
    return Status::invalidInput("--batch needs a state directory "
                                "(--batch-state DIR or --resume DIR)");
  if (opt.selfExe.empty())
    return Status::invalidInput("batch driver needs its worker binary path");
  // The default reaches every manifest case without "jobs", and from there
  // the worker's argv: bound it like a manifest entry.
  if (opt.defaultJobs < 1 || opt.defaultJobs > kMaxCaseJobs)
    return Status::invalidInput("--jobs must be in 1.." +
                                std::to_string(kMaxCaseJobs));
  ioretry::ignoreSigpipeOnce();

  Result<std::string> manifestText = readFileText(opt.manifestPath);
  if (!manifestText.isOk()) return manifestText.status();
  Result<std::vector<ManifestCase>> manifest =
      parseBatchManifest(manifestText.value());
  if (!manifest.isOk()) return manifest.status();

  Result<JobQueue> opened = JobQueue::open(opt.stateDir);
  if (!opened.isOk()) return opened.status();
  if (!opt.expectResume && !opened.value().all().empty())
    return Status::invalidInput(
        "batch state directory '" + opt.stateDir +
        "' already holds a sweep; pass `--resume " + opt.stateDir +
        "` to continue it, or point --batch-state at a fresh directory");
  Scheduler sched(opt, opened.take());
  for (const ManifestCase& m : manifest.value())
    if (Status s = registerCase(sched.queue(), m, opt); !s.isOk()) return s;

  bool interrupted = false;
  while (true) {
    if (opt.stop != nullptr && opt.stop->load(std::memory_order_relaxed)) {
      interrupted = true;
      break;
    }
    // Fail closed on a poisoned WAL: once a storage fault latches the
    // queue's journal, no transition can be made durable - continuing
    // would spin on un-journalable dispatches and lose progress records.
    // Drain and return the structured cause; `--batch ... --resume` heals
    // from the last COMMIT-consistent prefix.
    if (sched.queue().walPoisoned()) {
      sched.shutdown();
      return Status::internal(
          "queue WAL unusable (" + sched.queue().walPoisonCause() +
          "); sweep stopping - rerun with `--batch " + opt.manifestPath +
          " --resume " + opt.stateDir + "` to recover");
    }
    if (sched.queue().residentCount() == 0) break;
    sched.tick();
    subprocess::pollReadable(sched.pollFds(), kBatchTickMs);
  }

  if (interrupted) {
    // Clean drain: in-flight work stays "running" in the WAL so the next
    // life recovers it as queued-with-resume.
    (void)sched.queue().note("interrupted: draining to shutdown");
    sched.shutdown();
  }

  if (Status s = writeBatchReport(sched.queue(),
                                  opt.workers.empty() || sched.fleetDegraded(),
                                  interrupted);
      !s.isOk())
    return s;

  BatchOutcome outcome;
  outcome.degradedToLocal = sched.fleetDegraded();
  outcome.interrupted = interrupted;
  for (const Job* j : sched.queue().all()) {
    if (j->state == QueueState::kDone) {
      ++outcome.done;
      outcome.worstCaseExit = std::max(outcome.worstCaseExit, j->exitCode);
    } else if (j->state == QueueState::kFailed) {
      ++outcome.failed;
    }
  }
  return outcome;
}

}  // namespace syseco::serve
