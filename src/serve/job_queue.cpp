#include "serve/job_queue.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "io/journal_io.hpp"
#include "util/atomic_file.hpp"

namespace syseco::serve {

namespace {

constexpr const char* kQueueSubdir = "/queue";

Status ensureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST) return Status::ok();
  return Status::internal("mkdir('" + path + "') failed: " +
                          std::strerror(errno));
}

std::string formatExtension(const std::string& format) {
  if (format == "blif") return ".blif";
  if (format == "v") return ".v";
  return ".netlist";
}

/// Folds one WAL record into the recovered job list (submission order;
/// `index` maps ids to positions). Unknown events are skipped (a newer
/// WAL degrades to what this build understands).
void foldEvent(const JournalServeEvent& ev,
               std::vector<std::unique_ptr<Job>>& jobs,
               std::unordered_map<std::string, std::size_t>& index) {
  if (ev.event == "note" || ev.job.empty()) return;
  auto it = index.find(ev.job);
  if (ev.event == "submitted") {
    if (it != index.end()) return;  // duplicate submit: first one wins
    auto j = std::make_unique<Job>();
    j->id = ev.job;
    j->tenant = ev.tenant;
    j->format = ev.format.empty() ? "blif" : ev.format;
    j->seed = ev.seed;
    j->jobs = ev.jobs;
    j->isolate = ev.isolate;
    j->detach = ev.detach;
    j->faultInject = ev.faultInject;
    j->bytes = ev.bytes;
    index.emplace(ev.job, jobs.size());
    jobs.push_back(std::move(j));
    return;
  }
  if (it == index.end()) return;  // transition without a submit: dropped frame
  Job& j = *jobs[it->second];
  if (ev.event == "running") {
    j.state = QueueState::kRunning;
    j.attempt = ev.attempt;
    j.worker = ev.worker;
  } else if (ev.event == "recovered") {
    j.state = QueueState::kQueued;
    j.resume = true;
    j.attempt = ev.attempt;
  } else if (ev.event == "done") {
    j.state = QueueState::kDone;
    j.exitCode = ev.exitCode;
    j.cause = ev.cause;
    j.detail = ev.detail;
    j.worker = ev.worker;
    j.cache = CacheCounters{ev.cacheHits, ev.cacheMisses, ev.cacheEvictions};
  } else if (ev.event == "failed") {
    j.state = QueueState::kFailed;
    j.cause = ev.cause;
    j.detail = ev.detail;
  } else if (ev.event == "cancelled") {
    j.state = QueueState::kCancelled;
    j.cause = ev.cause;
    j.detail = ev.detail;
  }
}

JournalServeEvent eventFor(const std::string& event, const Job& job) {
  JournalServeEvent ev;
  ev.event = event;
  ev.job = job.id;
  ev.tenant = job.tenant;
  ev.format = job.format;
  ev.seed = job.seed;
  ev.jobs = job.jobs;
  ev.detach = job.detach;
  ev.isolate = job.isolate;
  ev.bytes = job.bytes;
  ev.attempt = job.attempt;
  ev.exitCode = job.exitCode;
  ev.cause = job.cause;
  ev.detail = job.detail;
  ev.faultInject = job.faultInject;
  ev.worker = job.worker;
  ev.cacheHits = job.cache.hits;
  ev.cacheMisses = job.cache.misses;
  ev.cacheEvictions = job.cache.evictions;
  return ev;
}

std::uint64_t numericSuffix(const std::string& id) {
  std::uint64_t n = 0;
  for (std::size_t i = 1; i < id.size(); ++i) {
    if (id[i] < '0' || id[i] > '9') return 0;
    n = n * 10 + static_cast<std::uint64_t>(id[i] - '0');
  }
  return n;
}

}  // namespace

const char* queueStateName(QueueState s) {
  switch (s) {
    case QueueState::kQueued: return "queued";
    case QueueState::kRunning: return "running";
    case QueueState::kDone: return "done";
    case QueueState::kFailed: return "failed";
    case QueueState::kCancelled: return "cancelled";
  }
  return "unknown";
}

Result<JobQueue> JobQueue::open(const std::string& stateDir) {
  JobQueue q;
  q.stateDir_ = stateDir;
  if (Status s = ensureDir(stateDir); !s.isOk()) return s;
  if (Status s = ensureDir(stateDir + "/jobs"); !s.isOk()) return s;

  // Fold whatever WAL a previous daemon life left behind. A missing
  // journal is an empty scan; torn tails and corrupt lines were already
  // dropped (with diagnostics) by the framing layer.
  Result<JournalScan> scan = scanJournal(stateDir + kQueueSubdir);
  if (!scan.isOk()) return scan.status();
  std::vector<std::unique_ptr<Job>> folded;
  std::unordered_map<std::string, std::size_t> index;
  std::size_t droppedPayloads = 0;
  for (const JournalFrame& frame : scan.value().frames) {
    Result<JournalServeEvent> ev = parseServeEvent(frame.payload);
    if (!ev.isOk()) {
      ++droppedPayloads;
      continue;
    }
    foldEvent(ev.value(), folded, index);
  }
  for (const std::string& d : scan.value().diagnostics)
    q.recoveryNotes_.push_back("queue WAL: " + d);
  if (droppedPayloads > 0)
    q.recoveryNotes_.push_back("queue WAL: dropped " +
                               std::to_string(droppedPayloads) +
                               " unparseable record(s)");

  // Jobs that were mid-run when the daemon died come back queued with the
  // resume flag: their engine journals hold every committed checkpoint,
  // and --resume re-certifies and continues from there.
  for (std::unique_ptr<Job>& job : folded) {
    if (job->state == QueueState::kRunning) {
      job->state = QueueState::kQueued;
      job->resume = true;
      q.recoveryNotes_.push_back("job " + job->id +
                                 " was mid-run at shutdown; re-queued with "
                                 "resume (attempt " +
                                 std::to_string(job->attempt) + ")");
    } else if (job->state == QueueState::kQueued && job->resume) {
      q.recoveryNotes_.push_back("job " + job->id +
                                 " restored as queued-with-resume");
    }
  }

  // A crash mid-writeFileAtomic legitimately strands a staging file in the
  // state tree; recovery sweeps them so they never accumulate (and so the
  // chaos harness can treat a surviving one as a leak).
  removeStaleStaging(stateDir);
  removeStaleStaging(stateDir + "/jobs");
  for (const std::unique_ptr<Job>& job : folded)
    removeStaleStaging(q.jobDir(job->id));

  // Compact: rewrite the WAL from the folded state so its length tracks
  // queue occupancy, not daemon lifetime. The rewrite is staged and
  // renamed (createCompacted), so a kill at any instant leaves either the
  // complete old WAL or the complete new one - never a truncated mix.
  std::vector<std::string> compacted;
  for (std::unique_ptr<Job>& job : folded) {
    compacted.push_back(serializeServeEvent(eventFor("submitted", *job)));
    const char* transition = nullptr;
    switch (job->state) {
      case QueueState::kQueued:
        if (job->resume) transition = "recovered";
        break;
      case QueueState::kRunning: transition = "running"; break;
      case QueueState::kDone: transition = "done"; break;
      case QueueState::kFailed: transition = "failed"; break;
      case QueueState::kCancelled: transition = "cancelled"; break;
    }
    if (transition != nullptr)
      compacted.push_back(serializeServeEvent(eventFor(transition, *job)));
    q.nextId_ = std::max(q.nextId_, numericSuffix(job->id) + 1);
  }
  q.jobs_ = std::move(folded);
  Result<JournalWriter> wal = JournalWriter::createCompacted(
      stateDir + kQueueSubdir, compacted, "queue.wal");
  if (!wal.isOk()) return wal.status();
  q.wal_ = wal.take();
  return q;
}

Admission JobQueue::admit(const std::string& tenant,
                          std::uint64_t payloadBytes,
                          const AdmissionLimits& limits) const {
  Admission a;
  if (residentCount() >= limits.maxResidentJobs) {
    a.reason = "queue-full";
    a.detail = std::to_string(residentCount()) + " job(s) resident, limit " +
               std::to_string(limits.maxResidentJobs);
    return a;
  }
  if (tenantResident(tenant) >= limits.maxPerTenant) {
    a.reason = "tenant-quota";
    a.detail = "tenant '" + tenant + "' has " +
               std::to_string(tenantResident(tenant)) +
               " job(s) resident, limit " +
               std::to_string(limits.maxPerTenant);
    return a;
  }
  if (residentBytes() + payloadBytes > limits.maxResidentBytes) {
    a.reason = "memory-watermark";
    a.detail = std::to_string(residentBytes()) + " payload byte(s) resident" +
               " + " + std::to_string(payloadBytes) + " submitted > " +
               std::to_string(limits.maxResidentBytes) + " watermark";
    return a;
  }
  a.admitted = true;
  return a;
}

Result<Job*> JobQueue::submit(const SubmitRequest& request,
                              const std::string& name) {
  if (Job* existing = name.empty() ? nullptr : find(name)) {
    if (existing->seed != request.seed || existing->jobs != request.jobs ||
        existing->format != request.format ||
        readFileOrEmpty(implPath(*existing)) != request.implText ||
        readFileOrEmpty(specPath(*existing)) != request.specText)
      return Status::invalidInput(
          "job '" + name +
          "' already in the queue with different inputs; refusing to "
          "resume a different sweep");
    return existing;
  }
  char idBuf[16];
  std::snprintf(idBuf, sizeof(idBuf), "j%06llu",
                static_cast<unsigned long long>(nextId_));
  Job job;
  job.id = name.empty() ? idBuf : name;
  job.tenant = request.tenant;
  job.format = request.format;
  job.seed = request.seed;
  job.jobs = request.jobs;
  job.isolate = request.isolate;
  job.detach = request.detach;
  job.faultInject = request.faultInject;
  job.bytes = request.implText.size() + request.specText.size();

  // Payload files first, WAL record second: a WAL submitted record
  // attests that the job's inputs are durably on disk.
  if (Status s = ensureDir(jobDir(job.id)); !s.isOk()) return s;
  if (Status s = writeFileAtomic(implPath(job), request.implText); !s.isOk())
    return s;
  if (Status s = writeFileAtomic(specPath(job), request.specText); !s.isOk())
    return s;
  if (Status s = wal_.append(serializeServeEvent(eventFor("submitted", job)));
      !s.isOk())
    return s;
  if (name.empty()) ++nextId_;
  jobs_.push_back(std::make_unique<Job>(std::move(job)));
  return jobs_.back().get();
}

Job* JobQueue::find(const std::string& id) {
  for (std::unique_ptr<Job>& j : jobs_)
    if (j->id == id) return j.get();
  return nullptr;
}

std::vector<Job*> JobQueue::all() {
  std::vector<Job*> out;
  out.reserve(jobs_.size());
  for (std::unique_ptr<Job>& j : jobs_) out.push_back(j.get());
  return out;
}

Status JobQueue::appendEvent(const std::string& event, const Job& job) {
  return wal_.append(serializeServeEvent(eventFor(event, job)));
}

Status JobQueue::markRunning(Job& job, std::int64_t attempt,
                             const std::string& worker) {
  Job next = job;
  next.attempt = attempt;
  next.worker = worker;
  if (Status s = appendEvent("running", next); !s.isOk()) return s;
  job.state = QueueState::kRunning;
  job.attempt = attempt;
  job.worker = worker;
  return Status::ok();
}

Status JobQueue::markDone(Job& job, std::int64_t exitCode,
                          const CacheCounters& cache) {
  Job next = job;
  next.exitCode = exitCode;
  next.cause.clear();
  next.detail.clear();
  next.cache = cache;
  if (Status s = appendEvent("done", next); !s.isOk()) return s;
  job.state = QueueState::kDone;
  job.exitCode = exitCode;
  job.cause.clear();
  job.detail.clear();
  job.cache = cache;
  return Status::ok();
}

Status JobQueue::markFailed(Job& job, const std::string& cause,
                            const std::string& detail) {
  Job next = job;
  next.cause = cause;
  next.detail = detail;
  if (Status s = appendEvent("failed", next); !s.isOk()) return s;
  job.state = QueueState::kFailed;
  job.cause = cause;
  job.detail = detail;
  return Status::ok();
}

Status JobQueue::markCancelled(Job& job, const std::string& cause,
                               const std::string& detail) {
  Job next = job;
  next.cause = cause;
  next.detail = detail;
  if (Status s = appendEvent("cancelled", next); !s.isOk()) return s;
  job.state = QueueState::kCancelled;
  job.cause = cause;
  job.detail = detail;
  return Status::ok();
}

Status JobQueue::markRequeued(Job& job, const std::string& cause,
                              const std::string& detail) {
  Job next = job;
  next.cause = cause;
  next.detail = detail;
  if (Status s = appendEvent("recovered", next); !s.isOk()) return s;
  job.state = QueueState::kQueued;
  job.resume = true;
  job.cause = cause;
  job.detail = detail;
  return Status::ok();
}

Status JobQueue::note(const std::string& detail) {
  JournalServeEvent ev;
  ev.event = "note";
  ev.detail = detail;
  return wal_.append(serializeServeEvent(ev));
}

std::size_t JobQueue::residentCount() const {
  std::size_t n = 0;
  for (const std::unique_ptr<Job>& j : jobs_)
    n += j->state == QueueState::kQueued || j->state == QueueState::kRunning;
  return n;
}

std::size_t JobQueue::tenantResident(const std::string& tenant) const {
  std::size_t n = 0;
  for (const std::unique_ptr<Job>& j : jobs_)
    n += (j->state == QueueState::kQueued ||
          j->state == QueueState::kRunning) &&
         j->tenant == tenant;
  return n;
}

std::uint64_t JobQueue::residentBytes() const {
  std::uint64_t n = 0;
  for (const std::unique_ptr<Job>& j : jobs_)
    if (j->state == QueueState::kQueued || j->state == QueueState::kRunning)
      n += j->bytes;
  return n;
}

std::string JobQueue::jobDir(const std::string& id) const {
  return stateDir_ + "/jobs/" + id;
}

std::string JobQueue::implPath(const Job& job) const {
  return jobDir(job.id) + "/impl" + formatExtension(job.format);
}

std::string JobQueue::specPath(const Job& job) const {
  return jobDir(job.id) + "/spec" + formatExtension(job.format);
}

std::string JobQueue::engineJournalDir(const Job& job) const {
  return jobDir(job.id) + "/journal";
}

std::string JobQueue::reportPath(const Job& job) const {
  return jobDir(job.id) + "/report.json";
}

std::string JobQueue::outPath(const Job& job) const {
  return jobDir(job.id) + "/out" + formatExtension(job.format);
}

std::string JobQueue::verdictsPath(const Job& job) const {
  return jobDir(job.id) + "/verdicts.txt";
}

std::string JobQueue::workerLogPath(const Job& job) const {
  return jobDir(job.id) + "/worker.log";
}

}  // namespace syseco::serve
