#include "serve/serve.hpp"

#include <cstdio>
#include <utility>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/io_retry.hpp"
#include "util/ipc.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace syseco::serve {

namespace {

constexpr int kTickMs = 50;

/// One client session: its receive buffer and the non-detached jobs whose
/// lifetime is bound to it.
struct Conn {
  int fd = -1;
  std::string rx;
  std::vector<std::string> ownedJobs;
};

class Daemon {
 public:
  Daemon(const ServeOptions& opt, JobQueue queue)
      : opt_(opt), sched_(opt, std::move(queue)) {}

  Status run();

 private:
  bool stopped() const {
    return opt_.stop != nullptr &&
           opt_.stop->load(std::memory_order_relaxed);
  }

  void acceptClients(int listenFd);
  void serviceConnections();
  // Each returns false when the session must be dropped.
  bool handleFrame(Conn& conn, const ipc::Frame& frame);
  bool handleSubmit(Conn& conn, const ipc::Frame& frame);
  bool handleStatus(Conn& conn, const ipc::Frame& frame);
  bool handleCancel(Conn& conn, const ipc::Frame& frame);
  bool reply(Conn& conn, std::uint32_t type, const std::string& payload);
  void dropConnection(Conn& conn);
  JobState stateOf(Job& job, bool withArtifacts);

  const ServeOptions& opt_;
  Scheduler sched_;
  std::vector<Conn> conns_;
};

Status Daemon::run() {
  JobQueue& queue = sched_.queue();
  std::uint16_t bound = 0;
  Result<int> listening = net::listenOn(opt_.port, &bound);
  if (!listening.isOk()) return listening.status();
  const int listenFd = listening.take();
  if (opt_.boundHook) opt_.boundHook(bound);
  sched_.log("listening on port " + std::to_string(bound) + ", state dir " +
             queue.stateDir());

  Status walFault = Status::ok();
  while (!stopped()) {
    // Fail closed on a poisoned WAL: once a storage fault latches the
    // queue's journal, no transition can be made durable, so continuing
    // to accept or dispatch work would silently drop state. Drain and
    // exit with the cause; a restart folds the WAL back to the last
    // COMMIT-consistent prefix and recovers every job.
    if (queue.walPoisoned()) {
      walFault = Status::internal(
          "queue WAL unusable (" + queue.walPoisonCause() +
          "); daemon stopping - restart to recover from the last COMMIT");
      std::fprintf(stderr, "[syseco-serve] fatal: %s\n",
                   walFault.message().c_str());
      break;
    }
    std::vector<int> fds = sched_.pollFds();
    fds.push_back(listenFd);
    for (const Conn& c : conns_) fds.push_back(c.fd);
    subprocess::pollReadable(fds, kTickMs);
    acceptClients(listenFd);
    serviceConnections();
    sched_.tick();
  }

  // Clean drain: terminate in-flight workers (their journals keep every
  // committed checkpoint) and leave their jobs running in the WAL - the
  // next daemon life recovers them as queued-with-resume.
  sched_.log("stopping: terminating " + std::to_string(sched_.localBusy()) +
             " in-flight worker(s)");
  (void)queue.note("shutdown");
  sched_.shutdown();
  for (Conn& c : conns_) net::closeSocket(c.fd);
  int fd = listenFd;
  net::closeSocket(fd);
  return walFault;
}

void Daemon::acceptClients(int listenFd) {
  while (true) {
    int softErr = 0;
    Result<int> client = net::acceptClient(listenFd, 0, &softErr);
    if (!client.isOk()) {
      sched_.warn("accept failed: " + client.status().message());
      return;
    }
    const int fd = client.take();
    if (fd < 0) {
      if (softErr != 0) {
        // fd exhaustion or kernel resource pressure: journal it and back
        // off for one tick. The listener stays up; pending connections
        // stay queued in the kernel until fds free up.
        sched_.warn("accept backoff: errno " + std::to_string(softErr) +
                    " (transient resource exhaustion); retrying");
        subprocess::pollReadable({}, 200);
      }
      return;
    }
    Conn c;
    c.fd = fd;
    conns_.push_back(std::move(c));
    sched_.log("client connected (fd " + std::to_string(fd) + ", " +
               std::to_string(conns_.size()) + " session(s))");
  }
}

void Daemon::serviceConnections() {
  for (std::size_t i = 0; i < conns_.size();) {
    Conn& c = conns_[i];
    bool alive = true;
    while (alive) {
      net::RecvOutcome out = net::recvFrame(c.fd, &c.rx, 0);
      if (out.status == net::RecvStatus::kTimeout) break;
      if (out.status != net::RecvStatus::kFrame) {
        // Closed, truncated, garbage or reset: same session teardown for
        // all of them - bound jobs are cancelled, detached jobs live on.
        sched_.log("client gone (" + out.detail + ")");
        alive = false;
        break;
      }
      alive = handleFrame(c, out.frame);
    }
    if (!alive) {
      dropConnection(c);
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

bool Daemon::handleFrame(Conn& conn, const ipc::Frame& frame) {
  switch (frame.type) {
    case ipc::kTypeServeSubmit:
      return handleSubmit(conn, frame);
    case ipc::kTypeServeStatus:
      return handleStatus(conn, frame);
    case ipc::kTypeServeCancel:
      return handleCancel(conn, frame);
    default:
      // A known SEF1 frame that is not a serve verb: a confused peer
      // (e.g. a fleet supervisor dialed the wrong port). Drop the session.
      sched_.log("unexpected frame type " + std::to_string(frame.type) +
                 "; dropping session");
      return false;
  }
}

/// A reply the client cannot receive ends the session: dropConnection
/// cancels the jobs bound to it, as for any other lost client.
bool Daemon::reply(Conn& conn, std::uint32_t type,
                   const std::string& payload) {
  const Status sent = net::sendFrame(conn.fd, type, payload);
  if (!sent.isOk()) sched_.log("reply not sent: " + sent.message());
  return sent.isOk();
}

bool Daemon::handleSubmit(Conn& conn, const ipc::Frame& frame) {
  auto reject = [&](const std::string& reason, const std::string& detail) {
    Rejected r;
    r.reason = reason;
    r.detail = detail;
    sched_.log("rejected submit (" + reason + "): " + detail);
    return reply(conn, ipc::kTypeServeRejected, encodeRejected(r));
  };
  if (stopped()) return reject("shutting-down", "daemon is draining");
  Result<SubmitRequest> decoded = decodeSubmit(frame.payload);
  if (!decoded.isOk())
    return reject("bad-request", decoded.status().message());
  const SubmitRequest req = decoded.take();
  const std::uint64_t bytes = req.implText.size() + req.specText.size();
  Admission adm = sched_.queue().admit(req.tenant, bytes, opt_.limits);
  if (!adm.admitted) return reject(adm.reason, adm.detail);
  if (Status s = validatePayload(req); !s.isOk())
    return reject("bad-request", s.message());
  Result<Job*> submitted = sched_.queue().submit(req);
  if (!submitted.isOk()) {
    // Durability failure, not a client error: shed the job rather than
    // accept work the WAL cannot attest to.
    sched_.warn("submit persistence failed: " +
                submitted.status().message());
    return reject("queue-full",
                  "cannot persist job: " + submitted.status().message());
  }
  Job* job = submitted.take();
  if (!job->detach) conn.ownedJobs.push_back(job->id);
  sched_.log("accepted job " + job->id + " (tenant " + job->tenant + ", " +
             std::to_string(bytes) + " bytes" +
             (job->detach ? ", detached)" : ")"));
  Accepted ok;
  ok.job = job->id;
  return reply(conn, ipc::kTypeServeAccepted, encodeAccepted(ok));
}

JobState Daemon::stateOf(Job& job, bool withArtifacts) {
  JobState st;
  st.job = job.id;
  st.state = queueStateName(job.state);
  st.attempt = job.attempt;
  st.exitCode = job.exitCode;
  st.cause = job.cause;
  st.detail = job.detail;
  if (withArtifacts && (job.state == QueueState::kDone ||
                        job.state == QueueState::kFailed)) {
    st.reportText = readFileOrEmpty(sched_.queue().reportPath(job));
    if (job.state == QueueState::kDone)
      st.outText = readFileOrEmpty(sched_.queue().outPath(job));
  }
  return st;
}

bool Daemon::handleStatus(Conn& conn, const ipc::Frame& frame) {
  Result<JobRef> ref = decodeJobRef(frame.payload);
  JobState st;
  if (!ref.isOk()) {
    st.state = "unknown";
    st.detail = ref.status().message();
  } else if (Job* job = sched_.queue().find(ref.value().job)) {
    st = stateOf(*job, /*withArtifacts=*/true);
  } else {
    st.job = ref.value().job;
    st.state = "unknown";
    st.detail = "no such job";
  }
  return reply(conn, ipc::kTypeServeJobState, encodeJobState(st));
}

bool Daemon::handleCancel(Conn& conn, const ipc::Frame& frame) {
  Result<JobRef> ref = decodeJobRef(frame.payload);
  JobState st;
  if (!ref.isOk()) {
    st.state = "unknown";
    st.detail = ref.status().message();
  } else if (Job* job = sched_.queue().find(ref.value().job)) {
    sched_.cancel(*job, "client-cancel", "cancelled by request");
    st = stateOf(*job, /*withArtifacts=*/false);
  } else {
    st.job = ref.value().job;
    st.state = "unknown";
    st.detail = "no such job";
  }
  return reply(conn, ipc::kTypeServeJobState, encodeJobState(st));
}

void Daemon::dropConnection(Conn& conn) {
  for (const std::string& id : conn.ownedJobs)
    if (Job* job = sched_.queue().find(id))
      sched_.cancel(*job, "client-disconnect",
                    "submitting connection closed before completion");
  net::closeSocket(conn.fd);
}

}  // namespace

Status runServeDaemon(const ServeOptions& options) {
  if (options.stateDir.empty())
    return Status::invalidInput("--serve needs a state directory");
  if (options.selfExe.empty())
    return Status::invalidInput("serve daemon needs its worker binary path");
  ioretry::ignoreSigpipeOnce();
  Result<JobQueue> queue = JobQueue::open(options.stateDir);
  if (!queue.isOk()) return queue.status();
  Daemon daemon(options, queue.take());
  return daemon.run();
}

// --- Client ---------------------------------------------------------------

namespace {

constexpr int kReplyTimeoutMs = 10000;

Result<ipc::Frame> roundTrip(int fd, std::string* rx, std::uint32_t type,
                             const std::string& payload,
                             std::uint32_t expect1, std::uint32_t expect2) {
  if (Status s = net::sendFrame(fd, type, payload); !s.isOk()) return s;
  net::RecvOutcome out = net::recvFrame(fd, rx, kReplyTimeoutMs);
  if (out.status != net::RecvStatus::kFrame)
    return Status::internal("daemon reply failed: " + out.detail);
  if (out.frame.type != expect1 && out.frame.type != expect2)
    return Status::internal("unexpected daemon reply type " +
                            std::to_string(out.frame.type));
  return std::move(out.frame);
}

}  // namespace

Result<ServeClient> ServeClient::connect(const std::string& host,
                                         std::uint16_t port, int timeoutMs) {
  Result<int> fd = net::connectTo(host, port, timeoutMs);
  if (!fd.isOk()) return fd.status();
  ServeClient c;
  c.fd_ = fd.take();
  return c;
}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) net::closeSocket(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
    rx_ = std::move(other.rx_);
  }
  return *this;
}

ServeClient::~ServeClient() {
  if (fd_ >= 0) net::closeSocket(fd_);
}

Result<SubmitOutcome> ServeClient::submit(const SubmitRequest& request) {
  Result<ipc::Frame> reply =
      roundTrip(fd_, &rx_, ipc::kTypeServeSubmit, encodeSubmit(request),
                ipc::kTypeServeAccepted, ipc::kTypeServeRejected);
  if (!reply.isOk()) return reply.status();
  SubmitOutcome out;
  if (reply.value().type == ipc::kTypeServeAccepted) {
    Result<Accepted> acc = decodeAccepted(reply.value().payload);
    if (!acc.isOk()) return acc.status();
    out.accepted = true;
    out.job = acc.take().job;
    return out;
  }
  Result<Rejected> rej = decodeRejected(reply.value().payload);
  if (!rej.isOk()) return rej.status();
  out.rejected = rej.take();
  return out;
}

Result<JobState> ServeClient::status(const std::string& job) {
  JobRef ref;
  ref.job = job;
  Result<ipc::Frame> reply =
      roundTrip(fd_, &rx_, ipc::kTypeServeStatus, encodeJobRef(ref),
                ipc::kTypeServeJobState, ipc::kTypeServeJobState);
  if (!reply.isOk()) return reply.status();
  return decodeJobState(reply.value().payload);
}

Result<JobState> ServeClient::cancel(const std::string& job) {
  JobRef ref;
  ref.job = job;
  Result<ipc::Frame> reply =
      roundTrip(fd_, &rx_, ipc::kTypeServeCancel, encodeJobRef(ref),
                ipc::kTypeServeJobState, ipc::kTypeServeJobState);
  if (!reply.isOk()) return reply.status();
  return decodeJobState(reply.value().payload);
}

Result<JobState> ServeClient::wait(const std::string& job, int pollMs) {
  while (true) {
    Result<JobState> st = status(job);
    if (!st.isOk()) return st.status();
    const std::string& s = st.value().state;
    if (s == "done" || s == "failed" || s == "cancelled" || s == "unknown")
      return st;
    subprocess::pollReadable({}, pollMs);
  }
}

}  // namespace syseco::serve
