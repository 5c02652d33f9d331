#pragma once
// Both halves of the --workers / --serve-worker agent protocol.
//
// The agent (runWorkerAgent) listens on a TCP port and serves one
// supervisor connection at a time. Over that connection it receives
// SEF1-framed assignments (eco/isolate.hpp fleet codecs): a per-output task
// (kTypeFleetTask) runs the exact pure per-output function every executor
// runs (runOutputTask, eco/search.hpp); a whole-case task (kTypeFleetCaseTask) runs the full
// engine on the case - same seed, same options, agent-local --jobs - and
// answers with one envelope carrying the run report, the oracle's verdicts
// record and the patched netlist. Either way the agent fetches the
// content-addressed case payload once per crc32 key, heartbeats while
// computing so the supervisor's lease stays renewed, and ships back an
// epoch-stamped result or a contained failure. An agent must never die on
// a bad task: compute-side exceptions become failure frames, and transport
// errors just drop the connection (the supervisor classifies the break).
//
// The supervisor side (AgentPool) is shared by the engine's per-output
// fleet executor (syseco.cpp) and the serve scheduler's whole-case
// dispatch (serve/scheduler.hpp). It owns the peer table, lazy connects,
// assignment epochs, need-case uploads, leases, break classification and
// the one peer-health rule; its callers only encode tasks and decode
// results.
//
// Fault-injection sites "fleet.agent" / "fleet.agent.o<output>" (per-output
// tasks) and "fleet.agent.case" / "fleet.agent.case.<name>" (whole-case
// tasks) make the agent misbehave on the wire deterministically
// (net-truncate / net-reset / net-delay and the isolation kinds), so the
// supervisor's network failure taxonomy is testable end to end on a
// loopback fleet.

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "eco/isolate.hpp"
#include "netlist/analysis.hpp"
#include "util/ipc.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

namespace syseco {

/// The agent's resident-case store: a small crc32-keyed LRU of decoded
/// case payloads with their shared read-only analyses. One slot was enough
/// when every supervisor run used exactly one case; a --serve daemon
/// dispatching jobs across a handful of netlist families would thrash the
/// upload with one slot, so the agent now keeps `slots` families resident
/// and evicts in least-recently-used order. Entries live in a std::list so
/// a found/inserted entry's address stays stable while a task computes
/// against its analyses.
class CaseCacheLru {
 public:
  struct Entry {
    std::uint32_t crc = 0;
    FleetCase c;
    std::unique_ptr<NetlistAnalysis> baseAnalysis;
    std::unique_ptr<NetlistAnalysis> specAnalysis;
  };

  /// Lifetime counters: how well crc32 content-addressing amortizes case
  /// uploads across tasks, retries and whole-case batch dispatch. Surfaced
  /// in the agent's log lines and shipped back in every case-result
  /// envelope so batch reports can aggregate them fleet-wide.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  explicit CaseCacheLru(std::size_t slots) : slots_(slots ? slots : 1) {}

  /// Resident lookup; marks the entry most-recently used. Null on a miss.
  /// Counts one hit or one miss.
  Entry* find(std::uint32_t crc);

  /// Makes `c` resident (building its analyses), evicting the
  /// least-recently-used entry when every slot is taken. Returns the
  /// resident entry, already marked most-recently used. Counts evictions
  /// but neither hits nor misses (the preceding find() already did).
  Entry* insert(std::uint32_t crc, FleetCase c);

  std::size_t size() const { return entries_.size(); }
  std::size_t slots() const { return slots_; }
  const Stats& stats() const { return stats_; }

  /// Resident keys, most-recently used first (the eviction-order test
  /// surface; also what a status probe would report).
  std::vector<std::uint32_t> keysMruFirst() const;

 private:
  /// find() without the hit/miss accounting (insert's same-key refresh).
  Entry* lookup(std::uint32_t crc);

  std::size_t slots_ = 1;
  std::list<Entry> entries_;  ///< front = most recently used
  Stats stats_;
};

struct FleetAgentOptions {
  std::uint16_t port = 0;  ///< 0: kernel-assigned (see boundHook)
  bool serveOnce = false;  ///< exit after the first connection closes
  bool verbose = false;
  /// Resident-case LRU slots (netlist families kept decoded+analyzed).
  std::size_t cacheSlots = 4;
  /// Polled between accepts and frames; a set flag shuts the agent down
  /// cleanly (the CLI wires SIGINT/SIGTERM here).
  std::atomic<bool>* stop = nullptr;
  /// Called once with the actually-bound listening port (meaningful with
  /// port = 0; the CLI's --port-file uses it).
  std::function<void(std::uint16_t)> boundHook;
};

/// The supervisor side of the agent protocol: a pool of --serve-worker
/// peers that takes one assignment per peer at a time. Callers hand it an
/// encoded task frame plus the case payload the task computes against, and
/// get back events. The pool connects lazily under the connect timeout,
/// stamps every assignment with a fresh epoch, answers need-case from the
/// assignment's content-addressed case, renews leases from heartbeats and
/// reclaims expired ones, matches results to the live epoch (discarding
/// stale duplicates) and classifies every break.
///
/// Peer health, one rule for every caller: a transport break, a refused
/// connect, an expired lease and a rejected result each strike the peer,
/// and two strikes in a row mark it dead. Any answer for the live
/// assignment (result or contained failure) and any stale duplicate clear
/// the strikes. A broken peer is reconnected lazily; a peer whose lease
/// expired keeps its connection, so its late duplicate can be discarded by
/// epoch, but is "lagging" - out of the usable count and the idle set -
/// until it answers or breaks.
class AgentPool {
 public:
  struct Options {
    std::vector<std::string> workers;  ///< "host:port" agent specs
    double leaseSeconds = 10.0;
    int connectTimeoutMs = 2000;
    int minWorkers = 1;  ///< usable-agent floor (fleetMinWorkers)
  };

  /// A content-addressed case upload: the encodeFleetCase document and its
  /// crc32 key. Shared by every assignment that computes against it.
  struct Case {
    explicit Case(std::string payload);
    std::string payload;
    std::uint32_t crc = 0;
  };

  enum class EventKind {
    kResult,   ///< the live assignment's raw result payload
    kFailure,  ///< the live assignment failed; the caller retries it
    kStale,    ///< a reclaimed assignment's late answer, discarded
    kStrike,   ///< a peer was struck with no assignment to fail
               ///< (a refused connect, a lagging peer's break)
    kDead,     ///< a peer crossed the strike limit
    kUpload,   ///< a peer asked for the case and got it
  };

  struct Event {
    EventKind kind = EventKind::kFailure;
    std::size_t peer = 0;  ///< the handle reject() takes
    std::string worker;    ///< the peer's "host:port"
    /// The assignment's label (kResult / kFailure; kStale: the peer's
    /// latest assignment).
    std::string name;
    std::uint64_t epoch = 0;
    std::string payload;  ///< kResult: the result frame's payload
    std::string cause;    ///< workerExitCauseName token
    std::string detail;
  };

  struct Assignment {
    std::string worker;
    std::uint64_t epoch = 0;
  };

  /// Encodes the task frame's payload for the assignment's epoch.
  using EncodeTask = std::function<std::string(std::uint64_t epoch)>;

  /// A malformed worker spec is dead from the start: it is reported by the
  /// first poll() and never connected.
  explicit AgentPool(Options opt);
  ~AgentPool();
  AgentPool(const AgentPool&) = delete;
  AgentPool& operator=(const AgentPool&) = delete;

  /// Configured peers, dead ones included.
  std::size_t size() const { return peers_.size(); }
  /// Peers that can take (or are computing) work: not dead, not lagging.
  std::size_t usableWorkers() const;
  /// Empty while usableWorkers() meets the minWorkers floor; otherwise
  /// why not.
  std::string degraded() const;
  bool hasIdlePeer() const;

  /// Sends a `taskType` frame (kTypeFleetTask or kTypeFleetCaseTask) to the
  /// first idle usable peer, connecting it first when needed. Peers that
  /// refuse the connect or the send are struck (reported by the next poll)
  /// and the next idle peer is tried: such a refusal is the peer's failure
  /// and costs the task nothing. kInternal when no peer took it.
  Result<Assignment> assign(const std::string& name, std::uint32_t taskType,
                            const EncodeTask& encode,
                            std::shared_ptr<const Case> upload);

  /// Readable fds for the caller's poll wait (live agent connections).
  std::vector<int> pollFds() const;

  /// One non-blocking pump of every connection plus lease enforcement.
  /// Returns the events that settled since the last call.
  std::vector<Event> poll();

  /// The caller could not use a kResult (undecodable patch, invalid
  /// netlist): strikes the peer that sent it and drops its connection.
  /// Must be called before the next poll().
  void reject(std::size_t peer, const std::string& cause,
              const std::string& why);

  /// Closes every connection and kills every peer. In-flight assignments
  /// come back as kFailure events from the next poll().
  void closeAll();

 private:
  struct Peer {
    std::string spec;  ///< "host:port" as configured
    std::string host;
    std::uint16_t port = 0;
    int fd = -1;
    std::string rx;  ///< framed receive stream
    int strikes = 0;
    bool dead = false;
    bool lagging = false;  ///< lease expired, connection kept
    bool busy = false;     ///< an assignment is live
    /// A result was delivered: the strikes clear at the next poll() unless
    /// the caller rejected it first.
    bool answered = false;
    std::string name;   ///< latest assignment
    std::uint64_t epoch = 0;
    double deadline = 0.0;  ///< lease expiry on the pool clock
    /// The case need-case answers, kept through a lagging spell.
    std::shared_ptr<const Case> upload;
  };

  Event event(EventKind kind, const Peer& p, std::string cause = {},
              std::string detail = {}) const;
  /// Ends the live assignment (if any) as a kFailure.
  void failAssignment(Peer& p, const std::string& cause,
                      const std::string& why, std::vector<Event>& out);
  /// Closes the connection; the peer reconnects lazily unless dead.
  void disconnect(Peer& p);
  void strike(Peer& p, const std::string& cause, const std::string& why,
              std::vector<Event>& out);
  /// Drops the connection, fails the live assignment (or reports a bare
  /// kStrike) and strikes the peer.
  void breakPeer(Peer& p, const std::string& cause, const std::string& why,
                 std::vector<Event>& out);
  /// A result or failure frame's epoch does not name the live assignment:
  /// the duplicate is discarded and the (alive, honest) peer rejoins.
  void discardStale(Peer& p, std::uint64_t epoch, const char* what,
                    std::vector<Event>& out);
  void handleFrame(Peer& p, ipc::Frame& frame, std::vector<Event>& out);
  void servicePeer(Peer& p, std::vector<Event>& out);

  Options opt_;
  std::vector<Peer> peers_;
  std::uint64_t epochCounter_ = 0;
  /// Events raised outside poll() (construction, assign, reject,
  /// closeAll), drained by the next poll().
  std::vector<Event> pending_;
  Timer clock_;
};

/// Runs the agent loop until `stop` is set (or, with serveOnce, until the
/// first supervisor connection closes). Returns non-ok only for setup
/// failures (the port cannot be bound); per-connection and per-task
/// failures are contained and served back to the supervisor.
Status runWorkerAgent(const FleetAgentOptions& options);

}  // namespace syseco
