#pragma once
// Loopback peers for the fleet, batch and daemon suites: a real
// --serve-worker agent run in-thread, and a scripted rogue peer that
// sabotages the agent protocol on cue.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>

#include "eco/fleet.hpp"
#include "util/ipc.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace syseco {

struct LoopbackAgent {
  std::atomic<bool> stop{false};
  std::atomic<int> port{-1};
  std::thread th;

  void start() {
    th = std::thread([this] {
      FleetAgentOptions o;
      o.port = 0;
      o.stop = &stop;
      o.boundHook = [this](std::uint16_t bound) {
        port.store(static_cast<int>(bound));
      };
      const Status st = runWorkerAgent(o);
      if (!st.isOk()) ADD_FAILURE() << "agent failed: " << st.toString();
    });
    while (port.load() < 0) subprocess::pollReadable({}, 10);
  }

  std::string spec() const {
    return "127.0.0.1:" + std::to_string(port.load());
  }

  ~LoopbackAgent() {
    stop.store(true);
    if (th.joinable()) th.join();
  }
};

/// A scripted rogue peer: accepts the supervisor once, hands the connection
/// to the test's script, and dies. The script decides how to sabotage.
struct RoguePeer {
  std::atomic<bool> stop{false};
  std::uint16_t port = 0;
  int listenFd = -1;
  std::thread th;

  void start(std::function<void(RoguePeer&, int&, std::string&)> script) {
    Result<int> lf = net::listenOn(0, &port);
    ASSERT_TRUE(lf.isOk()) << lf.status().toString();
    listenFd = lf.take();
    th = std::thread([this, script = std::move(script)] {
      int fd = -1;
      while (!stop.load() && fd < 0) {
        Result<int> c = net::acceptClient(listenFd, 100);
        if (!c.isOk()) return;
        if (c.value() >= 0) fd = c.value();
      }
      if (fd < 0) return;
      std::string rx;
      script(*this, fd, rx);
      if (fd >= 0) net::closeSocket(fd);
    });
  }

  std::string spec() const { return "127.0.0.1:" + std::to_string(port); }

  void closeListener() { net::closeSocket(listenFd); }

  std::optional<ipc::Frame> readFrame(int fd, std::string& rx) {
    while (!stop.load()) {
      net::RecvOutcome out = net::recvFrame(fd, &rx, 100);
      if (out.status == net::RecvStatus::kFrame) return out.frame;
      if (out.status != net::RecvStatus::kTimeout) return std::nullopt;
    }
    return std::nullopt;
  }

  void sleepMs(int ms) {
    for (int waited = 0; waited < ms && !stop.load(); waited += 20)
      subprocess::pollReadable({}, 20);
  }

  ~RoguePeer() {
    stop.store(true);
    if (th.joinable()) th.join();
    if (listenFd >= 0) net::closeSocket(listenFd);
  }
};

}  // namespace syseco
