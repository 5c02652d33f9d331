#pragma once
// A real --serve-worker agent on a loopback ephemeral port, run in-thread:
// the shared fixture of the fleet, batch and daemon suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "eco/fleet.hpp"
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

}  // namespace syseco
