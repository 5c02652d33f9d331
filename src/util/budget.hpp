#pragma once
// The resource governor: one object combining the engine's three resource
// dimensions - a wall-clock deadline, a SAT conflict budget and a BDD node
// budget - behind a cheap cooperative polling interface.
//
// The paper's engine is resource-constrained by construction (validation
// runs under a conflict budget, §5.1) and complete by fallback
// (Proposition 1): nothing the governor reports is fatal. Call sites poll
// checkpoint() at natural unit-of-work boundaries (a SAT conflict batch, a
// block of fresh BDD nodes); a non-ok Status propagates outward to a phase
// boundary where the engine degrades - shrinks the candidate space, skips
// to the next output, or rewires the output to its revised-cone clone.
//
// Guards are hierarchical: a guard built with a parent charges every
// consumption to each ancestor as well, and a tripped ancestor trips every
// descendant at its next checkpoint. The engine gives each planned output
// one slice fixed up front from the options and the plan - 1/n of each
// run-wide budget and of the run's deadline, for n planned outputs - so a
// slice never depends on which output finished first and one pathological
// output cannot starve the rest. Commit-time work is parented on the run's
// root guard, which keeps the run totals binding.
//
// Fault injection: checkpoint(site) consults util/fault.hpp when a site tag
// is given, so tests can force either exhaustion code at any polling site.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "util/fault.hpp"
#include "util/status.hpp"

namespace syseco {

class ResourceGuard {
 public:
  struct Limits {
    double deadlineSeconds = 0.0;      ///< <= 0: no deadline
    std::int64_t conflictBudget = 0;   ///< <= 0: unlimited
    std::int64_t bddNodeBudget = 0;    ///< <= 0: unlimited
  };

  /// Unlimited guard (never trips on its own; still honors fault
  /// injection and ancestor trips).
  ResourceGuard() = default;

  /// A guard with its own `limits` under `parent` (nullptr: a root).
  explicit ResourceGuard(const Limits& limits,
                         const ResourceGuard* parent = nullptr)
      : parent_(parent) {
    if (limits.deadlineSeconds > 0.0) {
      hasDeadline_ = true;
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         limits.deadlineSeconds));
    }
    conflictLimit_ = limits.conflictBudget > 0 ? limits.conflictBudget : -1;
    bddNodeLimit_ = limits.bddNodeBudget > 0 ? limits.bddNodeBudget : -1;
  }

  // Children hold a pointer to their parent, so guards are neither
  // copyable nor movable; create children in a scope the parent outlives.
  ResourceGuard(const ResourceGuard&) = delete;
  ResourceGuard& operator=(const ResourceGuard&) = delete;

  // --- Consumption ----------------------------------------------------------

  // Charges walk the parent chain with relaxed atomic adds: workers on
  // different threads may share an ancestor, and the counters are plain
  // monotone tallies polled cooperatively (no ordering is needed beyond
  // the eventual-visibility the polls tolerate by design).
  void chargeConflicts(std::int64_t n) {
    for (const ResourceGuard* g = this; g; g = g->parent_)
      g->conflictsUsed_.fetch_add(n, std::memory_order_relaxed);
  }
  void chargeBddNodes(std::int64_t n) {
    for (const ResourceGuard* g = this; g; g = g->parent_)
      g->bddNodesUsed_.fetch_add(n, std::memory_order_relaxed);
  }

  // --- Polling --------------------------------------------------------------

  /// Cooperative poll. Returns ok while every budget (of this guard and
  /// all ancestors) holds; otherwise a budget-exhausted / deadline-exceeded
  /// Status naming `site`. The first trip latches: later checkpoints keep
  /// returning the same code, so call sites may poll freely.
  Status checkpoint(const char* site = nullptr) {
    if (site != nullptr) {
      if (const auto kind = fault::fire(site)) {
        if (*kind == fault::Kind::kBudgetExhausted)
          tripped_ = StatusCode::kBudgetExhausted;
        else if (*kind == fault::Kind::kDeadlineExceeded)
          tripped_ = StatusCode::kDeadlineExceeded;
        // kBddBlowup / kAllocFailure are handled at their own sites.
      }
    }
    if (tripped_ == StatusCode::kOk) refresh();
    if (tripped_ == StatusCode::kOk) return Status::ok();
    return tripStatus(site);
  }

  /// Non-latching view of the current state (no fault-injection hit).
  bool exhausted() const {
    if (tripped_ != StatusCode::kOk) return true;
    const_cast<ResourceGuard*>(this)->refresh();
    return tripped_ != StatusCode::kOk;
  }
  StatusCode trippedCode() const { return tripped_; }

  // --- Introspection --------------------------------------------------------

  /// Remaining conflicts across this guard and its ancestors; -1 when
  /// unlimited everywhere on the chain.
  std::int64_t remainingConflicts() const {
    std::int64_t best = -1;
    for (const ResourceGuard* g = this; g; g = g->parent_) {
      if (g->conflictLimit_ < 0) continue;
      const std::int64_t left =
          g->conflictLimit_ > g->conflictsUsed_
              ? g->conflictLimit_ - g->conflictsUsed_
              : 0;
      best = best < 0 ? left : std::min(best, left);
    }
    return best;
  }

  /// Seconds until the nearest deadline on the chain; negative once
  /// expired; a large sentinel (1e18) when no deadline is set.
  double remainingSeconds() const {
    bool any = false;
    TimePoint nearest{};
    for (const ResourceGuard* g = this; g; g = g->parent_) {
      if (!g->hasDeadline_) continue;
      if (!any || g->deadline_ < nearest) nearest = g->deadline_;
      any = true;
    }
    if (!any) return 1e18;
    return std::chrono::duration<double>(nearest - Clock::now()).count();
  }

  std::int64_t conflictsUsed() const { return conflictsUsed_; }
  std::int64_t bddNodesUsed() const { return bddNodesUsed_; }

 private:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  void refresh() {
    for (const ResourceGuard* g = this; g; g = g->parent_) {
      const StatusCode code = g->tripped_.load(std::memory_order_relaxed);
      if (code != StatusCode::kOk) {
        tripped_.store(code, std::memory_order_relaxed);
        return;
      }
      if (g->conflictLimit_ >= 0 && g->conflictsUsed_ >= g->conflictLimit_) {
        tripped_ = StatusCode::kBudgetExhausted;
        return;
      }
      if (g->bddNodeLimit_ >= 0 && g->bddNodesUsed_ >= g->bddNodeLimit_) {
        tripped_ = StatusCode::kBudgetExhausted;
        return;
      }
    }
    if (hasDeadlineOnChain() && remainingSeconds() <= 0.0)
      tripped_ = StatusCode::kDeadlineExceeded;
  }

  bool hasDeadlineOnChain() const {
    for (const ResourceGuard* g = this; g; g = g->parent_)
      if (g->hasDeadline_) return true;
    return false;
  }

  Status tripStatus(const char* site) const {
    std::string where = site ? std::string(" at ") + site : std::string();
    if (tripped_ == StatusCode::kDeadlineExceeded)
      return Status::deadlineExceeded("wall-clock deadline passed" + where);
    return Status::budgetExhausted("resource budget exhausted" + where);
  }

  const ResourceGuard* parent_ = nullptr;
  bool hasDeadline_ = false;
  TimePoint deadline_{};
  std::int64_t conflictLimit_ = -1;  ///< -1: unlimited
  std::int64_t bddNodeLimit_ = -1;
  // Atomic so that worker threads can charge a shared ancestor while the
  // owner polls; everything else on a guard is set up before sharing.
  mutable std::atomic<std::int64_t> conflictsUsed_{0};
  mutable std::atomic<std::int64_t> bddNodesUsed_{0};
  std::atomic<StatusCode> tripped_{StatusCode::kOk};
};

}  // namespace syseco
