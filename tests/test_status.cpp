// Unit tests for the resource-governor primitives: Status/Result,
// ResourceGuard budgets + hierarchy, and the fault-injection hook.

#include <gtest/gtest.h>

#include <thread>

#include "util/budget.hpp"
#include "util/fault.hpp"
#include "util/status.hpp"

namespace syseco {
namespace {

class StatusTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::instance().reset(); }
  void TearDown() override { fault::Injector::instance().reset(); }
};

TEST_F(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.isOk());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_FALSE(s.isResourceExhausted());
  EXPECT_EQ(s.toString(), "ok");
}

TEST_F(StatusTest, FactoriesCarryCodeAndMessage) {
  const Status b = Status::budgetExhausted("sat ledger dry");
  EXPECT_EQ(b.code(), StatusCode::kBudgetExhausted);
  EXPECT_TRUE(b.isResourceExhausted());
  EXPECT_EQ(b.toString(), "budget-exhausted: sat ledger dry");

  const Status d = Status::deadlineExceeded("too slow");
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(d.isResourceExhausted());

  const Status i = Status::invalidInput("bad file");
  EXPECT_EQ(i.code(), StatusCode::kInvalidInput);
  EXPECT_FALSE(i.isResourceExhausted());

  const Status n = Status::internal("oops");
  EXPECT_EQ(n.code(), StatusCode::kInternal);
}

TEST_F(StatusTest, StatusErrorRoundTrips) {
  try {
    throw StatusError(Status::deadlineExceeded("boom"));
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_STREQ(e.what(), "deadline-exceeded: boom");
  }
}

TEST_F(StatusTest, ResultHoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.isOk());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.take(), 42);

  Result<int> bad(Status::invalidInput("nope"));
  EXPECT_FALSE(bad.isOk());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidInput);
  EXPECT_EQ(bad.valueOr(7), 7);
}

// --- ResourceGuard ----------------------------------------------------------

TEST_F(StatusTest, UnlimitedGuardNeverTrips) {
  ResourceGuard g;
  g.chargeConflicts(1'000'000);
  g.chargeBddNodes(1'000'000);
  EXPECT_TRUE(g.checkpoint().isOk());
  EXPECT_FALSE(g.exhausted());
  EXPECT_EQ(g.remainingConflicts(), -1);
  EXPECT_GT(g.remainingSeconds(), 1e17);
}

TEST_F(StatusTest, ConflictBudgetTripsAndLatches) {
  ResourceGuard g(ResourceGuard::Limits{0.0, 100, 0});
  g.chargeConflicts(99);
  EXPECT_TRUE(g.checkpoint().isOk());
  EXPECT_EQ(g.remainingConflicts(), 1);
  g.chargeConflicts(1);
  const Status s = g.checkpoint("test.site");
  EXPECT_EQ(s.code(), StatusCode::kBudgetExhausted);
  // Latched: it keeps reporting the same code.
  EXPECT_EQ(g.checkpoint().code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(g.trippedCode(), StatusCode::kBudgetExhausted);
  EXPECT_TRUE(g.exhausted());
}

TEST_F(StatusTest, BddNodeBudgetTrips) {
  ResourceGuard g(ResourceGuard::Limits{0.0, 0, 50});
  g.chargeBddNodes(50);
  EXPECT_EQ(g.checkpoint().code(), StatusCode::kBudgetExhausted);
}

TEST_F(StatusTest, DeadlineTrips) {
  ResourceGuard g(ResourceGuard::Limits{1e-9, 0, 0});
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(g.checkpoint().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(g.remainingSeconds(), 0.0);
}

TEST_F(StatusTest, ChildChargesPropagateToParent) {
  ResourceGuard parent(ResourceGuard::Limits{0.0, 100, 0});
  ResourceGuard child(ResourceGuard::Limits{0.0, 51, 0}, &parent);
  EXPECT_EQ(child.remainingConflicts(), 51);
  child.chargeConflicts(30);
  EXPECT_EQ(parent.conflictsUsed(), 30);
  EXPECT_EQ(child.conflictsUsed(), 30);
  EXPECT_TRUE(parent.checkpoint().isOk());
}

TEST_F(StatusTest, ChildTripsBeforeParent) {
  ResourceGuard parent(ResourceGuard::Limits{0.0, 100, 0});
  ResourceGuard child(ResourceGuard::Limits{0.0, 26, 0}, &parent);
  child.chargeConflicts(30);
  EXPECT_EQ(child.checkpoint().code(), StatusCode::kBudgetExhausted);
  EXPECT_TRUE(parent.checkpoint().isOk());  // parent still has headroom
}

TEST_F(StatusTest, ParentExhaustionTripsChild) {
  ResourceGuard parent(ResourceGuard::Limits{0.0, 100, 0});
  parent.chargeConflicts(100);
  ResourceGuard child(ResourceGuard::Limits{}, &parent);
  EXPECT_EQ(child.checkpoint().code(), StatusCode::kBudgetExhausted);
}

TEST_F(StatusTest, ChildDeadlineTripsBeforeParent) {
  ResourceGuard parent;  // no deadline of its own
  ResourceGuard child(ResourceGuard::Limits{1e-9, 0, 0}, &parent);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(child.checkpoint().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(parent.checkpoint().isOk());
}

// --- Fault injection --------------------------------------------------------

TEST_F(StatusTest, InjectorFiresArmedSite) {
  auto& inj = fault::Injector::instance();
  inj.arm("unit.site", fault::Kind::kBddBlowup);
  const auto k = fault::fire("unit.site");
  ASSERT_TRUE(k.has_value());
  EXPECT_EQ(*k, fault::Kind::kBddBlowup);
  EXPECT_FALSE(fault::fire("other.site").has_value());
  // Persistent: keeps firing once armed.
  EXPECT_TRUE(fault::fire("unit.site").has_value());
}

TEST_F(StatusTest, InjectorHonorsSkipCount) {
  auto& inj = fault::Injector::instance();
  inj.arm("unit.skip", fault::Kind::kBudgetExhausted, /*skip=*/2);
  EXPECT_FALSE(fault::fire("unit.skip").has_value());
  EXPECT_FALSE(fault::fire("unit.skip").has_value());
  EXPECT_TRUE(fault::fire("unit.skip").has_value());
  EXPECT_TRUE(fault::fire("unit.skip").has_value());
}

TEST_F(StatusTest, InjectorParsesEnvironmentSyntax) {
  auto& inj = fault::Injector::instance();
  EXPECT_TRUE(inj.configure("a.site=budget,b.site=bdd@1"));
  ASSERT_TRUE(fault::fire("a.site").has_value());
  EXPECT_EQ(*fault::fire("a.site"), fault::Kind::kBudgetExhausted);
  EXPECT_FALSE(fault::fire("b.site").has_value());  // skipping first hit
  ASSERT_TRUE(fault::fire("b.site").has_value());
  EXPECT_EQ(*fault::fire("b.site"), fault::Kind::kBddBlowup);

  inj.reset();
  EXPECT_FALSE(inj.configure("broken-clause"));
  EXPECT_FALSE(inj.configure("a.site=unknown-kind"));
  EXPECT_TRUE(inj.empty());
}

TEST_F(StatusTest, GuardCheckpointMapsInjectedFaults) {
  auto& inj = fault::Injector::instance();
  inj.arm("guard.site", fault::Kind::kDeadlineExceeded);
  ResourceGuard g;  // unlimited, but the fault still trips it
  EXPECT_EQ(g.checkpoint("guard.site").code(),
            StatusCode::kDeadlineExceeded);
  // Latched even after the injector is cleared.
  inj.reset();
  EXPECT_EQ(g.checkpoint("guard.site").code(),
            StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace syseco
