// Property tests for dynamic variable reordering (sifting): a reorder must
// preserve every outstanding Ref's function - satCount, ISOP covers,
// pickCube and full-assignment evaluation all agree with a pre-reorder
// clone of the same functions in an untouched manager - and the budget
// contract (BddLimitExceeded, governor ledger semantics) must survive a
// reorder triggered mid-workload.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bdd/bdd.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace syseco {
namespace {

/// Builds the same random function pool in `mgr` via layered random ops.
/// Deterministic in (rng seed, numVars, rounds).
std::vector<Bdd::Ref> buildRandomPool(Bdd& mgr, Rng& rng, std::uint32_t rounds) {
  std::vector<Bdd::Ref> pool;
  for (std::uint32_t v = 0; v < mgr.numVars(); ++v) pool.push_back(mgr.var(v));
  for (std::uint32_t i = 0; i < rounds; ++i) {
    const Bdd::Ref a = pool[rng.next() % pool.size()];
    const Bdd::Ref b = pool[rng.next() % pool.size()];
    const Bdd::Ref c = pool[rng.next() % pool.size()];
    switch (rng.next() % 5) {
      case 0: pool.push_back(mgr.bAnd(a, b)); break;
      case 1: pool.push_back(mgr.bOr(a, b)); break;
      case 2: pool.push_back(mgr.bXor(a, b)); break;
      case 3: pool.push_back(mgr.bNot(a)); break;
      default: pool.push_back(mgr.ite(a, b, c)); break;
    }
  }
  return pool;
}

/// Exhaustive function fingerprint (truth table) of f.
std::vector<bool> truthOf(const Bdd& mgr, Bdd::Ref f) {
  const std::uint32_t n = mgr.numVars();
  std::vector<bool> tt;
  tt.reserve(std::size_t{1} << n);
  std::vector<std::uint8_t> a(n, 0);
  for (std::uint64_t k = 0; k < (1ULL << n); ++k) {
    for (std::uint32_t j = 0; j < n; ++j) a[j] = (k >> j) & 1;
    tt.push_back(mgr.eval(f, a));
  }
  return tt;
}

TEST(BddReorder, SiftPreservesFunctionsAcrossRandomManagers) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rngA(seed), rngB(seed);
    const std::uint32_t numVars = 6 + seed % 5;
    Bdd mgr(numVars);
    Bdd clone(numVars);  // untouched reference manager
    auto pool = buildRandomPool(mgr, rngA, 40);
    auto ref = buildRandomPool(clone, rngB, 40);
    ASSERT_EQ(pool.size(), ref.size());

    // Pre-reorder fingerprints from the clone.
    std::vector<double> counts;
    std::vector<std::size_t> isopSizes;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      counts.push_back(clone.satCount(ref[i]));
      isopSizes.push_back(clone.isop(ref[i]).size());
    }

    const std::size_t live = mgr.reorderNow(pool);
    EXPECT_GT(mgr.stats().reorders, 0u);
    EXPECT_LE(live, mgr.nodeCount());

    for (std::size_t i = 0; i < pool.size(); ++i) {
      // Function identity: exhaustive truth tables agree.
      EXPECT_EQ(truthOf(mgr, pool[i]), truthOf(clone, ref[i]))
          << "seed " << seed << " fn " << i;
      // satCount is order-independent.
      EXPECT_DOUBLE_EQ(mgr.satCount(pool[i]), counts[i]);
      // An ISOP cover taken after the reorder is still a valid cover of
      // the same function (isop() self-checks cover bounds internally)
      // and cube-for-cube evaluates inside the onset.
      const auto cubes = mgr.isop(pool[i]);
      if (counts[i] == 0.0) {
        EXPECT_TRUE(cubes.empty());
      }
      for (const auto& cube : cubes) {
        // Every completion of the cube satisfies the function: check the
        // all-zeros and all-ones completions of the don't-cares.
        for (int fill = 0; fill <= 1; ++fill) {
          std::vector<std::uint8_t> a(numVars, 0);
          for (std::uint32_t v = 0; v < numVars; ++v)
            a[v] = cube.lits[v] >= 0 ? static_cast<std::uint8_t>(cube.lits[v])
                                     : static_cast<std::uint8_t>(fill);
          EXPECT_TRUE(mgr.eval(pool[i], a));
        }
      }
      // pickCube yields a satisfying cube iff the function is satisfiable.
      BddCube cube;
      const bool sat = mgr.pickCube(pool[i], cube);
      EXPECT_EQ(sat, counts[i] > 0.0);
      if (sat) {
        for (int fill = 0; fill <= 1; ++fill) {
          std::vector<std::uint8_t> a(numVars, 0);
          for (std::uint32_t v = 0; v < numVars; ++v)
            a[v] = cube.lits[v] >= 0 ? static_cast<std::uint8_t>(cube.lits[v])
                                     : static_cast<std::uint8_t>(fill);
          EXPECT_TRUE(mgr.eval(pool[i], a));
        }
      }
    }

    // The level/var permutations stay mutually inverse.
    for (std::uint32_t v = 0; v < numVars; ++v)
      EXPECT_EQ(mgr.varAt(mgr.levelOf(v)), v);
  }
}

TEST(BddReorder, ReorderShrinksAnInterleavedComparator) {
  // f = AND_i (a_i == b_i) with interleaving-hostile order a0..a3 b0..b3:
  // the identity order needs exponentially many nodes, the interleaved
  // order is linear - sifting must find (most of) that reduction.
  const std::uint32_t k = 5;
  Bdd mgr(2 * k);
  Bdd::Ref f = Bdd::kTrue;
  for (std::uint32_t i = 0; i < k; ++i)
    f = mgr.bAnd(f, mgr.bXnor(mgr.var(i), mgr.var(k + i)));
  const std::size_t before = mgr.nodeCount();
  const std::size_t live = mgr.reorderNow({f});
  EXPECT_LT(live, before / 2);
  // Function must survive verbatim.
  std::vector<std::uint8_t> a(2 * k, 0);
  EXPECT_TRUE(mgr.eval(f, a));
  a[0] = 1;
  EXPECT_FALSE(mgr.eval(f, a));
  a[k] = 1;
  EXPECT_TRUE(mgr.eval(f, a));
}

TEST(BddReorder, AutoReorderTriggersViaRootProvider) {
  BddConfig cfg;
  cfg.reorder = BddReorder::kSift;
  cfg.reorderThreshold = 64;
  Bdd mgr(12, cfg);
  std::vector<Bdd::Ref> roots;
  mgr.setRootProvider([&](std::vector<Bdd::Ref>& out) {
    out.insert(out.end(), roots.begin(), roots.end());
  });
  Bdd::Ref f = Bdd::kTrue;
  roots.push_back(f);
  for (std::uint32_t i = 0; i < 6; ++i) {
    f = mgr.bAnd(f, mgr.bXnor(mgr.var(i), mgr.var(6 + i)));
    roots.back() = f;
  }
  EXPECT_GT(mgr.stats().reorders, 0u);
  std::vector<std::uint8_t> a(12, 1);
  EXPECT_TRUE(mgr.eval(f, a));
}

TEST(BddReorder, LimitStillFiresUnderTightBudgetMidReorder) {
  // A manager with a node limit small enough to trip during sifting must
  // leave the table consistent: the reorder aborts, outstanding functions
  // stay intact, and the *next* oversized operation still throws.
  BddConfig cfg;
  cfg.nodeLimit = 900;
  Bdd mgr(14, cfg);
  Rng rng(7);
  std::vector<Bdd::Ref> pool;
  try {
    pool = buildRandomPool(mgr, rng, 60);
  } catch (const BddLimitExceeded&) {
    // Pool construction itself may trip; whatever was built is enough.
    for (std::uint32_t v = 0; v < mgr.numVars(); ++v)
      pool.push_back(mgr.var(v));
  }
  std::vector<std::vector<bool>> before;
  for (Bdd::Ref r : pool) before.push_back(truthOf(mgr, r));
  // Reorder near the limit: sift allocations may trip BddLimitExceeded
  // internally; reorderNow absorbs it and stays consistent.
  mgr.reorderNow(pool);
  for (std::size_t i = 0; i < pool.size(); ++i)
    EXPECT_EQ(truthOf(mgr, pool[i]), before[i]);
  // The limit semantics survive: an operation that needs many fresh nodes
  // still reports exhaustion rather than corrupting the table.
  try {
    Bdd::Ref g = Bdd::kFalse;
    for (std::uint64_t i = 0; i < 2000; ++i) {
      std::vector<std::uint64_t> bits{0x9e3779b97f4a7c15ULL * (i + 1)};
      g = mgr.bXor(g, mgr.fromTruthTable(bits, {0, 1, 2, 3, 4, 5}));
    }
  } catch (const BddLimitExceeded&) {
    SUCCEED();
    return;
  }
  FAIL() << "node limit never fired";
}

TEST(BddReorder, GovernorDeadlineUnwindsNotSwallowed) {
  // StatusError{kDeadlineExceeded} must pass through reordering untouched
  // (only BddLimitExceeded is absorbed as shrink-and-retry).
  ResourceGuard guard(ResourceGuard::Limits{.deadlineSeconds = 1e-9});
  BddConfig cfg;
  cfg.reorder = BddReorder::kSift;
  cfg.reorderThreshold = 16;
  Bdd mgr(10, cfg);
  std::vector<Bdd::Ref> roots;
  mgr.setRootProvider([&](std::vector<Bdd::Ref>& out) { out = roots; });
  mgr.setResourceGuard(&guard);
  EXPECT_THROW(
      {
        Bdd::Ref f = Bdd::kTrue;
        for (std::uint32_t i = 0; i < 5; ++i) {
          f = mgr.bAnd(f, mgr.bXnor(mgr.var(i), mgr.var(5 + i)));
          roots.assign(1, f);
        }
      },
      StatusError);
}

TEST(BddReorder, OffModeMatchesLegacyNodeForNode) {
  // reorder=off with any cache sizing must allocate the identical node
  // sequence (Ref values included): the unique table deduplicates, so the
  // cache policy cannot change which nodes exist.
  BddConfig tiny;
  tiny.cacheBits = 4;
  tiny.maxCacheBits = 5;
  Bdd a(9);
  Bdd b(9, tiny);
  Rng ra(42), rb(42);
  const auto pa = buildRandomPool(a, ra, 80);
  const auto pb = buildRandomPool(b, rb, 80);
  ASSERT_EQ(pa.size(), pb.size());
  EXPECT_EQ(a.nodeCount(), b.nodeCount());
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
  EXPECT_GT(b.stats().cacheMisses, 0u);
}

TEST(BddReorder, CompositeOpsSurviveAggressiveAutoReorder) {
  // bXor/bXnor chain two ite steps and mintermOf chains a whole literal
  // product; their intermediates are reachable from no caller-held root.
  // With a reorder armed at every operation boundary, any intermediate
  // that leaks across a boundary gets detached and corrupts the result -
  // the composite ops must therefore run each chain under one scope.
  BddConfig cfg;
  cfg.reorder = BddReorder::kSift;
  cfg.reorderThreshold = 1;
  cfg.reorderGrowth = 1.0;  // re-arm immediately after every reorder
  Bdd mgr(10, cfg);
  Bdd ref(10);  // untouched identity-order reference
  std::vector<Bdd::Ref> roots;
  mgr.setRootProvider([&](std::vector<Bdd::Ref>& out) {
    out.insert(out.end(), roots.begin(), roots.end());
  });
  Rng rngA(5), rngB(5);
  auto pool = buildRandomPool(mgr, rngA, 30);
  auto pref = buildRandomPool(ref, rngB, 30);
  roots = pool;
  for (std::uint32_t i = 0; i < 20; ++i) {
    const std::size_t x = i % pool.size();
    const std::size_t y = (i * 7 + 3) % pool.size();
    Bdd::Ref r;
    Bdd::Ref rr;
    switch (i % 3) {
      case 0:
        r = mgr.bXor(pool[x], pool[y]);
        rr = ref.bXor(pref[x], pref[y]);
        break;
      case 1:
        r = mgr.bXnor(pool[x], pool[y]);
        rr = ref.bXnor(pref[x], pref[y]);
        break;
      default: {
        const std::vector<std::uint32_t> vars{0, 3, 5, 7};
        r = mgr.mintermOf(i % 16, vars);
        rr = ref.mintermOf(i % 16, vars);
        break;
      }
    }
    pool.push_back(r);
    pref.push_back(rr);
    roots = pool;
    EXPECT_EQ(truthOf(mgr, r), truthOf(ref, rr)) << "op " << i;
  }
  EXPECT_GT(mgr.stats().reorders, 0u);
}

}  // namespace
}  // namespace syseco
