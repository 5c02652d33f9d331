#pragma once
// Shared gtest assertions for the certification oracle's per-run output:
// two runs of the same case must produce the same certificates and the
// same disagreements, field for field. Only wall-clock fields (the route
// and minimization seconds) and the repro bundle's location may differ.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "verify/oracle.hpp"

namespace syseco {

inline void expectSameRoute(const RouteResult& a, const RouteResult& b,
                            const char* route, std::size_t i) {
  EXPECT_EQ(a.verdict, b.verdict) << "certificate " << i << " " << route;
  EXPECT_EQ(a.detail, b.detail) << "certificate " << i << " " << route;
}

inline void expectSameCertificates(const std::vector<OutputCertificate>& a,
                                   const std::vector<OutputCertificate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const OutputCertificate& x = a[i];
    const OutputCertificate& y = b[i];
    EXPECT_EQ(x.output, y.output) << "certificate " << i;
    EXPECT_EQ(x.name, y.name) << "certificate " << i;
    expectSameRoute(x.sat, y.sat, "sat", i);
    expectSameRoute(x.bdd, y.bdd, "bdd", i);
    expectSameRoute(x.sim, y.sim, "sim", i);
    EXPECT_EQ(x.certified, y.certified) << "certificate " << i;
    EXPECT_EQ(x.routesConflict, y.routesConflict) << "certificate " << i;
    EXPECT_EQ(x.cex, y.cex) << "certificate " << i;
    EXPECT_EQ(x.cexDeviations, y.cexDeviations) << "certificate " << i;
    EXPECT_EQ(x.cexReproduced, y.cexReproduced) << "certificate " << i;
    const BddStats& s = x.bddStats;
    const BddStats& t = y.bddStats;
    EXPECT_EQ(s.cacheHits, t.cacheHits) << "certificate " << i;
    EXPECT_EQ(s.cacheMisses, t.cacheMisses) << "certificate " << i;
    EXPECT_EQ(s.cacheEvictions, t.cacheEvictions) << "certificate " << i;
    EXPECT_EQ(s.cacheGrows, t.cacheGrows) << "certificate " << i;
    EXPECT_EQ(s.uniqueHits, t.uniqueHits) << "certificate " << i;
    EXPECT_EQ(s.reorders, t.reorders) << "certificate " << i;
    EXPECT_EQ(s.swaps, t.swaps) << "certificate " << i;
    EXPECT_EQ(s.peakNodes, t.peakNodes) << "certificate " << i;
    EXPECT_EQ(s.cacheBitsNow, t.cacheBitsNow) << "certificate " << i;
  }
}

inline void expectSameDisagreements(
    const std::vector<OracleDisagreement>& a,
    const std::vector<OracleDisagreement>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].output, b[i].output) << "disagreement " << i;
    EXPECT_EQ(a[i].name, b[i].name) << "disagreement " << i;
    EXPECT_EQ(a[i].detail, b[i].detail) << "disagreement " << i;
    EXPECT_EQ(a[i].cex, b[i].cex) << "disagreement " << i;
    EXPECT_EQ(a[i].bundleDir.empty(), b[i].bundleDir.empty())
        << "disagreement " << i;
  }
}

}  // namespace syseco
