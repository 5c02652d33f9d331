#include "eco/certify.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/build_info.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "verify/audit.hpp"
#include "verify/oracle.hpp"
#include "verify/repro.hpp"

namespace syseco {

namespace {

/// Makes the allocator hand memory back before the oracle's fan-out and
/// while it runs. This is the one place the engine touches allocator
/// settings, and only a process that certifies on more than one thread
/// reaches it. glibc slides its mmap and trim thresholds upward each time
/// a large block is freed; with several certifying threads, every thread's
/// arena then keeps tens of MiB of freed BDD tables and simulator words,
/// and peak RSS grows with the thread count rather than with the work. So
/// the first call pins both thresholds at glibc's own starting value
/// (128 KiB) for the rest of the process, which keeps large blocks
/// mmap-backed and lets arenas shrink, and every call returns what the
/// earlier phases left in the arenas.
void releaseMemoryForFanOut() {
#if defined(__GLIBC__)
  static std::once_flag pinned;
  std::call_once(pinned, [] {
    constexpr int kThreshold = 128 * 1024;
    mallopt(M_MMAP_THRESHOLD, kThreshold);
    mallopt(M_TRIM_THRESHOLD, kThreshold);
  });
  malloc_trim(0);
#endif
}

/// Flags output `o`'s report as a quarantined fallback: status kFallback
/// with limit kInternal, the pair that drives the degraded exit code. An
/// output the engine never reported on (a corruption caught on a healthy
/// output) gets a fresh report.
void markQuarantined(const Netlist& w, std::uint32_t o,
                     SysecoDiagnostics& diag) {
  for (OutputReport& r : diag.outputs) {
    if (r.output != o) continue;
    r.status = OutputRectStatus::kFallback;
    r.limit = StatusCode::kInternal;
    return;
  }
  OutputReport report;
  report.output = o;
  report.name = w.outputName(o);
  report.status = OutputRectStatus::kFallback;
  report.limit = StatusCode::kInternal;
  diag.outputs.push_back(std::move(report));
}

/// Packages a disagreement into an atomic repro bundle: the exact
/// netlists, the recorded patch, the seed, the minimized counterexample
/// and the build that produced it. Returns the published directory, or
/// "" when writing failed (the quarantine still proceeds - evidence is
/// best-effort, shipping a wrong patch is not).
std::string writeDisagreementBundle(const Netlist& w,
                                    const PatchTracker& tracker,
                                    const Netlist& spec,
                                    const SysecoOptions& opt,
                                    const OracleDisagreement& d,
                                    const OutputCertificate& cert) {
  auto esc = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
  };
  std::string cexTxt;
  if (d.cex.empty()) {
    cexTxt = "(counterexample unavailable)\n";
  } else {
    for (std::uint32_t i = 0; i < w.numInputs(); ++i)
      cexTxt += w.inputName(i) + " " + (d.cex[i] ? "1" : "0") + "\n";
  }
  std::string patchTxt;
  for (const PatchTracker::RewireRecord& r : tracker.rewires()) {
    patchTxt += (r.sink.isOutput() ? "output " + std::to_string(r.sink.port)
                                   : "gate " + std::to_string(r.sink.gate) +
                                         " pin " +
                                         std::to_string(r.sink.port)) +
                ": net " + std::to_string(r.oldNet) + " -> net " +
                std::to_string(r.newNet) + "\n";
  }
  std::string meta = "{\n";
  meta += "  \"schema_version\": 1,\n";
  meta += "  \"output\": " + std::to_string(d.output) + ",\n";
  meta += "  \"output_name\": \"" + esc(d.name) + "\",\n";
  meta += "  \"seed\": " + std::to_string(opt.seed) + ",\n";
  meta += "  \"verdicts\": {\n";
  meta += std::string("    \"sat\": \"") +
          routeVerdictName(cert.sat.verdict) + "\",\n";
  meta += std::string("    \"bdd\": \"") +
          routeVerdictName(cert.bdd.verdict) + "\",\n";
  meta += std::string("    \"sim\": \"") +
          routeVerdictName(cert.sim.verdict) + "\"\n";
  meta += "  },\n";
  meta += "  \"cex_reproduced\": ";
  meta += cert.cexReproduced ? "true" : "false";
  meta += ",\n";
  meta += "  \"cex_deviations\": " + std::to_string(cert.cexDeviations) +
          ",\n";
  meta += "  \"build\": " + buildInfoJson("  ") + "\n";
  meta += "}\n";
  const std::vector<ReproFile> files{
      {"impl_patched.raw", w.dumpRawString()},
      {"spec.raw", spec.dumpRawString()},
      {"patch.txt", patchTxt},
      {"cex.txt", cexTxt},
      {"meta.json", meta},
  };
  Result<std::string> bundle = writeReproBundle(
      opt.reproDir, "disagreement-o" + std::to_string(d.output), files);
  if (!bundle.isOk()) {
    std::fprintf(stderr, "[syseco] repro bundle write failed: %s\n",
                 bundle.status().toString().c_str());
    return "";
  }
  return bundle.take();
}

}  // namespace

void auditBoundary(const Netlist& w, const SysecoOptions& opt,
                   SysecoDiagnostics& diag, const char* phase) {
  if (opt.audit == AuditLevel::kOff) return;
  AuditReport report = auditNetlist(w, opt.audit, phase);
  diag.secondsAudit += report.seconds;
  diag.audits.push_back(report);
  if (!report.ok) throw StatusError(auditFailure(report));
}

void certifyRun(EcoResult& result, PatchTracker& tracker, const Netlist& spec,
                const SysecoOptions& opt, SysecoDiagnostics& diag) {
  Netlist& w = result.rectified;
  // Deliberate-corruption site (SYSECO_FAULT_INJECT=oracle.wrong-patch=
  // wrong-patch): silently complement the last committed output, the
  // honest simulation of a miscompiled patch the search believed in. Runs
  // after sweep/finalize so nothing downstream can undo it, and picks its
  // victim from the committed reports, which are identical across --jobs,
  // --isolate and --resume.
  if (fault::fire("oracle.wrong-patch") == fault::Kind::kWrongPatch &&
      !diag.outputs.empty()) {
    const std::uint32_t victim = diag.outputs.back().output;
    const NetId bad = w.addGate(GateType::Not, {w.outputNet(victim)});
    w.rewireOutput(victim, bad);
  }

  OracleOptions oopt = opt.oracle;
  // All oracle randomness derives from the run seed so the verdict
  // records are bit-identical across execution modes.
  oopt.seed = opt.seed ^ 0x0bac1e5eedULL;
  const CertificationOracle oracle(w, spec, oopt);

  // Fan-out: the first-pass certificate of every label-matched pair, on
  // up to `jobs` threads, each written to its own slot. The fault-site
  // decisions are drawn here, serially in output order, so a scheduled
  // "oracle.bdd" hit lands on the same output whatever the thread timing.
  //
  // Computing them all up front, before any quarantine below, returns
  // the certificates the one-at-a-time loop would: a quarantine only
  // rewires the refuted output to freshly cloned gates, so no other
  // output's cone changes. The BDD and simulation routes read nothing
  // but the output's own cone and the input list; the SAT route's
  // verdict is a property of that cone pair too (the clones can at most
  // lend its sweep extra equivalence hints). The netlist is not touched
  // until every task has finished.
  struct Pair {
    std::uint32_t o = 0;
    std::uint32_t op = 0;
    std::optional<fault::Kind> bddFault;
    OutputCertificate cert;
  };
  std::vector<Pair> pairs;
  for (std::uint32_t o = 0; o < w.numOutputs(); ++o) {
    const std::uint32_t op = spec.findOutput(w.outputName(o));
    if (op == kNullId) continue;
    Pair p;
    p.o = o;
    p.op = op;
    p.bddFault = CertificationOracle::drawBddFault();
    pairs.push_back(std::move(p));
  }
  // On several threads, largest pairs (impl + spec cone gates) first, so
  // the longest certifications start at once instead of trailing at the
  // end. Threads pull from this shared order; one thread walks the pairs
  // in order.
  const std::size_t width = std::min(opt.jobs, pairs.size());
  std::vector<std::size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (width > 1) {
    std::vector<std::size_t> cost;
    for (const Pair& p : pairs)
      cost.push_back(w.coneGates({w.outputNet(p.o)}).size() +
                     spec.coneGates({spec.outputNet(p.op)}).size());
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cost[a] > cost[b];
                     });
    releaseMemoryForFanOut();
  }
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (std::size_t k; (k = next.fetch_add(1)) < order.size();) {
      Pair& p = pairs[order[k]];
      p.cert = oracle.certify(p.o, p.op, p.bddFault);
    }
  };
  const Timer fanOut;
  {
    // Joined before this scope ends: the forked executor relies on a
    // thread-free process between runs.
    ThreadPool pool(width > 1 ? width : 0);
    std::vector<std::future<void>> drains;
    for (std::size_t t = 0; t < std::max<std::size_t>(width, 1); ++t)
      drains.push_back(pool.submit(drain));
    for (std::future<void>& f : drains) f.get();
  }
  // --report's CPU figures sum across threads: count the fan-out at its
  // summed per-certificate time instead of its wall time.
  double fanOutCpu = 0.0;
  for (const Pair& p : pairs) fanOutCpu += p.cert.seconds();
  diag.secondsVerifyCpu += fanOutCpu - fanOut.seconds();

  // Serial consume, in output order: disagreement records, repro bundles,
  // quarantine and re-certification exactly as one output at a time.
  bool allCertified = true;
  bool anyQuarantine = false;
  diag.certificates.clear();
  for (Pair& p : pairs) {
    const std::uint32_t o = p.o;
    const std::uint32_t op = p.op;
    OutputCertificate cert = std::move(p.cert);
    const bool refuted =
        cert.sat.verdict == RouteVerdict::kNotEquivalent ||
        cert.bdd.verdict == RouteVerdict::kNotEquivalent ||
        cert.sim.verdict == RouteVerdict::kNotEquivalent;
    if (refuted) {
      OracleDisagreement d;
      d.output = o;
      d.name = w.outputName(o);
      d.detail = std::string("sat=") + routeVerdictName(cert.sat.verdict) +
                 " bdd=" + routeVerdictName(cert.bdd.verdict) +
                 " sim=" + routeVerdictName(cert.sim.verdict);
      d.cex = cert.cex;
      if (!opt.reproDir.empty())
        d.bundleDir = writeDisagreementBundle(w, tracker, spec, opt, d, cert);
      std::fprintf(stderr,
                   "[syseco] ORACLE DISAGREEMENT out=%u (%s): %s; "
                   "quarantining to the cone-clone fallback%s%s\n",
                   o, d.name.c_str(), d.detail.c_str(),
                   d.bundleDir.empty() ? "" : "; repro bundle: ",
                   d.bundleDir.c_str());
      // Never ship a refuted output: replace whatever drives it with a
      // fresh clone of its revised cone and prove *that*.
      tracker.rewire(Sink{kNullId, o},
                     tracker.cloneSpecCone(spec, spec.outputNet(op)));
      markQuarantined(w, o, diag);
      anyQuarantine = true;
      if (opt.audit == AuditLevel::kParanoid)
        auditBoundary(w, opt, diag, "post-quarantine");
      cert = oracle.certify(o, op, CertificationOracle::drawBddFault());
      diag.oracleDisagreements.push_back(std::move(d));
    }
    if (!cert.certified) allCertified = false;
    diag.certificates.push_back(std::move(cert));
  }
  if (anyQuarantine) result.stats = tracker.finalize();
  result.success = allCertified;
}

}  // namespace syseco
