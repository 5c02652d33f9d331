// perfbench: runs one workload of the syseco benchmark and prints its
// metrics as the last line of standard output.
//
//   perfbench --workload search|certify|service --seed N --seconds S
//             --trace 0|1 --cli PATH --work DIR
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   search   eco02, eco05, eco10 through in-process runSyseco at jobs = 4;
//            the per-output search dominates.
//   certify  eco11, eco12, eco14, eco15, same settings; the certification
//            oracle dominates.
//   service  `syseco_cli --serve` with a pool of 3, driven by a closed loop
//            of 3 ServeClient connections over a fixed population of 100
//            eco02-shaped single-mutation cases sent as BLIF text.
//
// The seed never reaches the program. Case difficulty across recipe seeds
// is heavy-tailed, and even the engine seed alone moves search's wall time
// by 40 % and its peak memory by 60 % (see README.md), so every workload
// runs fixed circuits at the engine's default seed. The seed drives the
// gate's simulation patterns and, for service, the order in which the
// population is submitted. Seed 0 submits in population order.
//
// Every result is checked outside the timed region by the benchmark's own
// gate (gate.hpp), and every rectified netlist is hashed with its patch
// statistics: hashes must agree across passes, across runs with the same
// seed and binaries (kept under --work), and, in the traced run, between
// jobs = 4 and jobs = 1. Any violation prints "correct": false and exits 1.
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every call into a layer, prints per-case rows and the per-layer metrics,
// and writes the spans to DIR/trace-<workload>-<seed>.jsonl.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cnf/encode.hpp"
#include "eco/syseco.hpp"
#include "gate.hpp"
#include "gen/eco_case.hpp"
#include "io/blif_io.hpp"
#include "io/journal_io.hpp"
#include "serve/serve.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace syseco;

constexpr std::size_t kJobs = 4;          // engine threads, in-process runs
constexpr int kSetupReps = 7;             // in-process set-ups per run
constexpr int kServeSetupReps = 5;        // service set-ups per run
constexpr std::size_t kServeJobs = 100;   // population; 10 jobs beyond p90
constexpr std::size_t kServeClients = 3;  // closed-loop connections
constexpr int kServePool = 3;             // daemon job workers
constexpr int kPollMs = 5;                // ServeClient::wait poll interval
constexpr double kServeDeadline = 150.0;  // stop issuing jobs after this

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (b * 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  }
  void add(std::uint64_t v) { add(std::to_string(v) + "|"); }
};

std::uint64_t digestOf(const Netlist& rectified, std::size_t gates,
                       std::size_t nets, std::size_t fallbacks) {
  Fnv f;
  f.add(rectified.dumpRawString());
  f.add(gates);
  f.add(nets);
  f.add(fallbacks);
  return f.h;
}

std::uint64_t fileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  Fnv f;
  f.add(ss.str());
  return f.h;
}

/// Linear-interpolation quantile (numpy's default); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Usage {
  double cpuSeconds = 0.0;
  double maxRssMb = 0.0;
};

Usage usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime) + sec(ru.ru_stime),
          static_cast<double>(ru.ru_maxrss) / 1024.0};
}

/// Ordered name -> (value, unit) list printed as the result's "metrics".
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", rows_[i].value);
      out += (i ? ", \"" : "\"") + rows_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;
  std::string work;
};

// --- Cases ------------------------------------------------------------------

CaseRecipe recipeNamed(const std::string& name) {
  std::vector<CaseRecipe> all = suiteRecipes();
  for (CaseRecipe& r : timingRecipes()) all.push_back(std::move(r));
  for (CaseRecipe& r : all)
    if (r.name == name) return r;
  throw std::runtime_error("no recipe named " + name);
}

/// One generated case and its BLIF round trip. In-process runs hand the
/// engine the generated netlists; service jobs carry the BLIF text, so the
/// engine behind the daemon sees the netlists as read back (BLIF covers
/// re-expand XOR-rich logic, which makes them larger).
struct Prepared {
  std::string name;
  Netlist impl;
  Netlist spec;
  std::string implBlif;
  std::string specBlif;
  Netlist implRead;
  Netlist specRead;
};

Netlist readBack(const std::string& text) {
  std::istringstream in(text);
  Result<Netlist> r = readBlifChecked(in);
  if (!r.isOk())
    throw std::runtime_error("BLIF round trip failed: " +
                             r.status().toString());
  return std::move(r.value());
}

std::vector<Prepared> prepare(const std::vector<CaseRecipe>& recipes,
                              Tracer& tracer) {
  std::vector<Prepared> cases;
  for (std::size_t k = 0; k < recipes.size(); ++k) {
    ScopedSpan span(tracer, "bench.prepare_case", k + 1);
    EcoCase c;
    {
      ScopedSpan s(tracer, "gen.make_case");
      c = makeCase(recipes[k]);
    }
    Prepared p;
    p.name = c.name;
    p.impl = std::move(c.impl);
    p.spec = std::move(c.spec);
    {
      ScopedSpan s(tracer, "io.blif_write");
      std::ostringstream impl, spec;
      writeBlif(impl, p.impl);
      writeBlif(spec, p.spec);
      p.implBlif = impl.str();
      p.specBlif = spec.str();
    }
    {
      ScopedSpan s(tracer, "io.blif_read");
      p.implRead = readBack(p.implBlif);
      p.specRead = readBack(p.specBlif);
    }
    if (p.implRead.numOutputs() != p.impl.numOutputs() ||
        p.specRead.numOutputs() != p.spec.numOutputs())
      throw std::runtime_error(p.name + ": BLIF round trip lost outputs");
    cases.push_back(std::move(p));
  }
  return cases;
}

// --- Engine runs ------------------------------------------------------------

struct CaseRun {
  double wall = 0.0;
  double cpu = 0.0;
  double findFailing = 0.0;
  EcoResult result;
  SysecoDiagnostics diag;
  std::size_t fallbacks = 0;  ///< outputs the report marks "fallback"
  std::uint64_t digest = 0;
};

CaseRun runCase(const Netlist& impl, const Netlist& spec,
                const SysecoOptions& opt, Tracer& tracer, std::uint64_t trace) {
  CaseRun r;
  ScopedSpan span(tracer, "bench.case", trace);
  if (tracer.enabled()) {
    // The engine's serial first step, timed from outside.
    ScopedSpan s(tracer, "cnf.find_failing");
    const Clock::time_point t0 = Clock::now();
    Rng rng(opt.seed);
    findFailingOutputs(impl, spec, rng);
    r.findFailing = since(t0);
  }
  // jobs = 1 runs inline on the calling thread, so its CPU is the thread's
  // even while other threads run other cases; jobs > 1 runs alone.
  const int who = opt.jobs == 1 ? RUSAGE_THREAD : RUSAGE_SELF;
  const double cpu0 = usage(who).cpuSeconds;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan s(tracer, "eco.run_syseco");
    r.result = runSyseco(impl, spec, opt, &r.diag);
  }
  r.wall = since(t0);
  r.cpu = usage(who).cpuSeconds - cpu0;
  for (const OutputReport& o : r.diag.outputs)
    if (o.status == OutputRectStatus::kFallback) ++r.fallbacks;
  r.digest = digestOf(r.result.rectified, r.result.stats.gates,
                      r.result.stats.nets, r.fallbacks);
  return r;
}

/// The engine's phase timers (CPU summed across workers), verify excluded.
double phaseSeconds(const SysecoDiagnostics& d) {
  return d.secondsSampling + d.secondsSymbolic + d.secondsScreening +
         d.secondsValidation + d.secondsFallback + d.secondsSweep;
}

// --- Correctness bookkeeping --------------------------------------------------

class Failures {
 public:
  void add(const std::string& what, const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(stderr, "FAIL %s: %s\n", what.c_str(), why.c_str());
    failed_.insert({what, why});
  }
  std::size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_.size();
  }

 private:
  mutable std::mutex mu_;  // guards failed_
  std::map<std::string, std::string> failed_;
};

/// Requires the gate to reject a deliberately broken netlist, so a gate
/// that passes everything cannot go unnoticed.
bool gateRejectsBroken(const Netlist& spec) {
  Tracer off(false);
  const GateVerdict v = checkAgainstSpec(breakFirstOutput(spec), spec, 1, off);
  if (!v.ok)
    std::fprintf(stderr, "gate self-check: broken netlist rejected (%s)\n",
                 v.detail.c_str());
  return !v.ok;
}

/// Compares this run's per-case digests with those an earlier run of the
/// same workload, seed and binaries left under `dir`, or records them.
void checkDigestsAcrossRuns(const std::string& dir, const std::string& key,
                            const std::vector<std::string>& names,
                            const std::vector<std::uint64_t>& digests,
                            Failures& failures) {
  fs::create_directories(dir);
  const std::string path = dir + "/" + key + ".txt";
  std::ostringstream now;
  for (std::size_t k = 0; k < names.size(); ++k)
    now << names[k] << ' ' << std::hex << digests[k] << '\n';
  std::ifstream in(path);
  if (in) {
    std::ostringstream before;
    before << in.rdbuf();
    if (before.str() != now.str())
      failures.add("determinism", "digests differ from an earlier run (" +
                                      path + ")");
    return;
  }
  const std::string tmp = path + ".tmp";
  std::ofstream(tmp) << now.str();
  fs::rename(tmp, path);
}

// --- Per-layer metrics ----------------------------------------------------------

struct LayerInputs {
  const Tracer* tracer = nullptr;
  int setupReps = 1;
  std::vector<const CaseRun*> engine;  ///< one entry per engine run
  double simSeconds = 0.0;
  double gateEvaluations = 0.0;
  std::vector<double> submitRtt, engineWall, overhead;
  double rejected = 0.0;
  double failedRatio = 0.0;
};

void addLayerMetrics(Metrics& m, const LayerInputs& in) {
  const Tracer& t = *in.tracer;
  const double reps = static_cast<double>(in.setupReps);
  m.add("gen.make_case_s", t.seconds("gen.make_case") / reps, "s");
  m.add("io.blif_write_s", t.seconds("io.blif_write") / reps, "s");
  m.add("io.blif_read_s", t.seconds("io.blif_read") / reps, "s");

  double findFailing = 0, sampling = 0, symbolic = 0, screening = 0,
         validation = 0, fallback = 0, sweep = 0, unattributed = 0;
  double conflicts = 0, bddNodes = 0, validated = 0, refuted = 0,
         screenRejected = 0, refine = 0, rewired = 0, viaFallback = 0,
         merges = 0, isopSaved = 0;
  double verifyWall = 0, satRoute = 0, bddRoute = 0, simRoute = 0,
         bddSkips = 0, bddDecided = 0, certs = 0, peakNodes = 0, hits = 0,
         lookups = 0, reorders = 0;
  for (const CaseRun* r : in.engine) {
    const SysecoDiagnostics& d = r->diag;
    findFailing += r->findFailing;
    sampling += d.secondsSampling;
    symbolic += d.secondsSymbolic;
    screening += d.secondsScreening;
    validation += d.secondsValidation;
    fallback += d.secondsFallback;
    sweep += d.secondsSweep;
    unattributed += r->cpu - phaseSeconds(d) - d.secondsVerify;
    conflicts += static_cast<double>(d.conflictsUsed);
    bddNodes += static_cast<double>(d.bddNodesUsed);
    validated += static_cast<double>(d.candidatesValidated);
    refuted += static_cast<double>(d.candidatesRefuted);
    screenRejected += static_cast<double>(d.candidatesScreenRejected);
    refine += static_cast<double>(d.refinementRounds);
    rewired += static_cast<double>(d.outputsViaRewire);
    viaFallback += static_cast<double>(d.outputsViaFallback);
    merges += static_cast<double>(d.sweepMerges);
    isopSaved += static_cast<double>(d.isopGatesSaved);
    verifyWall += d.secondsVerify;
    for (const OutputCertificate& c : d.certificates) {
      satRoute += c.sat.seconds;
      bddRoute += c.bdd.seconds;
      simRoute += c.sim.seconds;
      certs += 1;
      if (c.bdd.verdict == RouteVerdict::kSkippedBudget) bddSkips += 1;
      if (c.bdd.verdict == RouteVerdict::kEquivalent ||
          c.bdd.verdict == RouteVerdict::kNotEquivalent)
        bddDecided += 1;
      peakNodes = std::max(peakNodes,
                           static_cast<double>(c.bddStats.peakNodes));
      hits += static_cast<double>(c.bddStats.cacheHits);
      lookups += static_cast<double>(c.bddStats.cacheHits +
                                     c.bddStats.cacheMisses);
      reorders += static_cast<double>(c.bddStats.reorders);
    }
  }
  m.add("cnf.find_failing_s", findFailing, "s");
  m.add("sat.check_s", t.seconds("sat.check_output"), "s");
  m.add("sim.gate_evals_per_s",
        in.simSeconds > 0 ? in.gateEvaluations / in.simSeconds : 0.0, "1/s");
  m.add("eco.sampling_s", sampling, "s");
  m.add("eco.symbolic_s", symbolic, "s");
  m.add("eco.screening_s", screening, "s");
  m.add("eco.validation_s", validation, "s");
  m.add("eco.fallback_s", fallback, "s");
  m.add("eco.sweep_s", sweep, "s");
  m.add("eco.unattributed_cpu_s", unattributed, "s");
  m.add("eco.sat_conflicts", conflicts, "count");
  m.add("eco.bdd_nodes", bddNodes, "count");
  m.add("eco.candidates_validated", validated, "count");
  m.add("eco.validation_yield",
        validated > 0 ? (validated - refuted) / validated : 0.0, "fraction");
  m.add("eco.screen_rejected", screenRejected, "count");
  m.add("eco.refine_rounds", refine, "count");
  m.add("eco.outputs_rewired", rewired, "count");
  m.add("eco.outputs_fallback", viaFallback, "count");
  m.add("eco.sweep_merges", merges, "count");
  m.add("eco.isop_gates_saved", isopSaved, "count");
  m.add("verify.wall_s", verifyWall, "s");
  m.add("verify.sat_route_s", satRoute, "s");
  m.add("verify.bdd_route_s", bddRoute, "s");
  m.add("verify.sim_route_s", simRoute, "s");
  m.add("verify.bdd_budget_skips", bddSkips, "count");
  m.add("verify.bdd_decided_ratio", certs > 0 ? bddDecided / certs : 0.0,
        "fraction");
  m.add("verify.bdd_peak_nodes", peakNodes, "count");
  m.add("verify.bdd_cache_hit_rate", lookups > 0 ? hits / lookups : 0.0,
        "fraction");
  m.add("verify.bdd_reorders", reorders, "count");
  m.add("serve.submit_rtt_p50_s", median(in.submitRtt), "s");
  m.add("serve.engine_p50_s", median(in.engineWall), "s");
  m.add("serve.overhead_p50_s", median(in.overhead), "s");
  m.add("serve.rejected", in.rejected, "count");

  // Self time per layer. The verify layer runs inside runSyseco, so its
  // self time is the engine's own verify timer, moved out of eco's span.
  std::map<std::string, double> self = t.layerSelfSeconds();
  self["eco"] -= verifyWall;
  self["verify"] += verifyWall;
  for (const char* layer :
       {"gen", "io", "cnf", "sat", "sim", "eco", "verify", "serve"})
    m.add(std::string(layer) + ".self_s", self[layer], "s");
  m.add("trace.overhead_s", t.overheadSeconds(), "s");
  m.add("failed_ratio", in.failedRatio, "fraction");
}

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const Metrics& m) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", attempted, failed, m.json().c_str());
  std::fflush(stdout);
}

void writeTrace(const Tracer& tracer, const Args& a) {
  const std::string path = a.work + "/trace-" + a.workload + "-" +
                           std::to_string(a.seed) + ".jsonl";
  if (tracer.writeJsonLines(path))
    std::printf("trace: %zu spans written to %s\n", tracer.size(),
                path.c_str());
  else
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
}

std::string binariesKey(const Args& a) {
  Fnv f;
  f.add(fileDigest("/proc/self/exe"));
  f.add(fileDigest(a.cli));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(f.h));
  return a.workload + "-" + std::to_string(a.seed) + "-" + buf;
}

// --- search / certify ---------------------------------------------------------

int runInProcess(const Args& a, const std::vector<std::string>& names) {
  Tracer tracer(a.trace);
  std::vector<CaseRecipe> recipes;
  for (const std::string& n : names) recipes.push_back(recipeNamed(n));
  SysecoOptions opt;
  opt.jobs = kJobs;

  std::vector<double> setupTimes;
  std::vector<Prepared> cases;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ScopedSpan span(tracer, "bench.setup");
    const Clock::time_point t0 = Clock::now();
    cases = prepare(recipes, tracer);
    setupTimes.push_back(since(t0));
  }
  if (!gateRejectsBroken(cases.front().spec)) {
    std::fprintf(stderr, "error: the gate accepted a broken netlist\n");
    return 1;
  }

  // Timed region: whole passes over the cases while the next pass is
  // expected to fit into --seconds; always at least one.
  std::vector<std::vector<CaseRun>> passes;
  const Clock::time_point window = Clock::now();
  std::vector<double> passCpu;
  double lastPass = 0.0;
  do {
    ScopedSpan span(tracer, "bench.pass");
    const double passCpu0 = usage(RUSAGE_SELF).cpuSeconds;
    std::vector<CaseRun> pass;
    for (std::size_t k = 0; k < cases.size(); ++k) {
      pass.push_back(
          runCase(cases[k].impl, cases[k].spec, opt, tracer, k + 1));
      std::fprintf(stderr, "%s: %.3f s\n", cases[k].name.c_str(),
                   pass.back().wall);
    }
    passCpu.push_back(usage(RUSAGE_SELF).cpuSeconds - passCpu0);
    lastPass = 0.0;
    for (const CaseRun& r : pass) lastPass += r.wall;
    passes.push_back(std::move(pass));
  } while (since(window) + lastPass <= a.seconds);
  const double peakRssMb = usage(RUSAGE_SELF).maxRssMb;

  // Correctness and determinism, outside the timed region.
  Failures failures;
  LayerInputs layers;
  std::vector<std::uint64_t> digests;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const CaseRun& first = passes.front()[k];
    digests.push_back(first.digest);
    if (!first.result.success) failures.add(cases[k].name, "engine failed");
    for (const auto& pass : passes)
      if (pass[k].digest != first.digest)
        failures.add(cases[k].name, "digest differs between passes");
    ScopedSpan span(tracer, "bench.gate", k + 1);
    const GateVerdict g = checkAgainstSpec(first.result.rectified,
                                           cases[k].spec, a.seed, tracer);
    if (!g.ok) failures.add(cases[k].name, g.detail);
    layers.simSeconds += g.simSeconds;
    layers.gateEvaluations += g.gateEvaluations;
  }
  checkDigestsAcrossRuns(a.work + "/digests", binariesKey(a), names, digests,
                         failures);

  Metrics m;
  std::vector<double> walls, latencies;
  double patchGates = 0, patchNets = 0, fallbacks = 0;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    double wall = 0.0;
    for (const CaseRun& r : passes[p]) {
      wall += r.wall;
      latencies.push_back(r.wall);
    }
    walls.push_back(wall);
  }
  for (const CaseRun& r : passes.front()) {
    patchGates += static_cast<double>(r.result.stats.gates);
    patchNets += static_cast<double>(r.result.stats.nets);
    fallbacks += static_cast<double>(r.fallbacks);
  }
  double totalWall = 0.0;
  for (double w : walls) totalWall += w;
  const std::size_t attempted = cases.size() * passes.size();
  const std::size_t failed = std::min(failures.count(), attempted);

  if (!a.trace) {
    m.add("wall_s", median(walls), "s");
    m.add("cpu_s", median(passCpu), "s");
    m.add("peak_rss_mb", peakRssMb, "MiB");
    m.add("setup_s", median(setupTimes), "s");
    m.add("patch_gates", patchGates, "count");
    m.add("patch_nets", patchNets, "count");
    m.add("fallback_outputs", fallbacks, "count");
    m.add("jobs_per_s", static_cast<double>(attempted) / totalWall, "1/s");
    m.add("job_latency_p50_s", quantile(latencies, 0.5), "s");
    m.add("job_latency_p90_s", quantile(latencies, 0.9), "s");
    printResult(failures.count() == 0, attempted, failed, m);
    return failures.count() == 0 ? 0 : 1;
  }

  // Traced run: jobs = 1 must reproduce the jobs = 4 netlists bit for bit.
  {
    Tracer off(false);
    SysecoOptions serial = opt;
    serial.jobs = 1;
    for (std::size_t k = 0; k < cases.size(); ++k)
      if (runCase(cases[k].impl, cases[k].spec, serial, off, 0).digest !=
          digests[k])
        failures.add(cases[k].name, "jobs = 1 and jobs = 4 differ");
  }
  std::printf("%-8s %10s %13s %11s %16s\n", "case", "wall_s", "verify_share",
              "patch_gates", "fallback_outputs");
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const CaseRun& r = passes.front()[k];
    layers.engine.push_back(&r);
    std::printf("%-8s %10.3f %13.3f %11zu %16zu\n", cases[k].name.c_str(),
                r.wall, r.wall > 0 ? r.diag.secondsVerify / r.wall : 0.0,
                r.result.stats.gates, r.fallbacks);
  }
  double wallSum = 0, cpuSum = 0, phases = 0, verify = 0;
  for (const CaseRun& r : passes.front()) {
    wallSum += r.wall;
    cpuSum += r.cpu;
    phases += phaseSeconds(r.diag);
    verify += r.diag.secondsVerify;
  }
  std::printf("share verify.wall_s/wall_s %.3f\n", verify / wallSum);
  std::printf("share eco_phases/cpu_s %.3f\n", phases / cpuSum);
  std::printf("share (eco_phases+eco.unattributed_cpu_s)/cpu_s %.3f\n",
              (cpuSum - verify) / cpuSum);
  layers.tracer = &tracer;
  layers.setupReps = kSetupReps;
  layers.failedRatio = static_cast<double>(std::min(failures.count(),
                                                    attempted)) /
                       static_cast<double>(attempted);
  addLayerMetrics(m, layers);
  writeTrace(tracer, a);
  printResult(failures.count() == 0, attempted,
              std::min(failures.count(), attempted), m);
  return failures.count() == 0 ? 0 : 1;
}

// --- service ------------------------------------------------------------------

/// A `syseco_cli --serve` daemon on a kernel-assigned port. The destructor
/// stops it and waits for it, so no path leaves it running.
class Daemon {
 public:
  Daemon(const std::string& cli, const std::string& stateDir) {
    const std::string portFile = stateDir + ".port";
    const std::string log = stateDir + ".log";
    const std::string pool = std::to_string(kServePool);
    const char* argv[] = {cli.c_str(),     "--serve",        "0",
                          "--serve-state", stateDir.c_str(), "--serve-pool",
                          pool.c_str(),    "--port-file",    portFile.c_str(),
                          nullptr};
    fs::remove(portFile);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      ::execv(cli.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    // Up once the port file names a port that accepts connections.
    const Clock::time_point t0 = Clock::now();
    while (since(t0) < 30.0) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("daemon exited during start-up; see " + log);
      }
      std::ifstream in(portFile);
      unsigned port = 0;
      if (in >> port && port > 0 && port < 65536) {
        if (serve::ServeClient::connect("127.0.0.1",
                                        static_cast<std::uint16_t>(port), 1000)
                .isOk()) {
          port_ = static_cast<std::uint16_t>(port);
          return;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop();
    throw std::runtime_error("daemon did not start accepting; see " + log);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }

  /// SIGTERM (a clean drain), SIGKILL after a grace period; always reaps.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const Clock::time_point t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (since(t0) > 20.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

struct Job {
  std::size_t index = 0;
  std::size_t caseIndex = 0;
  double submitRtt = 0.0;
  double latency = 0.0;
  bool accepted = false;
  serve::JobState state;
};

struct JobCheck {
  std::size_t gates = 0, nets = 0, fallbacks = 0;
  std::uint64_t digest = 0;
};

/// Reads a finished job's delivered report and netlist; the gate re-proves
/// the netlist against the case's spec.
JobCheck checkJob(const Job& j, const Prepared& c, std::uint64_t seed,
                  Tracer& tracer, LayerInputs& layers, Failures& failures) {
  JobCheck out;
  const std::string what = "job " + std::to_string(j.index) + " (" + c.name +
                           ")";
  if (!j.accepted) {
    failures.add(what, "rejected: " + j.state.cause);
    return out;
  }
  if (j.state.state != "done" || j.state.exitCode != 0) {
    failures.add(what, "ended " + j.state.state + " exit " +
                           std::to_string(j.state.exitCode) + " " +
                           j.state.cause + " " + j.state.detail);
    return out;
  }
  Result<JsonValue> report = parseJson(j.state.reportText);
  const JsonValue* patch = report.isOk() ? report.value().find("patch")
                                         : nullptr;
  const JsonValue* gates = patch ? patch->find("gates") : nullptr;
  const JsonValue* nets = patch ? patch->find("nets") : nullptr;
  const JsonValue* outputs = report.isOk() ? report.value().find("outputs")
                                           : nullptr;
  if (!gates || !nets || !outputs) {
    failures.add(what, "report unreadable");
    return out;
  }
  out.gates = static_cast<std::size_t>(gates->integer);
  out.nets = static_cast<std::size_t>(nets->integer);
  for (const JsonValue& o : outputs->items) {
    const JsonValue* status = o.find("status");
    if (status && status->str == "fallback") ++out.fallbacks;
  }
  Netlist rectified;
  try {
    ScopedSpan s(tracer, "io.read_result", j.index + 1);
    rectified = readBack(j.state.outText);
  } catch (const std::exception& e) {
    failures.add(what, e.what());
    return out;
  }
  ScopedSpan span(tracer, "bench.gate", j.index + 1);
  const GateVerdict g = checkAgainstSpec(rectified, c.spec, seed, tracer);
  if (!g.ok) failures.add(what, g.detail);
  layers.simSeconds += g.simSeconds;
  layers.gateEvaluations += g.gateEvaluations;
  out.digest = digestOf(rectified, out.gates, out.nets, out.fallbacks);
  return out;
}

int runService(const Args& a) {
  Tracer tracer(a.trace);
  const CaseRecipe base = recipeNamed("eco02");
  std::vector<CaseRecipe> recipes;
  for (std::size_t k = 0; k < kServeJobs; ++k) {
    CaseRecipe r = base;
    char name[16];
    std::snprintf(name, sizeof(name), "svc%03zu", k);
    r.name = name;
    r.mutations = 1;
    r.seed = mixSeed(base.seed + k, 0);
    recipes.push_back(r);
  }

  // The seed sets the order in which the population is submitted.
  std::vector<std::size_t> order(kServeJobs);
  for (std::size_t k = 0; k < kServeJobs; ++k) order[k] = k;
  if (a.seed != 0) {
    Rng rng(a.seed);
    for (std::size_t k = kServeJobs - 1; k > 0; --k)
      std::swap(order[k], order[rng.below(k + 1)]);
  }

  // Set-up: population, BLIF round trip, daemon accepting. Repeated; the
  // last daemon serves the timed loop.
  std::vector<double> setupTimes;
  std::vector<Prepared> cases;
  std::unique_ptr<Daemon> daemon;
  Usage childrenBefore;
  std::string stateDir;
  for (int rep = 0; rep < kServeSetupReps; ++rep) {
    daemon.reset();
    if (!stateDir.empty()) fs::remove_all(stateDir);
    childrenBefore = usage(RUSAGE_CHILDREN);
    stateDir = a.work + "/serve-state-" + std::to_string(rep);
    fs::remove_all(stateDir);
    ScopedSpan span(tracer, "bench.setup");
    const Clock::time_point t0 = Clock::now();
    cases = prepare(recipes, tracer);
    {
      ScopedSpan s(tracer, "serve.start_daemon");
      daemon = std::make_unique<Daemon>(a.cli, stateDir);
    }
    setupTimes.push_back(since(t0));
  }
  if (!gateRejectsBroken(cases.front().spec)) {
    std::fprintf(stderr, "error: the gate accepted a broken netlist\n");
    return 1;
  }

  // Timed region: a closed loop of kServeClients connections, each waiting
  // for its job to finish before submitting the next, until --seconds have
  // passed and the whole population has been submitted once.
  std::mutex jobsMu;  // guards jobs and transportError
  std::vector<Job> jobs;
  std::string transportError;
  std::atomic<std::size_t> next{0};
  const Clock::time_point window = Clock::now();
  auto client = [&]() {
    Result<serve::ServeClient> conn =
        serve::ServeClient::connect("127.0.0.1", daemon->port(), 5000);
    if (!conn.isOk()) {
      std::lock_guard<std::mutex> lock(jobsMu);
      transportError = conn.status().toString();
      return;
    }
    for (;;) {
      const std::size_t idx = next.fetch_add(1);
      const double elapsed = since(window);
      if ((idx >= kServeJobs && elapsed >= a.seconds) ||
          elapsed > kServeDeadline)
        break;
      Job j;
      j.index = idx;
      j.caseIndex = order[idx % kServeJobs];
      serve::SubmitRequest req;
      req.implText = cases[j.caseIndex].implBlif;
      req.specText = cases[j.caseIndex].specBlif;
      req.jobs = 1;
      const Clock::time_point t0 = Clock::now();
      Result<serve::SubmitOutcome> sub = serve::SubmitOutcome{};
      {
        ScopedSpan s(tracer, "serve.submit", idx + 1);
        sub = conn.value().submit(req);
      }
      j.submitRtt = since(t0);
      Result<serve::JobState> st = serve::JobState{};
      if (sub.isOk() && sub.value().accepted) {
        j.accepted = true;
        ScopedSpan s(tracer, "serve.wait", idx + 1);
        st = conn.value().wait(sub.value().job, kPollMs);
      } else if (sub.isOk()) {
        j.state.cause = sub.value().rejected.reason;
      }
      j.latency = since(t0);
      std::lock_guard<std::mutex> lock(jobsMu);
      if (!sub.isOk() || !st.isOk()) {
        transportError = (!sub.isOk() ? sub.status() : st.status()).toString();
        return;
      }
      if (j.accepted) j.state = std::move(st.value());
      jobs.push_back(std::move(j));
    }
  };
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kServeClients; ++c) clients.emplace_back(client);
    for (std::thread& t : clients) t.join();
  }
  const double wall = since(window);
  daemon.reset();
  const Usage children = usage(RUSAGE_CHILDREN);
  fs::remove_all(stateDir);
  std::sort(jobs.begin(), jobs.end(),
            [](const Job& x, const Job& y) { return x.index < y.index; });

  // Correctness and determinism, outside the timed region.
  Failures failures;
  if (!transportError.empty()) failures.add("transport", transportError);
  if (jobs.size() < kServeJobs)
    failures.add("service", "only " + std::to_string(jobs.size()) +
                                " jobs finished before the deadline");
  LayerInputs layers;
  std::vector<JobCheck> checks;
  std::vector<std::uint64_t> digests(kServeJobs, 0);
  std::vector<std::string> names;
  std::vector<double> latencies;
  double patchGates = 0, patchNets = 0, fallbacks = 0, rejected = 0;
  std::size_t completed = 0;
  for (const Job& j : jobs) {
    const JobCheck c = checkJob(j, cases[j.caseIndex], a.seed, tracer,
                                layers, failures);
    checks.push_back(c);
    if (!j.accepted) rejected += 1;
    if (j.state.state == "done") {
      ++completed;
      latencies.push_back(j.latency);
    }
    if (j.index < kServeJobs) {
      digests[j.caseIndex] = c.digest;
      patchGates += static_cast<double>(c.gates);
      patchNets += static_cast<double>(c.nets);
      fallbacks += static_cast<double>(c.fallbacks);
    } else if (c.digest != digests[j.caseIndex]) {
      failures.add("job " + std::to_string(j.index),
                   "repeat of " + cases[j.caseIndex].name + " differs");
    }
  }
  for (const Prepared& c : cases) names.push_back(c.name);
  checkDigestsAcrossRuns(a.work + "/digests", binariesKey(a), names, digests,
                         failures);
  const std::size_t attempted = std::max<std::size_t>(jobs.size(), 1);
  const std::size_t failed = std::min(failures.count(), attempted);

  Metrics m;
  if (!a.trace) {
    m.add("wall_s", wall, "s");
    m.add("cpu_s", children.cpuSeconds - childrenBefore.cpuSeconds, "s");
    m.add("peak_rss_mb", children.maxRssMb, "MiB");
    m.add("setup_s", median(setupTimes), "s");
    m.add("patch_gates", patchGates, "count");
    m.add("patch_nets", patchNets, "count");
    m.add("fallback_outputs", fallbacks, "count");
    m.add("jobs_per_s", static_cast<double>(completed) / wall, "1/s");
    m.add("job_latency_p50_s", quantile(latencies, 0.5), "s");
    m.add("job_latency_p90_s", quantile(latencies, 0.9), "s");
    printResult(failures.count() == 0, attempted, failed, m);
    return failures.count() == 0 ? 0 : 1;
  }

  // Traced run: the same cases in-process at the job's settings, with as
  // many running at once as the daemon's pool, give the engine's share of
  // each job's latency, and must match the daemon's netlists bit for bit.
  std::vector<CaseRun> reference(cases.size());
  std::vector<std::size_t> todo;
  for (const Job& j : jobs)
    if (j.state.state == "done" && j.index < kServeJobs)
      todo.push_back(j.caseIndex);
  {
    SysecoOptions jobOpt;
    jobOpt.jobs = 1;
    std::atomic<std::size_t> nextCase{0};
    auto worker = [&]() {
      for (std::size_t t; (t = nextCase.fetch_add(1)) < todo.size();) {
        const Prepared& c = cases[todo[t]];
        ScopedSpan span(tracer, "bench.engine_reference", todo[t] + 1);
        CaseRun r = runCase(c.implRead, c.specRead, jobOpt, tracer, 0);
        std::ostringstream blif;
        writeBlif(blif, r.result.rectified);
        r.digest = digestOf(readBack(blif.str()), r.result.stats.gates,
                            r.result.stats.nets, r.fallbacks);
        reference[todo[t]] = std::move(r);
      }
    };
    std::vector<std::thread> workers;
    for (int w = 0; w < kServePool; ++w) workers.emplace_back(worker);
    for (std::thread& w : workers) w.join();
  }
  for (std::size_t k : todo)
    if (reference[k].digest != digests[k])
      failures.add(cases[k].name, "daemon and in-process netlists differ");
  std::printf("%-6s %-7s %10s %10s %11s %16s\n", "job", "case", "latency_s",
              "engine_s", "patch_gates", "fallback_outputs");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    layers.submitRtt.push_back(j.submitRtt);
    if (j.state.state != "done") continue;
    const double engine = reference[j.caseIndex].wall;
    layers.engineWall.push_back(engine);
    layers.overhead.push_back(j.latency - engine);
    std::printf("%-6zu %-7s %10.3f %10.3f %11zu %16zu\n", j.index,
                cases[j.caseIndex].name.c_str(), j.latency, engine,
                checks[i].gates, checks[i].fallbacks);
  }
  for (std::size_t k : todo) layers.engine.push_back(&reference[k]);
  std::printf("share serve.overhead_p50_s/job_latency_p50_s %.3f\n",
              median(layers.overhead) / median(latencies));
  layers.tracer = &tracer;
  layers.setupReps = kServeSetupReps;
  layers.rejected = rejected;
  layers.failedRatio = static_cast<double>(std::min(failures.count(),
                                                    attempted)) /
                       static_cast<double>(attempted);
  addLayerMetrics(m, layers);
  writeTrace(tracer, a);
  printResult(failures.count() == 0, attempted,
              std::min(failures.count(), attempted), m);
  return failures.count() == 0 ? 0 : 1;
}

int usageError(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload search|certify|service "
               "--seed N --seconds S --trace 0|1 --cli PATH --work DIR\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i], value = argv[i + 1];
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.trace = value == "1";
      else if (key == "--cli") a.cli = value;
      else if (key == "--work") a.work = value;
      else return usageError(("unknown option " + key).c_str());
    }
  } catch (const std::exception&) {
    return usageError("bad option value");
  }
  if (argc % 2 == 0) return usageError("options come in pairs");
  if (a.cli.empty() || a.work.empty() || !(a.seconds > 0))
    return usageError("--cli, --work and a positive --seconds are required");
  try {
    fs::create_directories(a.work);
    if (a.workload == "search")
      return runInProcess(a, {"eco02", "eco05", "eco10"});
    if (a.workload == "certify")
      return runInProcess(a, {"eco11", "eco12", "eco14", "eco15"});
    if (a.workload == "service") return runService(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usageError("unknown workload");
}
