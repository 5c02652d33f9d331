// Structural fuzz tests: random sequences of mutating operations must
// never corrupt the data model's invariants, the optimization + engine
// pipeline must stay sound across diverse random cases, and the checked
// parsers must turn arbitrary garbage into a Status - never a crash.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "cnf/encode.hpp"
#include "eco/isolate.hpp"
#include "eco/patch.hpp"
#include "eco/resume.hpp"
#include "eco/syseco.hpp"
#include "gen/eco_case.hpp"
#include "gen/spec_builder.hpp"
#include "io/blif_io.hpp"
#include "io/journal_io.hpp"
#include "io/netlist_io.hpp"
#include "io/verilog_io.hpp"
#include "serve/batch.hpp"
#include "sim/simulator.hpp"
#include "util/fault.hpp"
#include "util/ipc.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

#ifndef SYSECO_SOURCE_DIR
#define SYSECO_SOURCE_DIR "."
#endif

namespace syseco {
namespace {

class NetlistFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetlistFuzz, RandomRewiresKeepWellFormedness) {
  Rng rng(GetParam());
  SpecCircuit sc = buildSpec(SpecParams{2, 5, 3, 2, 4, 3, 2, 2}, rng);
  Netlist nl = sc.netlist;

  int applied = 0;
  for (int step = 0; step < 200; ++step) {
    // Pick a random live gate pin and a random candidate driver.
    const auto topo = nl.topoOrder();
    if (topo.empty()) break;
    const GateId g = topo[rng.below(topo.size())];
    const auto& gate = nl.gate(g);
    if (gate.fanins.empty()) continue;
    const std::uint32_t port =
        static_cast<std::uint32_t>(rng.below(gate.fanins.size()));
    const NetId cand = static_cast<NetId>(rng.below(nl.numNetsTotal()));
    const auto& candNet = nl.net(cand);
    const bool driven =
        candNet.srcKind == Netlist::SourceKind::Input ||
        (candNet.srcKind == Netlist::SourceKind::Gate &&
         !nl.gate(candNet.srcIdx).dead);
    if (!driven) continue;
    // Cycle avoidance: candidate must not be reachable from g.
    bool reachable = false;
    {
      std::vector<NetId> stack{nl.gate(g).out};
      std::vector<char> seen(nl.numNetsTotal(), 0);
      while (!stack.empty() && !reachable) {
        const NetId n = stack.back();
        stack.pop_back();
        if (n == cand) {
          reachable = true;
          break;
        }
        if (seen[n]) continue;
        seen[n] = 1;
        for (const Sink& s : nl.net(n).sinks) {
          if (!s.isOutput()) stack.push_back(nl.gate(s.gate).out);
        }
      }
    }
    if (reachable) continue;
    nl.rewireGatePin(g, port, cand);
    ++applied;
    if (step % 20 == 0) {
      std::string why;
      ASSERT_TRUE(nl.isWellFormed(&why)) << why << " after step " << step;
    }
  }
  EXPECT_GT(applied, 10);
  std::string why;
  EXPECT_TRUE(nl.isWellFormed(&why)) << why;
  // Sweeping after arbitrary rewires must also preserve invariants.
  nl.sweepDeadLogic();
  EXPECT_TRUE(nl.isWellFormed(&why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetlistFuzz,
                         ::testing::Values(3, 14, 159, 2653, 58979));

class PipelineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineFuzz, EndToEndSoundnessOnRandomRecipes) {
  // Random recipe dimensions, random mutation counts: whatever the
  // generator produces, the engine must return a SAT-verified result.
  Rng meta(GetParam());
  CaseRecipe r;
  r.name = "fuzz";
  r.spec = SpecParams{
      static_cast<std::uint32_t>(2 + meta.below(3)),
      static_cast<std::uint32_t>(3 + meta.below(6)),
      static_cast<std::uint32_t>(2 + meta.below(4)),
      static_cast<std::uint32_t>(1 + meta.below(3)),
      static_cast<std::uint32_t>(3 + meta.below(5)),
      static_cast<std::uint32_t>(2 + meta.below(4)),
      static_cast<std::uint32_t>(1 + meta.below(3)),
      static_cast<std::uint32_t>(1 + meta.below(4))};
  r.mutations = static_cast<int>(1 + meta.below(4));
  r.targetRevisedFraction = 0.05 + meta.real() * 0.6;
  r.optRounds = static_cast<int>(1 + meta.below(3));
  r.seed = meta.next();
  const EcoCase c = makeCase(r);

  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(c.impl, c.spec, SysecoOptions{}, &diag);
  EXPECT_TRUE(res.success) << "seed " << GetParam();
  EXPECT_TRUE(res.rectified.isWellFormed());
  // Patch accounting sanity: outputs never exceed total rewired sinks,
  // and a non-empty failing set implies a non-empty patch surface.
  if (res.failingOutputsBefore > 0) {
    EXPECT_GT(res.stats.outputs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- Parser robustness ------------------------------------------------------

/// Runs one text through all three checked readers. The contract under
/// test: whatever the bytes, the parse returns (ok or a Status) instead of
/// crashing or aborting, and an accepted netlist is well-formed.
void parseEverywhere(const std::string& text) {
  {
    std::istringstream is(text);
    const Result<Netlist> r = readBlifChecked(is);
    if (r.isOk()) {
      EXPECT_TRUE(r.value().isWellFormed());
    }
  }
  {
    std::istringstream is(text);
    const Result<Netlist> r = readNetlistChecked(is);
    if (r.isOk()) {
      EXPECT_TRUE(r.value().isWellFormed());
    }
  }
  {
    std::istringstream is(text);
    const Result<Netlist> r = readVerilogChecked(is);
    if (r.isOk()) {
      EXPECT_TRUE(r.value().isWellFormed());
    }
  }
}

TEST(ParserFuzz, GarbageCorpusNeverCrashes) {
  const char* corpus[] = {
      "",
      "\n\n\n",
      "garbage",
      "garbage .blif\x01\x02\xff",
      ".model\n.end",
      ".model m\n.inputs a a\n.end",
      ".model m\n.outputs y y\n.names y\n1\n.end",
      ".model m\n.inputs a\n.outputs y\n.names a y\n11 1\n.end",
      ".model m\n.names a b\n.names b a\n.end",  // cycle
      ".model m\n.inputs a\n.outputs y\n.latch a y\n.end",
      ".names x\n- -\n",
      ".model m\n.inputs a\n.outputs y\n.gate nosuch y a\n.end",
      ".model m\n.inputs a\n.outputs y\n.gate not y a\n"
      ".assign y n999\n.end",
      ".model m\n.inputs a\n.outputs y\n.gate not y a a a\n.end",
      ".model m\n.outputs y\n.assign y y\n.end",
      "module ; endmodule",
      "module m (a, a); endmodule",
      "module m (y); output y; endmodule",
      "module m (y); output y; assign y = nope; endmodule",
      "module m (a, y); input a; output y; assign y = ~; endmodule",
      "module m (a, y); input a; output y;\n"
      "  assign y = a ? a; endmodule",
      "module m (a, y); input a; output y;\n"
      "  assign y = a; assign y = a; endmodule",
      "module m (a, y); input a; output y; assign y = a & | a; endmodule",
      "module m (a, y); input a; output y; assign y = 1'b2; endmodule",
      "// only a comment",
      "\\  \n",
  };
  for (const char* text : corpus) parseEverywhere(text);
}

TEST(ParserFuzz, TruncatedValidFilesNeverCrash) {
  // Serialize a real design in all three formats, then feed every prefix
  // to every reader: truncation must yield a Status, not a crash.
  Rng rng(7);
  SpecCircuit sc = buildSpec(SpecParams{2, 6, 3, 2, 4, 3, 2, 2}, rng);
  std::string texts[3];
  {
    std::ostringstream os;
    writeBlif(os, sc.netlist);
    texts[0] = os.str();
  }
  {
    std::ostringstream os;
    writeNetlist(os, sc.netlist);
    texts[1] = os.str();
  }
  {
    std::ostringstream os;
    writeVerilog(os, sc.netlist);
    texts[2] = os.str();
  }
  for (const std::string& text : texts) {
    for (std::size_t cut = 0; cut < text.size(); cut += 7)
      parseEverywhere(text.substr(0, cut));
    parseEverywhere(text);
  }
}

TEST(ParserFuzz, MutatedValidFilesNeverCrash) {
  Rng rng(99);
  SpecCircuit sc = buildSpec(SpecParams{2, 6, 3, 2, 4, 3, 2, 2}, rng);
  std::ostringstream os;
  writeBlif(os, sc.netlist);
  const std::string base = os.str();
  for (int round = 0; round < 64; ++round) {
    std::string mutated = base;
    // A handful of random byte edits per round.
    for (int e = 0; e < 4; ++e) {
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] = static_cast<char>(rng.below(256));
    }
    parseEverywhere(mutated);
  }
}

// --- IPC frame decoder robustness -------------------------------------------

/// The contract under test: whatever bytes a (possibly crashed, killed or
/// hostile) worker left in the pipe, decoding yields a Frame or a Status -
/// never UB, an abort, or an attacker-sized allocation. An accepted frame's
/// payload must additionally survive the semantic decoders the supervisor
/// runs next, again without UB.
void decodeIpcEverywhere(const std::string& bytes, const Netlist& base) {
  const Result<ipc::Frame> frame = ipc::decodeFrame(bytes);
  if (!frame.isOk()) return;
  (void)decodeTaskRequest(frame.value().payload);
  (void)decodeWorkerPatch(frame.value().payload, base);
}

TEST(IpcFuzz, TruncatedFramesNeverCrash) {
  Rng rng(31);
  SpecCircuit sc = buildSpec(SpecParams{2, 5, 3, 2, 4, 3, 2, 2}, rng);
  const Netlist& base = sc.netlist;
  WorkerPatch patch;
  patch.produced = false;
  patch.baseGates = base.numGatesTotal();
  patch.baseNets = base.numNetsTotal();
  const std::string frames[] = {
      ipc::encodeFrame(ipc::kTypeTaskRequest,
                       encodeTaskRequest(IsolateTaskRequest{2, 1})),
      ipc::encodeFrame(ipc::kTypeWorkerResult, encodeWorkerPatch(patch)),
  };
  for (const std::string& ref : frames) {
    for (std::size_t cut = 0; cut <= ref.size(); ++cut)
      decodeIpcEverywhere(ref.substr(0, cut), base);
  }
}

TEST(IpcFuzz, BitFlippedFramesNeverCrashOrSneakPastTheChecksum) {
  Rng rng(32);
  SpecCircuit sc = buildSpec(SpecParams{2, 5, 3, 2, 4, 3, 2, 2}, rng);
  const Netlist& base = sc.netlist;
  WorkerPatch patch;
  patch.produced = false;
  patch.baseGates = base.numGatesTotal();
  patch.baseNets = base.numNetsTotal();
  const std::string ref =
      ipc::encodeFrame(ipc::kTypeWorkerResult, encodeWorkerPatch(patch));
  for (std::size_t byte = 0; byte < ref.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = ref;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      decodeIpcEverywhere(mutated, base);
      // A flip anywhere in the payload must be caught by the crc; flips
      // confined to the header can only be accepted if they leave the
      // payload untouched.
      const Result<ipc::Frame> frame = ipc::decodeFrame(mutated);
      if (frame.isOk() && byte >= ipc::kHeaderBytes) {
        ADD_FAILURE() << "payload flip at byte " << byte << " bit " << bit
                      << " passed the checksum";
      }
    }
  }
}

TEST(IpcFuzz, OversizedAndRandomGarbageNeverCrash) {
  Rng rng(33);
  SpecCircuit sc = buildSpec(SpecParams{2, 5, 3, 2, 4, 3, 2, 2}, rng);
  const Netlist& base = sc.netlist;

  // Length fields sweeping past the sanity cap: reject before allocating.
  for (std::uint32_t len : {ipc::kMaxPayloadBytes + 1, 0x7fffffffu,
                            0xffffffffu}) {
    std::string bytes = ipc::encodeFrame(ipc::kTypeWorkerResult, "p");
    for (int i = 0; i < 4; ++i)
      bytes[8 + i] = static_cast<char>((len >> (8 * i)) & 0xff);
    EXPECT_FALSE(ipc::decodeFrame(bytes).isOk()) << "length " << len;
  }

  // Pure random garbage, with and without a valid magic prefix.
  for (int round = 0; round < 256; ++round) {
    std::string bytes(rng.below(96), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.below(256));
    decodeIpcEverywhere(bytes, base);
    if (bytes.size() >= 4) {
      bytes[0] = 'S';
      bytes[1] = 'E';
      bytes[2] = 'F';
      bytes[3] = '1';
      decodeIpcEverywhere(bytes, base);
    }
  }

  // Valid frames around hostile JSON payloads: the semantic decoders must
  // classify, never abort.
  const char* payloads[] = {
      "",
      "{}",
      "[]",
      "null",
      "{\"produced\":true}",
      "{\"output\":4294967295,\"attempt\":-9}",
      "{\"produced\":true,\"base_gates\":0,\"base_nets\":0,"
      "\"gates\":[[99,0]],\"rewires\":[],\"counters\":[0,0,0,0,0,0,0],"
      "\"seconds\":[0,0,0,0,0]}",
      "{\"produced\":true,\"base_gates\":18446744073709551615,"
      "\"base_nets\":0,\"gates\":[],\"rewires\":[],"
      "\"counters\":[0,0,0,0,0,0,0],\"seconds\":[0,0,0,0,0]}",
  };
  for (const char* payload : payloads) {
    decodeIpcEverywhere(ipc::encodeFrame(ipc::kTypeTaskRequest, payload),
                        base);
    decodeIpcEverywhere(ipc::encodeFrame(ipc::kTypeWorkerResult, payload),
                        base);
  }
}

// --- Case-dispatch and batch-manifest codec robustness ---------------------
// The whole-case batch protocol adds two frame payloads (case task, case
// result) and one text format (the batch manifest). All of them take bytes
// from the network or from user files: every decode must fail closed - a
// Status, never UB, an abort, or an attacker-sized allocation.

void decodeCaseDispatchEverywhere(const std::string& bytes) {
  const Result<ipc::Frame> frame = ipc::decodeFrame(bytes);
  if (!frame.isOk()) return;
  (void)decodeFleetCaseTask(frame.value().payload);
  (void)decodeFleetCaseResult(frame.value().payload);
}

TEST(IpcFuzz, TruncatedCaseDispatchFramesNeverCrash) {
  FleetCaseTask task;
  task.name = "fuzz-case";
  task.caseCrc = 0x12345678;
  task.epoch = 99;
  FleetCaseResult result;
  result.epoch = 99;
  result.report = "{\"success\": true}";
  result.verdicts = "{\"type\":\"verdicts\",\"disagreements\":0}";
  result.netlist = std::string(512, 'n');
  const std::string frames[] = {
      ipc::encodeFrame(ipc::kTypeFleetCaseTask, encodeFleetCaseTask(task)),
      ipc::encodeFrame(ipc::kTypeFleetCaseResult,
                       encodeFleetCaseResult(result)),
  };
  for (const std::string& ref : frames)
    for (std::size_t cut = 0; cut <= ref.size(); ++cut)
      decodeCaseDispatchEverywhere(ref.substr(0, cut));
}

TEST(IpcFuzz, BitFlippedCaseDispatchFramesNeverCrash) {
  Rng rng(34);
  FleetCaseResult result;
  result.report = "{}";
  result.netlist = "snapshot";
  const std::string ref = ipc::encodeFrame(ipc::kTypeFleetCaseResult,
                                           encodeFleetCaseResult(result));
  for (std::size_t byte = 0; byte < ref.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = ref;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      decodeCaseDispatchEverywhere(mutated);
    }
  }
}

TEST(IpcFuzz, HostileCaseDispatchPayloadsFailClosed) {
  // Hand-built payloads covering hostile names, oversized embedded texts
  // and boundary forgeries; each must be a clean rejection.
  const std::string oversized(static_cast<std::size_t>(4u << 20) + 1, 'x');
  const std::string payloads[] = {
      "",
      "{}",
      "null",
      "[]",
      // path-escaping and hidden case names
      "{\"name\":\"../../etc\",\"case_crc\":0,\"epoch\":\"1\","
      "\"lease_seconds\":1,\"jobs\":1,\"attempt\":1}",
      "{\"name\":\".hidden\",\"case_crc\":0,\"epoch\":\"1\","
      "\"lease_seconds\":1,\"jobs\":1,\"attempt\":1}",
      "{\"name\":\"" + std::string(65, 'a') + "\",\"case_crc\":0,"
      "\"epoch\":\"1\",\"lease_seconds\":1,\"jobs\":1,\"attempt\":1}",
      // absurd lease / jobs / attempt
      "{\"name\":\"x\",\"case_crc\":0,\"epoch\":\"1\","
      "\"lease_seconds\":-5,\"jobs\":1,\"attempt\":1}",
      "{\"name\":\"x\",\"case_crc\":0,\"epoch\":\"1\","
      "\"lease_seconds\":1,\"jobs\":4294967295,\"attempt\":1}",
      "{\"name\":\"x\",\"case_crc\":0,\"epoch\":\"1\","
      "\"lease_seconds\":1,\"jobs\":1,\"attempt\":-3}",
      // result envelopes: non-JSON report, newline verdicts, huge texts
      "{\"epoch\":\"1\",\"exit_code\":0,\"report\":\"nope\","
      "\"verdicts\":\"\",\"netlist\":\"\",\"cache_hits\":0,"
      "\"cache_misses\":0,\"cache_evictions\":0}",
      "{\"epoch\":\"1\",\"exit_code\":0,\"report\":\"{}\","
      "\"verdicts\":\"{\\\"type\\\":\\\"verdicts\\\"}\\n{}\","
      "\"netlist\":\"\",\"cache_hits\":0,\"cache_misses\":0,"
      "\"cache_evictions\":0}",
      "{\"epoch\":\"1\",\"exit_code\":999,\"report\":\"{}\","
      "\"verdicts\":\"\",\"netlist\":\"\",\"cache_hits\":0,"
      "\"cache_misses\":0,\"cache_evictions\":0}",
      "{\"epoch\":\"1\",\"exit_code\":0,\"report\":\"" + oversized +
      "\",\"verdicts\":\"\",\"netlist\":\"\",\"cache_hits\":0,"
      "\"cache_misses\":0,\"cache_evictions\":0}",
  };
  for (const std::string& payload : payloads) {
    EXPECT_FALSE(decodeFleetCaseTask(payload).isOk());
    EXPECT_FALSE(decodeFleetCaseResult(payload).isOk());
  }
  // Random garbage straight into the semantic decoders.
  Rng rng(35);
  for (int round = 0; round < 128; ++round) {
    std::string bytes(rng.below(200), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.below(256));
    (void)decodeFleetCaseTask(bytes);
    (void)decodeFleetCaseResult(bytes);
  }
}

TEST(ParserFuzz, HostileBatchManifestsFailClosed) {
  Rng rng(36);
  // Structured near-misses.
  const char* corpus[] = {
      "",
      "null",
      "{\"cases\": 7}",
      "{\"cases\": [7]}",
      "{\"cases\": [{\"name\": 7, \"impl\": \"i\", \"spec\": \"s\"}]}",
      "{\"cases\": [{\"name\": \"a\", \"impl\": \"i\", \"spec\": \"s\","
      " \"seed\": \"lots\"}]}",
      "{\"cases\": [{\"name\": \"a\\u0000b\", \"impl\": \"i\","
      " \"spec\": \"s\"}]}",
      "{\"type\":\"batch\"}",
      "{\"type\":\"batch\",\"event\":\"done\"}",
      "{\"type\":\"output\",\"event\":\"done\",\"name\":\"a\"}",
  };
  for (const char* text : corpus)
    EXPECT_FALSE(serve::parseBatchManifest(text).isOk()) << text;
  // Random garbage through the manifest parser.
  for (int round = 0; round < 128; ++round) {
    std::string bytes(rng.below(160), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.below(256));
    (void)serve::parseBatchManifest(bytes);
  }
}

TEST(ParserFuzz, RoundTripsSurviveAllFormats) {
  // The readers must accept (and preserve the semantics of) everything the
  // writers emit - checked via a full write/read/write fixpoint per format.
  Rng rng(5);
  SpecCircuit sc = buildSpec(SpecParams{2, 6, 3, 2, 4, 3, 2, 2}, rng);
  const Netlist& nl = sc.netlist;
  {
    std::ostringstream os;
    writeBlif(os, nl);
    std::istringstream is(os.str());
    const Result<Netlist> r = readBlifChecked(is);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_EQ(r.value().numOutputs(), nl.numOutputs());
  }
  {
    std::ostringstream os;
    writeNetlist(os, nl);
    std::istringstream is(os.str());
    const Result<Netlist> r = readNetlistChecked(is);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_EQ(r.value().numOutputs(), nl.numOutputs());
  }
  {
    std::ostringstream os;
    writeVerilog(os, nl);
    std::istringstream is(os.str());
    const Result<Netlist> r = readVerilogChecked(is);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_EQ(r.value().numOutputs(), nl.numOutputs());
  }
}

TEST(ParserFuzz, InjectedAllocFailureBecomesInternalStatus) {
  fault::Injector::instance().reset();
  fault::Injector::instance().arm("io.blif", fault::Kind::kAllocFailure);
  std::istringstream is(".model m\n.inputs a\n.outputs y\n"
                        ".names a y\n1 1\n.end\n");
  const Result<Netlist> r = readBlifChecked(is);
  fault::Injector::instance().reset();
  ASSERT_FALSE(r.isOk());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

// --- Journal corruption corpus --------------------------------------------
// Resume must survive arbitrary journal damage: readJournal never crashes,
// prepareResume never crashes, and nothing a corrupt record claims is ever
// certified - every adopted output is proven by a fresh SAT miter.

class JournalFuzz : public ::testing::Test {
 protected:
  static std::string dir() {
    // Per-process root: ctest runs each test as its own process, possibly
    // in parallel, and they must not rm -rf each other's working files.
    static const std::string d = [] {
      const std::string d = ::testing::TempDir() + "syseco_journal_fuzz_" +
                            std::to_string(::getpid());
      const std::string cmd = "rm -rf '" + d + "' && mkdir -p '" + d + "'";
      EXPECT_EQ(std::system(cmd.c_str()), 0);
      return d;
    }();
    return d;
  }

  static const Netlist& impl() {
    static const Netlist nl =
        loadBlif(std::string(SYSECO_SOURCE_DIR) + "/data/alu_impl.blif");
    return nl;
  }
  static const Netlist& spec() {
    static const Netlist nl =
        loadBlif(std::string(SYSECO_SOURCE_DIR) + "/data/alu_spec.blif");
    return nl;
  }

  /// A real journal from an interrupted run (run_start + 2 output records),
  /// built once; each test mutates a private copy of its bytes.
  static const std::string& pristine() {
    static const std::string bytes = [] {
      Result<JournalWriter> w = JournalWriter::create(dir() + "/pristine");
      EXPECT_TRUE(w.isOk());
      std::size_t seen = 0;
      SysecoOptions opt;
      opt.planHook = [&](const std::vector<std::uint32_t>& order,
                         std::size_t failingBefore) {
        EXPECT_TRUE(w.value()
                        .append(serializeRunStart(makeRunStartRecord(
                            impl(), spec(), opt, order, failingBefore)))
                        .isOk());
      };
      opt.checkpointHook = [&](const RunCheckpoint& cp) {
        EXPECT_TRUE(
            w.value().append(serializeOutputRecord(makeOutputRecord(cp))).isOk());
        return ++seen < 2;
      };
      runSyseco(impl(), spec(), opt);
      std::ifstream f(journalDataPath(dir() + "/pristine"),
                      std::ios::binary);
      std::ostringstream os;
      os << f.rdbuf();
      return os.str();
    }();
    return bytes;
  }

  /// Writes `bytes` as a journal and drives the full resume path. Asserts
  /// the invariant, not any particular diagnosis: no crash, and every
  /// adopted output independently re-proven against the specification.
  static void resumeNeverLies(const std::string& bytes,
                              const std::string& name) {
    const std::string d = dir() + "/" + name;
    const std::string cmd = "rm -rf '" + d + "' && mkdir -p '" + d + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    std::ofstream(journalDataPath(d), std::ios::binary) << bytes;

    Result<JournalContents> contents = readJournal(d);
    ASSERT_TRUE(contents.isOk());
    Result<ResumeOutcome> prepared =
        prepareResume(impl(), spec(), SysecoOptions{}, contents.value());
    if (!prepared.isOk()) return;  // stale-journal rejection is a fine answer
    const ResumeOutcome& out = prepared.value();
    if (!out.adopted) return;
    EXPECT_TRUE(out.netlist.isWellFormed());
    PairEncoding pe(out.netlist, spec());
    Rng rng(0xfu);
    for (std::uint32_t o : out.certified) {
      ASSERT_LT(o, out.netlist.numOutputs());
      const std::uint32_t op = spec().findOutput(out.netlist.outputName(o));
      ASSERT_NE(op, kNullId);
      EXPECT_EQ(pe.solveDiffSwept(o, op, -1, rng), Solver::Result::Unsat)
          << "resume certified output " << o << " from a corrupt journal";
    }
  }
};

TEST_F(JournalFuzz, GarbageJournalsNeverCrashResume) {
  const char* corpus[] = {
      "",
      "\n\n\n",
      "garbage\n",
      "J1\n",
      "J1 zzzzzzzz zzzzzzzz {}\n",
      "J1 00000002 00000000 {}\n",            // wrong checksum
      "J1 ffffffff 00000000 {}\n",            // absurd length
      "J1 00000002 d4b334a3 {}\n",            // right crc, junk after
      "J1 00000013 deadbeef {\"type\":\"output\"}\n",
      "\x00\x01\x02\xff\xfe",
      "J1 00000004 9be3e0a3 null\n",          // valid frame, non-object JSON
  };
  int i = 0;
  for (const char* text : corpus)
    resumeNeverLies(text, "garbage" + std::to_string(i++));
}

TEST_F(JournalFuzz, TruncatedJournalsNeverCrashResume) {
  const std::string& base = pristine();
  ASSERT_FALSE(base.empty());
  // Cut everywhere near frame boundaries and at coarse steps in between.
  std::vector<std::size_t> cuts;
  for (std::size_t pos = 0; pos < base.size(); pos += 97) cuts.push_back(pos);
  for (std::size_t pos = base.find('\n'); pos != std::string::npos;
       pos = base.find('\n', pos + 1)) {
    cuts.push_back(pos);
    cuts.push_back(pos + 1);
  }
  int i = 0;
  for (std::size_t cut : cuts)
    resumeNeverLies(base.substr(0, cut), "trunc" + std::to_string(i++));
}

TEST_F(JournalFuzz, BitFlippedJournalsNeverCertifyCorruptPatches) {
  const std::string& base = pristine();
  Rng rng(0xf1a6);
  for (int round = 0; round < 48; ++round) {
    std::string mutated = base;
    for (int e = 0; e < 3; ++e) {
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] ^= static_cast<char>(1u << rng.below(8));
    }
    resumeNeverLies(mutated, "flip" + std::to_string(round));
  }
}

TEST_F(JournalFuzz, DuplicateAndReorderedRecordsNeverCrashResume) {
  const std::string& base = pristine();
  std::vector<std::string> lines;
  std::istringstream in(base);
  for (std::string line; std::getline(in, line);) lines.push_back(line + "\n");
  ASSERT_GE(lines.size(), 3u);  // run_start + 2 outputs

  const auto join = [](const std::vector<std::string>& ls) {
    std::string out;
    for (const std::string& l : ls) out += l;
    return out;
  };
  // Duplicate the newest output record.
  resumeNeverLies(join({lines[0], lines[1], lines[2], lines[2]}), "dup");
  // Duplicate the run_start (second one must be dropped, not believed).
  resumeNeverLies(join({lines[0], lines[0], lines[1], lines[2]}), "dupstart");
  // Output records before any run_start.
  resumeNeverLies(join({lines[1], lines[2], lines[0]}), "reordered");
  // Only output records, no run_start at all.
  resumeNeverLies(join({lines[1], lines[2]}), "headless");
  // Stale older record after the journal restarts from scratch.
  resumeNeverLies(join({lines[2], lines[0], lines[1]}), "restart");
}

TEST_F(JournalFuzz, ForgedDuplicateReportsAreDemoted) {
  // A record claiming the same output twice in its cumulative list is
  // structurally inadmissible regardless of its checksum.
  pristine();  // materialize the journal (tests run in separate processes)
  Result<JournalContents> contents = readJournal(dir() + "/pristine");
  ASSERT_TRUE(contents.isOk());
  ASSERT_EQ(contents.value().outputs.size(), 2u);
  JournalOutputRecord forged = contents.value().outputs.back();
  forged.reports.push_back(forged.reports.back());

  const std::string d = dir() + "/forgeddup";
  ASSERT_EQ(std::system(("mkdir -p '" + d + "'").c_str()), 0);
  Result<JournalWriter> w = JournalWriter::create(d);
  ASSERT_TRUE(w.isOk());
  ASSERT_TRUE(
      w.value()
          .append(serializeRunStart(contents.value().runStart))
          .isOk());
  ASSERT_TRUE(w.value().append(serializeOutputRecord(forged)).isOk());

  Result<JournalContents> reread = readJournal(d);
  ASSERT_TRUE(reread.isOk());
  Result<ResumeOutcome> prepared =
      prepareResume(impl(), spec(), SysecoOptions{}, reread.value());
  ASSERT_TRUE(prepared.isOk());
  EXPECT_FALSE(prepared.value().adopted);
  EXPECT_EQ(prepared.value().demotedRecords, 1u);
  bool noted = false;
  for (const std::string& n : prepared.value().notes)
    noted |= n.find("duplicate") != std::string::npos;
  EXPECT_TRUE(noted);
}

}  // namespace
}  // namespace syseco
