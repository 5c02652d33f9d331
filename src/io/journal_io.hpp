#pragma once
// Run-journal record schema (JSON payloads inside util/journal.hpp frames).
//
// Three record types, written by the CLI through the engine's hooks:
//
//   run_start   - fingerprints (impl/spec CRC, options, seed) plus the
//                 failing-output count and planned processing order.
//   output      - one completed per-output rectification. Self-contained
//                 and cumulative: it carries the full working-netlist
//                 snapshot, the full tracker state and the cumulative
//                 report list, so resume needs only the *last* valid
//                 output record - corrupt earlier records cost nothing.
//   interrupted - a clean signal-initiated stop (progress marker only).
//   fleet       - one --workers lifecycle event (a classified worker
//                 failure, a stale-epoch rejection, worker death,
//                 degradation to in-process execution). Observability only:
//                 timing-dependent by nature, ignored by resume, and never
//                 part of the bit-compared verdict records.
//   verdicts    - the certification oracle's per-output route verdicts for
//                 the finished run. Deliberately timing-free so the record
//                 is bit-identical across --jobs/--isolate/--resume.
//
// This layer parses and serializes payloads into plain structs; it knows
// nothing about the engine types (src/eco/resume.cpp does the mapping and
// the independent re-certification). Parsing is fuzz-hardened: arbitrary
// bytes yield kInvalidInput or a dropped-record diagnostic, never UB.
//
// It is also the one checked JSON record layer of the program: the worker
// IPC and fleet payloads (eco/isolate), the serve session protocol
// (serve/codec) and the batch manifest decode through parseJson and the
// field readers below, so every record shares one set of acceptance rules.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace syseco {

// --- Minimal strict JSON --------------------------------------------------

struct JsonValue {
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;        ///< every Number, lossy for huge ints
  std::int64_t integer = 0;   ///< exact when isInteger
  bool isInteger = false;
  std::string str;
  std::vector<JsonValue> items;                            ///< Array
  std::vector<std::pair<std::string, JsonValue>> members;  ///< Object

  /// First member with `key`, or nullptr. Linear: journal objects are tiny.
  const JsonValue* find(std::string_view key) const;
};

/// Strict parse of one JSON document (entire input must be consumed).
/// Depth-capped so adversarial nesting cannot overflow the stack.
Result<JsonValue> parseJson(std::string_view text);

// --- Checked field readers ------------------------------------------------
//
// Each reader returns false when the value has the wrong kind or is out of
// range, and then leaves *out untouched; the caller rejects the whole
// record rather than guessing. A required key that is absent also reads
// false; an optional one reads true and keeps *out (its default), so a
// record written before the key existed still decodes.

enum class JsonKey : std::uint8_t { kRequired, kOptional };

/// Sanity ceiling for counters and list lengths arriving in any record. Far
/// above anything a real run produces; its only job is to keep a corrupted
/// record from smuggling absurd values into run accounting.
inline constexpr std::int64_t kMaxSmallCount = 1000000;

/// Value readers (array elements). Integers must be exact JSON integers;
/// doubles must be finite.
bool jsonU64(const JsonValue& v, std::uint64_t* out);
bool jsonU32(const JsonValue& v, std::uint32_t* out);
bool jsonDouble(const JsonValue& v, double* out);

/// Member readers.
bool readU32(const JsonValue& obj, std::string_view key, std::uint32_t* out,
             JsonKey presence = JsonKey::kRequired);
bool readU64(const JsonValue& obj, std::string_view key, std::uint64_t* out,
             JsonKey presence = JsonKey::kRequired);
bool readI64(const JsonValue& obj, std::string_view key, std::int64_t* out,
             JsonKey presence = JsonKey::kRequired);
bool readDouble(const JsonValue& obj, std::string_view key, double* out,
                JsonKey presence = JsonKey::kRequired);
bool readString(const JsonValue& obj, std::string_view key, std::string* out,
                JsonKey presence = JsonKey::kRequired);
bool readBool(const JsonValue& obj, std::string_view key, bool* out,
              JsonKey presence = JsonKey::kRequired);
/// A full-range uint64 carried as a canonical decimal JSON *string* (no
/// sign, no leading zero): a JSON number is clipped at int64 range by the
/// parser, and seeds and epochs use all 64 bits.
bool readU64String(const JsonValue& obj, std::string_view key,
                   std::uint64_t* out, JsonKey presence = JsonKey::kRequired);

// --- Record structs -------------------------------------------------------

inline constexpr std::uint32_t kJournalSchemaVersion = 1;

struct JournalOutputReport {
  std::uint32_t output = 0;
  std::string name;
  std::string status;  ///< outputRectStatusName value
  std::string limit;   ///< statusCodeName value
  std::int64_t conflictsUsed = 0;
  std::int64_t bddNodesUsed = 0;
  double seconds = 0.0;
  std::int64_t degradeSteps = 0;
  /// Isolation-supervisor account: failed worker attempts and the last
  /// failure's cause (workerExitCauseName value). Absent keys parse as the
  /// defaults so pre-isolation journals stay resumable.
  std::int64_t attempts = 0;
  std::string exitCause = "ok";
};

struct JournalRunStart {
  std::uint32_t version = kJournalSchemaVersion;
  std::string engine;
  std::uint32_t implCrc = 0;
  std::uint32_t specCrc = 0;
  std::string optionsFingerprint;
  std::uint64_t seed = 0;
  std::uint64_t failingOutputsBefore = 0;
  std::vector<std::uint32_t> order;
};

struct JournalRewire {
  std::uint32_t gate = 0;  ///< kNullId when the sink is a primary output
  std::uint32_t port = 0;
  std::uint32_t oldNet = 0;
  std::uint32_t newNet = 0;
};

struct JournalTrackerState {
  std::uint64_t baseGates = 0;
  std::uint64_t baseNets = 0;
  std::vector<JournalRewire> rewires;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cloneCache;
};

struct JournalOutputRecord {
  std::size_t line = 0;  ///< journal.jsonl line (diagnostics)
  JournalOutputReport report;                 ///< the just-finished output
  std::vector<JournalOutputReport> reports;   ///< cumulative
  std::int64_t conflictsUsed = 0;             ///< cumulative run totals
  std::int64_t bddNodesUsed = 0;
  std::uint64_t completed = 0;
  std::uint64_t planned = 0;
  JournalTrackerState tracker;
  std::string netlistDump;  ///< Netlist::dumpRaw text of the working netlist
};

/// One certified output pair: the three route verdicts (routeVerdictName
/// strings) plus the combined judgement.
struct JournalVerdictEntry {
  std::uint32_t output = 0;
  std::string name;
  std::string sat;
  std::string bdd;
  std::string sim;
  bool certified = false;
};

struct JournalVerdicts {
  std::vector<JournalVerdictEntry> entries;
  std::uint64_t disagreements = 0;
};

/// One fleet lifecycle event (mirrors eco/syseco.hpp's FleetEvent; this
/// layer stays engine-type-free by design).
struct JournalFleetEvent {
  std::string kind;    ///< taxonomy cause or lifecycle tag
  std::string worker;  ///< "host:port"; empty for fleet-wide events
  std::uint32_t output = 0;
  std::int64_t attempt = 0;
  std::string detail;
};

/// One durable state transition of the job queue behind --serve and
/// --batch (the serve WAL reuses the util/journal framing but lives in its
/// own directory, so these records never mix with an engine run journal).
/// Engine-type-free like the fleet events: src/serve owns the semantics.
struct JournalServeEvent {
  std::string event;   ///< submitted|running|done|failed|cancelled|recovered|note
  std::string job;     ///< daemon-assigned job id; empty for daemon-wide notes
  std::string tenant;
  std::string format;  ///< netlist text format of the job's payloads
  std::uint64_t seed = 0;
  std::int64_t jobs = 1;        ///< worker threads requested for the job
  bool detach = false;          ///< survives the submitting connection
  bool isolate = false;         ///< run the job's workers under --isolate
  std::uint64_t bytes = 0;      ///< resident payload bytes (admission ledger)
  std::int64_t attempt = 0;     ///< dispatch ordinal for running/failed
  std::int64_t exitCode = 0;    ///< worker exit code for done
  std::string cause;            ///< failure/cancel classification
  std::string detail;
  std::string faultInject;      ///< test hook carried into the job's worker
  std::string worker;  ///< dispatch target ("host:port"; "" = local pool)
  /// Agent CaseCacheLru counters snapshotted with a remote result (done
  /// records; zero for local runs).
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t cacheEvictions = 0;
};

std::string serializeServeEvent(const JournalServeEvent& r);

/// The one JSON form of a per-output report, shared by journal output
/// records and worker patches. Numbers print at the stream's precision, so
/// the caller chooses it (journals keep the default, worker patches use 17
/// digits). parseReport checks kinds only and defaults the isolation fields
/// (`attempts`, `exit_cause`) when absent; src/eco/resume.hpp maps the
/// result onto an engine OutputReport with the range and name checks.
void serializeReportInto(std::ostream& os, const JournalOutputReport& r);
bool parseReport(const JsonValue& v, JournalOutputReport* out);

/// Parses one serve WAL payload (a single JSON object with type "serve").
/// Hardened like the rest of the journal parsers: arbitrary bytes yield
/// kInvalidInput, never UB.
Result<JournalServeEvent> parseServeEvent(std::string_view payload);

/// Every intelligible record recovered from a journal directory.
struct JournalContents {
  bool hasRunStart = false;
  JournalRunStart runStart;
  std::vector<JournalOutputRecord> outputs;
  bool hasVerdicts = false;  ///< a verdicts record was present (last wins)
  JournalVerdicts verdicts;
  std::vector<JournalFleetEvent> fleetEvents;  ///< in journal order
  bool interrupted = false;  ///< an interrupted marker was present
  /// Frame-level and payload-level drop notes, line-accurate.
  std::vector<std::string> diagnostics;
};

/// Scans and parses `dir`'s journal. Unparseable payloads are dropped with
/// a diagnostic (like corrupt frames); only unreadable I/O fails.
Result<JournalContents> readJournal(const std::string& dir);

// --- Serialization (one line of JSON each, newline-free) ------------------

std::string serializeRunStart(const JournalRunStart& r);
std::string serializeOutputRecord(const JournalOutputRecord& r);
std::string serializeVerdicts(const JournalVerdicts& r);
std::string serializeFleetEvent(const JournalFleetEvent& r);
std::string serializeInterrupted(std::uint64_t completed,
                                 std::uint64_t planned);

}  // namespace syseco
