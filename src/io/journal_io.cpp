#include "io/journal_io.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "util/journal.hpp"

namespace syseco {

// --- JSON parser ----------------------------------------------------------

namespace {

constexpr int kMaxJsonDepth = 64;

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> parse() {
    JsonValue v;
    const Status s = parseValue(&v, 0);
    if (!s.isOk()) return s;
    skipWs();
    if (pos_ != text_.size())
      return fail("trailing bytes after the JSON document");
    return v;
  }

 private:
  Status fail(const std::string& what) const {
    return Status::invalidInput("json offset " + std::to_string(pos_) + ": " +
                                what);
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status parseValue(JsonValue* out, int depth) {
    if (depth > kMaxJsonDepth) return fail("nesting too deep");
    skipWs();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parseObject(out, depth);
    if (c == '[') return parseArray(out, depth);
    if (c == '"') {
      out->kind = JsonValue::Kind::String;
      return parseString(&out->str);
    }
    if (c == 't' || c == 'f') return parseKeyword(out);
    if (c == 'n') return parseKeyword(out);
    return parseNumber(out);
  }

  Status parseKeyword(JsonValue* out) {
    auto lit = [&](std::string_view word) {
      if (text_.substr(pos_, word.size()) != word) return false;
      pos_ += word.size();
      return true;
    };
    if (lit("true")) {
      out->kind = JsonValue::Kind::Bool;
      out->boolean = true;
      return Status::ok();
    }
    if (lit("false")) {
      out->kind = JsonValue::Kind::Bool;
      out->boolean = false;
      return Status::ok();
    }
    if (lit("null")) {
      out->kind = JsonValue::Kind::Null;
      return Status::ok();
    }
    return fail("unknown keyword");
  }

  Status parseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    const std::size_t intStart = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    const std::size_t intDigits = pos_ - intStart;
    if (intDigits == 0) return fail("malformed number");
    if (intDigits > 1 && text_[intStart] == '0')
      return fail("leading zero in number");
    bool integral = true;
    if (consume('.')) {
      integral = false;
      const std::size_t fracStart = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
      if (pos_ == fracStart) return fail("malformed number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      const std::size_t expStart = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
      if (pos_ == expStart) return fail("malformed number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    out->kind = JsonValue::Kind::Number;
    out->number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("malformed number");
    if (integral) {
      errno = 0;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        out->integer = v;
        out->isInteger = true;
      }
    }
    return Status::ok();
  }

  Status parseString(std::string* out) {
    if (!consume('"')) return fail("expected string");
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return Status::ok();
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return fail("dangling escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("short \\u escape");
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            unsigned d;
            if (h >= '0' && h <= '9') d = static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') d = static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') d = static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
            value = value * 16 + d;
          }
          // The journal only escapes control bytes; encode other code
          // points as UTF-8 so round-trips stay lossless.
          if (value < 0x80) {
            out->push_back(static_cast<char>(value));
          } else if (value < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (value >> 6)));
            out->push_back(static_cast<char>(0x80 | (value & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (value >> 12)));
            out->push_back(static_cast<char>(0x80 | ((value >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (value & 0x3F)));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
  }

  Status parseObject(JsonValue* out, int depth) {
    consume('{');
    out->kind = JsonValue::Kind::Object;
    skipWs();
    if (consume('}')) return Status::ok();
    while (true) {
      skipWs();
      std::string key;
      const Status ks = parseString(&key);
      if (!ks.isOk()) return ks;
      skipWs();
      if (!consume(':')) return fail("expected ':'");
      JsonValue value;
      const Status vs = parseValue(&value, depth + 1);
      if (!vs.isOk()) return vs;
      out->members.emplace_back(std::move(key), std::move(value));
      skipWs();
      if (consume(',')) continue;
      if (consume('}')) return Status::ok();
      return fail("expected ',' or '}'");
    }
  }

  Status parseArray(JsonValue* out, int depth) {
    consume('[');
    out->kind = JsonValue::Kind::Array;
    skipWs();
    if (consume(']')) return Status::ok();
    while (true) {
      JsonValue value;
      const Status vs = parseValue(&value, depth + 1);
      if (!vs.isOk()) return vs;
      out->items.push_back(std::move(value));
      skipWs();
      if (consume(',')) continue;
      if (consume(']')) return Status::ok();
      return fail("expected ',' or ']'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

Result<JsonValue> parseJson(std::string_view text) {
  return JsonParser(text).parse();
}

// --- Record extraction ----------------------------------------------------

namespace {

/// Field readers: false means "absent or wrong type/range" - the caller
/// drops the whole record with a diagnostic rather than guessing.
bool getU64(const JsonValue& obj, const std::string& key, std::uint64_t* out) {
  const JsonValue* v = obj.find(key);
  if (!v || v->kind != JsonValue::Kind::Number || !v->isInteger ||
      v->integer < 0)
    return false;
  *out = static_cast<std::uint64_t>(v->integer);
  return true;
}

bool getU32(const JsonValue& obj, const std::string& key, std::uint32_t* out) {
  std::uint64_t wide = 0;
  if (!getU64(obj, key, &wide) || wide > 0xFFFFFFFFull) return false;
  *out = static_cast<std::uint32_t>(wide);
  return true;
}

/// Full-range uint64 carried as a decimal JSON *string* (a JSON number
/// would be clipped at int64 range by the parser; seeds use all 64 bits).
/// A plain in-range integer is also accepted.
bool getU64Wide(const JsonValue& obj, const std::string& key,
                std::uint64_t* out) {
  const JsonValue* v = obj.find(key);
  if (!v) return false;
  if (v->kind == JsonValue::Kind::Number) return getU64(obj, key, out);
  if (v->kind != JsonValue::Kind::String || v->str.empty() ||
      v->str.size() > 20)
    return false;
  std::uint64_t value = 0;
  for (char c : v->str) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  if (v->str.size() > 1 && v->str[0] == '0') return false;
  *out = value;
  return true;
}

bool getI64(const JsonValue& obj, const std::string& key, std::int64_t* out) {
  const JsonValue* v = obj.find(key);
  if (!v || v->kind != JsonValue::Kind::Number || !v->isInteger) return false;
  *out = v->integer;
  return true;
}

bool getDouble(const JsonValue& obj, const std::string& key, double* out) {
  const JsonValue* v = obj.find(key);
  if (!v || v->kind != JsonValue::Kind::Number) return false;
  *out = v->number;
  return true;
}

bool getString(const JsonValue& obj, const std::string& key,
               std::string* out) {
  const JsonValue* v = obj.find(key);
  if (!v || v->kind != JsonValue::Kind::String) return false;
  *out = v->str;
  return true;
}

bool parseReport(const JsonValue& v, JournalOutputReport* out) {
  if (v.kind != JsonValue::Kind::Object) return false;
  if (!(getU32(v, "output", &out->output) &&
        getString(v, "name", &out->name) &&
        getString(v, "status", &out->status) &&
        getString(v, "limit", &out->limit) &&
        getI64(v, "conflicts_used", &out->conflictsUsed) &&
        getI64(v, "bdd_nodes_used", &out->bddNodesUsed) &&
        getDouble(v, "seconds", &out->seconds) &&
        getI64(v, "degrade_steps", &out->degradeSteps)))
    return false;
  // Isolation fields arrived after schema v1 shipped; absent keys default
  // (pre-isolation journals stay adoptable), present-but-malformed ones
  // still drop the record.
  if (v.find("attempts") && !getI64(v, "attempts", &out->attempts))
    return false;
  if (v.find("exit_cause") && !getString(v, "exit_cause", &out->exitCause))
    return false;
  return true;
}

bool parseRunStart(const JsonValue& v, JournalRunStart* out) {
  if (!getU32(v, "version", &out->version) ||
      !getString(v, "engine", &out->engine) ||
      !getU32(v, "impl_crc", &out->implCrc) ||
      !getU32(v, "spec_crc", &out->specCrc) ||
      !getString(v, "options", &out->optionsFingerprint) ||
      !getU64Wide(v, "seed", &out->seed) ||
      !getU64(v, "failing_outputs", &out->failingOutputsBefore))
    return false;
  const JsonValue* order = v.find("order");
  if (!order || order->kind != JsonValue::Kind::Array) return false;
  out->order.clear();
  for (const JsonValue& item : order->items) {
    if (item.kind != JsonValue::Kind::Number || !item.isInteger ||
        item.integer < 0 || item.integer > 0xFFFFFFFFll)
      return false;
    out->order.push_back(static_cast<std::uint32_t>(item.integer));
  }
  return true;
}

bool parseTracker(const JsonValue& v, JournalTrackerState* out) {
  if (v.kind != JsonValue::Kind::Object) return false;
  if (!getU64(v, "base_gates", &out->baseGates) ||
      !getU64(v, "base_nets", &out->baseNets))
    return false;
  const JsonValue* rewires = v.find("rewires");
  if (!rewires || rewires->kind != JsonValue::Kind::Array) return false;
  out->rewires.clear();
  for (const JsonValue& item : rewires->items) {
    if (item.kind != JsonValue::Kind::Array || item.items.size() != 4)
      return false;
    std::uint32_t f[4];
    for (int i = 0; i < 4; ++i) {
      const JsonValue& e = item.items[static_cast<std::size_t>(i)];
      if (e.kind != JsonValue::Kind::Number || !e.isInteger ||
          e.integer < 0 || e.integer > 0xFFFFFFFFll)
        return false;
      f[i] = static_cast<std::uint32_t>(e.integer);
    }
    out->rewires.push_back(JournalRewire{f[0], f[1], f[2], f[3]});
  }
  const JsonValue* cache = v.find("clone_cache");
  if (!cache || cache->kind != JsonValue::Kind::Array) return false;
  out->cloneCache.clear();
  for (const JsonValue& item : cache->items) {
    if (item.kind != JsonValue::Kind::Array || item.items.size() != 2)
      return false;
    std::uint32_t f[2];
    for (int i = 0; i < 2; ++i) {
      const JsonValue& e = item.items[static_cast<std::size_t>(i)];
      if (e.kind != JsonValue::Kind::Number || !e.isInteger ||
          e.integer < 0 || e.integer > 0xFFFFFFFFll)
        return false;
      f[i] = static_cast<std::uint32_t>(e.integer);
    }
    out->cloneCache.emplace_back(f[0], f[1]);
  }
  return true;
}

bool parseOutputRecord(const JsonValue& v, JournalOutputRecord* out) {
  const JsonValue* report = v.find("report");
  if (!report || !parseReport(*report, &out->report)) return false;
  const JsonValue* reports = v.find("reports");
  if (!reports || reports->kind != JsonValue::Kind::Array) return false;
  out->reports.clear();
  for (const JsonValue& item : reports->items) {
    JournalOutputReport r;
    if (!parseReport(item, &r)) return false;
    out->reports.push_back(std::move(r));
  }
  if (!getI64(v, "conflicts_used", &out->conflictsUsed) ||
      !getI64(v, "bdd_nodes_used", &out->bddNodesUsed) ||
      !getU64(v, "completed", &out->completed) ||
      !getU64(v, "planned", &out->planned) ||
      !getString(v, "netlist", &out->netlistDump))
    return false;
  const JsonValue* tracker = v.find("tracker");
  return tracker && parseTracker(*tracker, &out->tracker);
}

bool parseFleetEvent(const JsonValue& v, JournalFleetEvent* out) {
  return getString(v, "kind", &out->kind) &&
         getString(v, "worker", &out->worker) &&
         getU32(v, "output", &out->output) &&
         getI64(v, "attempt", &out->attempt) &&
         getString(v, "detail", &out->detail);
}

bool parseVerdicts(const JsonValue& v, JournalVerdicts* out) {
  const JsonValue* entries = v.find("outputs");
  if (!entries || entries->kind != JsonValue::Kind::Array) return false;
  out->entries.clear();
  for (const JsonValue& item : entries->items) {
    if (item.kind != JsonValue::Kind::Object) return false;
    JournalVerdictEntry e;
    const JsonValue* cert = item.find("certified");
    if (!(getU32(item, "output", &e.output) &&
          getString(item, "name", &e.name) && getString(item, "sat", &e.sat) &&
          getString(item, "bdd", &e.bdd) && getString(item, "sim", &e.sim) &&
          cert && cert->kind == JsonValue::Kind::Bool))
      return false;
    e.certified = cert->boolean;
    out->entries.push_back(std::move(e));
  }
  return getU64(v, "disagreements", &out->disagreements);
}

void serializeReportInto(std::ostringstream& os,
                         const JournalOutputReport& r) {
  os << "{\"output\":" << r.output << ",\"name\":\"" << jsonEscape(r.name)
     << "\",\"status\":\"" << jsonEscape(r.status) << "\",\"limit\":\""
     << jsonEscape(r.limit) << "\",\"conflicts_used\":" << r.conflictsUsed
     << ",\"bdd_nodes_used\":" << r.bddNodesUsed << ",\"seconds\":"
     << r.seconds << ",\"degrade_steps\":" << r.degradeSteps
     << ",\"attempts\":" << r.attempts << ",\"exit_cause\":\""
     << jsonEscape(r.exitCause) << "\"}";
}

}  // namespace

Result<JournalContents> readJournal(const std::string& dir) {
  Result<JournalScan> scanned = scanJournal(dir);
  if (!scanned.isOk()) return scanned.status();
  const JournalScan& scan = scanned.value();

  JournalContents contents;
  contents.diagnostics = scan.diagnostics;
  for (const JournalFrame& frame : scan.frames) {
    auto drop = [&](const std::string& why) {
      contents.diagnostics.push_back("journal.jsonl line " +
                                     std::to_string(frame.line) +
                                     ": record dropped: " + why);
    };
    Result<JsonValue> parsed = parseJson(frame.payload);
    if (!parsed.isOk()) {
      drop(parsed.status().message());
      continue;
    }
    const JsonValue& v = parsed.value();
    std::string type;
    if (!getString(v, "type", &type)) {
      drop("missing record type");
      continue;
    }
    if (type == "run_start") {
      JournalRunStart rs;
      if (!parseRunStart(v, &rs)) {
        drop("malformed run_start record");
        continue;
      }
      if (contents.hasRunStart) {
        drop("duplicate run_start record");
        continue;
      }
      contents.hasRunStart = true;
      contents.runStart = std::move(rs);
    } else if (type == "output") {
      JournalOutputRecord rec;
      rec.line = frame.line;
      if (!parseOutputRecord(v, &rec)) {
        drop("malformed output record");
        continue;
      }
      contents.outputs.push_back(std::move(rec));
    } else if (type == "verdicts") {
      JournalVerdicts verdicts;
      if (!parseVerdicts(v, &verdicts)) {
        drop("malformed verdicts record");
        continue;
      }
      // Last wins: a resumed run re-certifies and re-appends.
      contents.hasVerdicts = true;
      contents.verdicts = std::move(verdicts);
    } else if (type == "fleet") {
      JournalFleetEvent ev;
      if (!parseFleetEvent(v, &ev)) {
        drop("malformed fleet record");
        continue;
      }
      contents.fleetEvents.push_back(std::move(ev));
    } else if (type == "interrupted") {
      contents.interrupted = true;
    } else {
      drop("unknown record type '" + type + "'");
    }
  }
  return contents;
}

std::string serializeRunStart(const JournalRunStart& r) {
  std::ostringstream os;
  os << "{\"type\":\"run_start\",\"version\":" << r.version
     << ",\"engine\":\"" << jsonEscape(r.engine) << "\",\"impl_crc\":"
     << r.implCrc << ",\"spec_crc\":" << r.specCrc << ",\"options\":\""
     << jsonEscape(r.optionsFingerprint) << "\",\"seed\":\"" << r.seed
     << "\",\"failing_outputs\":" << r.failingOutputsBefore << ",\"order\":[";
  for (std::size_t i = 0; i < r.order.size(); ++i)
    os << (i ? "," : "") << r.order[i];
  os << "]}";
  return os.str();
}

std::string serializeOutputRecord(const JournalOutputRecord& r) {
  std::ostringstream os;
  os << "{\"type\":\"output\",\"report\":";
  serializeReportInto(os, r.report);
  os << ",\"reports\":[";
  for (std::size_t i = 0; i < r.reports.size(); ++i) {
    if (i) os << ",";
    serializeReportInto(os, r.reports[i]);
  }
  os << "],\"conflicts_used\":" << r.conflictsUsed << ",\"bdd_nodes_used\":"
     << r.bddNodesUsed << ",\"completed\":" << r.completed << ",\"planned\":"
     << r.planned << ",\"tracker\":{\"base_gates\":" << r.tracker.baseGates
     << ",\"base_nets\":" << r.tracker.baseNets << ",\"rewires\":[";
  for (std::size_t i = 0; i < r.tracker.rewires.size(); ++i) {
    const JournalRewire& w = r.tracker.rewires[i];
    os << (i ? "," : "") << "[" << w.gate << "," << w.port << "," << w.oldNet
       << "," << w.newNet << "]";
  }
  os << "],\"clone_cache\":[";
  for (std::size_t i = 0; i < r.tracker.cloneCache.size(); ++i) {
    os << (i ? "," : "") << "[" << r.tracker.cloneCache[i].first << ","
       << r.tracker.cloneCache[i].second << "]";
  }
  os << "]},\"netlist\":\"" << jsonEscape(r.netlistDump) << "\"}";
  return os.str();
}

std::string serializeVerdicts(const JournalVerdicts& r) {
  std::ostringstream os;
  os << "{\"type\":\"verdicts\",\"outputs\":[";
  for (std::size_t i = 0; i < r.entries.size(); ++i) {
    const JournalVerdictEntry& e = r.entries[i];
    os << (i ? "," : "") << "{\"output\":" << e.output << ",\"name\":\""
       << jsonEscape(e.name) << "\",\"sat\":\"" << jsonEscape(e.sat)
       << "\",\"bdd\":\"" << jsonEscape(e.bdd) << "\",\"sim\":\""
       << jsonEscape(e.sim) << "\",\"certified\":"
       << (e.certified ? "true" : "false") << "}";
  }
  os << "],\"disagreements\":" << r.disagreements << "}";
  return os.str();
}

std::string serializeFleetEvent(const JournalFleetEvent& r) {
  std::ostringstream os;
  os << "{\"type\":\"fleet\",\"kind\":\"" << jsonEscape(r.kind)
     << "\",\"worker\":\"" << jsonEscape(r.worker)
     << "\",\"output\":" << r.output << ",\"attempt\":" << r.attempt
     << ",\"detail\":\"" << jsonEscape(r.detail) << "\"}";
  return os.str();
}

std::string serializeInterrupted(std::uint64_t completed,
                                 std::uint64_t planned) {
  std::ostringstream os;
  os << "{\"type\":\"interrupted\",\"completed\":" << completed
     << ",\"planned\":" << planned << "}";
  return os.str();
}

std::string serializeServeEvent(const JournalServeEvent& r) {
  std::ostringstream os;
  os << "{\"type\":\"serve\",\"event\":\"" << jsonEscape(r.event)
     << "\",\"job\":\"" << jsonEscape(r.job) << "\",\"tenant\":\""
     << jsonEscape(r.tenant) << "\",\"format\":\"" << jsonEscape(r.format)
     << "\",\"seed\":\"" << r.seed << "\",\"jobs\":" << r.jobs
     << ",\"detach\":" << (r.detach ? "true" : "false")
     << ",\"isolate\":" << (r.isolate ? "true" : "false")
     << ",\"bytes\":" << r.bytes << ",\"attempt\":" << r.attempt
     << ",\"exit_code\":" << r.exitCode << ",\"cause\":\""
     << jsonEscape(r.cause) << "\",\"detail\":\"" << jsonEscape(r.detail)
     << "\",\"fault_inject\":\"" << jsonEscape(r.faultInject)
     << "\",\"worker\":\"" << jsonEscape(r.worker)
     << "\",\"cache_hits\":" << r.cacheHits
     << ",\"cache_misses\":" << r.cacheMisses
     << ",\"cache_evictions\":" << r.cacheEvictions << "}";
  return os.str();
}

Result<JournalServeEvent> parseServeEvent(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& v = parsed.value();
  std::string type;
  if (!getString(v, "type", &type) || type != "serve")
    return Status::invalidInput("serve record: wrong or missing type");
  JournalServeEvent out;
  const JsonValue* detach = v.find("detach");
  const JsonValue* isolate = v.find("isolate");
  if (!(getString(v, "event", &out.event) && getString(v, "job", &out.job) &&
        getString(v, "tenant", &out.tenant) &&
        getString(v, "format", &out.format) &&
        getU64Wide(v, "seed", &out.seed) && getI64(v, "jobs", &out.jobs) &&
        detach && detach->kind == JsonValue::Kind::Bool &&
        isolate && isolate->kind == JsonValue::Kind::Bool &&
        getU64(v, "bytes", &out.bytes) &&
        getI64(v, "attempt", &out.attempt) &&
        getI64(v, "exit_code", &out.exitCode) &&
        getString(v, "cause", &out.cause) &&
        getString(v, "detail", &out.detail) &&
        getString(v, "fault_inject", &out.faultInject)))
    return Status::invalidInput("serve record: malformed fields");
  // The dispatch target and agent cache counters are optional: a queue WAL
  // written before they existed still folds.
  if ((v.find("worker") && !getString(v, "worker", &out.worker)) ||
      (v.find("cache_hits") && !getU64(v, "cache_hits", &out.cacheHits)) ||
      (v.find("cache_misses") &&
       !getU64(v, "cache_misses", &out.cacheMisses)) ||
      (v.find("cache_evictions") &&
       !getU64(v, "cache_evictions", &out.cacheEvictions)))
    return Status::invalidInput("serve record: malformed fields");
  out.detach = detach->boolean;
  out.isolate = isolate->boolean;
  if (out.event.empty())
    return Status::invalidInput("serve record: empty event");
  return out;
}

}  // namespace syseco
