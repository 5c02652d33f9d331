#include "serve/codec.hpp"

#include <sstream>

#include "eco/isolate.hpp"
#include "io/journal_io.hpp"
#include "io/netlist_format.hpp"
#include "util/journal.hpp"

namespace syseco::serve {

namespace {

Status bad(const std::string& what) { return Status::invalidInput(what); }

constexpr JsonKey kOptional = JsonKey::kOptional;

/// Every payload key is optional: a missing key keeps the struct default
/// (forward compatibility), a malformed one is a hard reject (a confused
/// peer, not a newer one).
Status badKey(const char* key) {
  return bad(std::string("serve payload key '") + key + "' is malformed");
}

Result<JsonValue> parseTyped(std::string_view payload, const char* type) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  JsonValue doc = parsed.take();
  if (doc.kind != JsonValue::Kind::Object)
    return bad("serve payload is not a JSON object");
  std::string t;
  if (!readString(doc, "type", &t) || t != type)
    return bad(std::string("serve payload is not a '") + type + "' record");
  return doc;
}

void appendKv(std::ostream& os, const char* key, const std::string& value,
              bool* first) {
  os << (*first ? "" : ",") << "\"" << key << "\":\"" << jsonEscape(value)
     << "\"";
  *first = false;
}

void appendKv(std::ostream& os, const char* key, std::int64_t value,
              bool* first) {
  os << (*first ? "" : ",") << "\"" << key << "\":" << value;
  *first = false;
}

void appendKv(std::ostream& os, const char* key, bool value, bool* first) {
  os << (*first ? "" : ",") << "\"" << key
     << "\":" << (value ? "true" : "false");
  *first = false;
}

}  // namespace

std::string encodeSubmit(const SubmitRequest& r) {
  std::ostringstream os;
  bool first = true;
  os << "{";
  appendKv(os, "type", std::string("submit"), &first);
  appendKv(os, "tenant", r.tenant, &first);
  appendKv(os, "format", r.format, &first);
  appendKv(os, "impl", r.implText, &first);
  appendKv(os, "spec", r.specText, &first);
  appendKv(os, "seed", std::to_string(r.seed), &first);
  appendKv(os, "jobs", r.jobs, &first);
  appendKv(os, "isolate", r.isolate, &first);
  appendKv(os, "detach", r.detach, &first);
  appendKv(os, "fault_inject", r.faultInject, &first);
  os << "}";
  return os.str();
}

Result<SubmitRequest> decodeSubmit(std::string_view payload) {
  Result<JsonValue> parsed = parseTyped(payload, "submit");
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& doc = parsed.value();
  SubmitRequest r;
  if (!readString(doc, "tenant", &r.tenant, kOptional)) return badKey("tenant");
  if (r.tenant.empty()) return bad("serve submit has an empty tenant");
  if (!readString(doc, "format", &r.format, kOptional)) return badKey("format");
  if (!isNetlistFormat(r.format))
    return bad("serve submit format must be blif|v|netlist, got '" +
               r.format + "'");
  if (!readString(doc, "impl", &r.implText, kOptional)) return badKey("impl");
  if (!readString(doc, "spec", &r.specText, kOptional)) return badKey("spec");
  if (r.implText.empty() || r.specText.empty())
    return bad("serve submit is missing a netlist payload");
  if (!readU64String(doc, "seed", &r.seed, kOptional)) return badKey("seed");
  if (!readI64(doc, "jobs", &r.jobs, kOptional)) return badKey("jobs");
  if (r.jobs < 1 || r.jobs > kMaxCaseJobs)
    return bad("serve submit jobs must be in 1.." +
               std::to_string(kMaxCaseJobs));
  if (!readBool(doc, "isolate", &r.isolate, kOptional))
    return badKey("isolate");
  if (!readBool(doc, "detach", &r.detach, kOptional)) return badKey("detach");
  if (!readString(doc, "fault_inject", &r.faultInject, kOptional))
    return badKey("fault_inject");
  return r;
}

std::string encodeAccepted(const Accepted& r) {
  std::ostringstream os;
  bool first = true;
  os << "{";
  appendKv(os, "type", std::string("accepted"), &first);
  appendKv(os, "job", r.job, &first);
  os << "}";
  return os.str();
}

Result<Accepted> decodeAccepted(std::string_view payload) {
  Result<JsonValue> parsed = parseTyped(payload, "accepted");
  if (!parsed.isOk()) return parsed.status();
  Accepted r;
  if (!readString(parsed.value(), "job", &r.job, kOptional))
    return badKey("job");
  if (r.job.empty()) return bad("serve accepted has an empty job id");
  return r;
}

std::string encodeRejected(const Rejected& r) {
  std::ostringstream os;
  bool first = true;
  os << "{";
  appendKv(os, "type", std::string("rejected"), &first);
  appendKv(os, "reason", r.reason, &first);
  appendKv(os, "detail", r.detail, &first);
  os << "}";
  return os.str();
}

Result<Rejected> decodeRejected(std::string_view payload) {
  Result<JsonValue> parsed = parseTyped(payload, "rejected");
  if (!parsed.isOk()) return parsed.status();
  Rejected r;
  if (!readString(parsed.value(), "reason", &r.reason, kOptional))
    return badKey("reason");
  if (r.reason.empty()) return bad("serve rejected has an empty reason");
  if (!readString(parsed.value(), "detail", &r.detail, kOptional))
    return badKey("detail");
  return r;
}

std::string encodeJobRef(const JobRef& r) {
  std::ostringstream os;
  bool first = true;
  os << "{";
  appendKv(os, "type", std::string("job_ref"), &first);
  appendKv(os, "job", r.job, &first);
  os << "}";
  return os.str();
}

Result<JobRef> decodeJobRef(std::string_view payload) {
  Result<JsonValue> parsed = parseTyped(payload, "job_ref");
  if (!parsed.isOk()) return parsed.status();
  JobRef r;
  if (!readString(parsed.value(), "job", &r.job, kOptional))
    return badKey("job");
  if (r.job.empty()) return bad("serve job ref has an empty job id");
  return r;
}

std::string encodeJobState(const JobState& r) {
  std::ostringstream os;
  bool first = true;
  os << "{";
  appendKv(os, "type", std::string("job_state"), &first);
  appendKv(os, "job", r.job, &first);
  appendKv(os, "state", r.state, &first);
  appendKv(os, "attempt", r.attempt, &first);
  appendKv(os, "exit_code", r.exitCode, &first);
  appendKv(os, "cause", r.cause, &first);
  appendKv(os, "detail", r.detail, &first);
  appendKv(os, "report", r.reportText, &first);
  appendKv(os, "out", r.outText, &first);
  os << "}";
  return os.str();
}

Result<JobState> decodeJobState(std::string_view payload) {
  Result<JsonValue> parsed = parseTyped(payload, "job_state");
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& doc = parsed.value();
  JobState r;
  if (!readString(doc, "job", &r.job, kOptional)) return badKey("job");
  if (!readString(doc, "state", &r.state, kOptional)) return badKey("state");
  if (r.state.empty()) return bad("serve job state has an empty state");
  if (!readI64(doc, "attempt", &r.attempt, kOptional))
    return badKey("attempt");
  if (!readI64(doc, "exit_code", &r.exitCode, kOptional))
    return badKey("exit_code");
  if (!readString(doc, "cause", &r.cause, kOptional)) return badKey("cause");
  if (!readString(doc, "detail", &r.detail, kOptional))
    return badKey("detail");
  if (!readString(doc, "report", &r.reportText, kOptional))
    return badKey("report");
  if (!readString(doc, "out", &r.outText, kOptional)) return badKey("out");
  return r;
}

}  // namespace syseco::serve
