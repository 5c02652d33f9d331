#pragma once
// Structured error propagation for the resource-governed engine cascade.
//
// The paper's engine is explicitly resource-constrained: validation runs
// under a SAT conflict budget (§5.1) and completeness is preserved by
// degrading to the cone-clone fallback (Proposition 1). This header gives
// those outcomes a first-class representation: a `Status` carries what
// happened (ok / budget exhausted / deadline exceeded / invalid input /
// internal) plus a human-readable diagnostic, and `Result<T>` is a value
// carrying either a payload or a non-ok Status. `StatusError` bridges the
// few places that must unwind through exception-only code (the BDD
// package, parsers) back into Status-returning call sites.

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace syseco {

enum class StatusCode {
  kOk = 0,
  kBudgetExhausted,   ///< a conflict / BDD-node ledger ran dry
  kDeadlineExceeded,  ///< the wall-clock deadline passed
  kInvalidInput,      ///< malformed file or nonsensical configuration
  kInternal,          ///< invariant violation or allocation failure
};

inline const char* statusCodeName(StatusCode c) {
  switch (c) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kBudgetExhausted: return "budget-exhausted";
    case StatusCode::kDeadlineExceeded: return "deadline-exceeded";
    case StatusCode::kInvalidInput: return "invalid-input";
    case StatusCode::kInternal: return "internal";
  }
  return "unknown";
}

/// Inverse of statusCodeName; nullopt for names from a newer schema.
inline std::optional<StatusCode> statusCodeFromName(std::string_view name) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kBudgetExhausted,
        StatusCode::kDeadlineExceeded, StatusCode::kInvalidInput,
        StatusCode::kInternal}) {
    if (name == statusCodeName(c)) return c;
  }
  return std::nullopt;
}

class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }
  static Status budgetExhausted(std::string msg) {
    return Status(StatusCode::kBudgetExhausted, std::move(msg));
  }
  static Status deadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status invalidInput(std::string msg) {
    return Status(StatusCode::kInvalidInput, std::move(msg));
  }
  static Status internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool isOk() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// True for the two resource-exhaustion codes - the recoverable family
  /// that the engine answers with graceful degradation rather than failure.
  bool isResourceExhausted() const {
    return code_ == StatusCode::kBudgetExhausted ||
           code_ == StatusCode::kDeadlineExceeded;
  }

  std::string toString() const {
    std::string s = statusCodeName(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Exception shim for code that must unwind through non-Status layers
/// (e.g. the BDD package's recursive builders). Callers at phase
/// boundaries catch it and continue with the carried Status.
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(Status status)
      : std::runtime_error(status.toString()), status_(std::move(status)) {}
  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Either a value or a non-ok Status. Deliberately minimal: the engine
/// only needs construction, interrogation and move-out.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {}  // NOLINT
  Result(StatusCode code, std::string message)
      : status_(code, std::move(message)) {}

  bool isOk() const { return status_.isOk() && value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() { return *value_; }
  const T& value() const { return *value_; }
  T take() { return std::move(*value_); }

  T valueOr(T fallback) const {
    return value_.has_value() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace syseco
