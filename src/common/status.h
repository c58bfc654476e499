#ifndef HERMES_COMMON_STATUS_H_
#define HERMES_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace hermes {

/// Coarse error category carried by a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< Malformed input from the caller.
  kNotFound,          ///< Lookup target does not exist.
  kAlreadyExists,     ///< Insert target already present.
  kUnavailable,       ///< Source temporarily unreachable (retryable).
  kDeadlineExceeded,  ///< Per-call or per-query deadline expired.
  kFailedPrecondition,  ///< Operation illegal in the object's current state.
  kParseError,        ///< Mediator-language text failed to parse.
  kTypeError,         ///< Value of an unexpected runtime type.
  kUnimplemented,     ///< Feature not supported by this domain/module.
  kInternal,          ///< Invariant violation inside the library.
  kResourceExhausted,  ///< Refused by a full QueryPool submission queue.
};

/// Human-readable name of a StatusCode ("Ok", "NotFound", ...).
const char* StatusCodeName(StatusCode code);

/// Error-or-success result of an operation, in the RocksDB/Arrow style.
///
/// Library functions that can fail return a Status (or a Result<T>, see
/// result.h) instead of throwing; exceptions never cross the public API.
class Status {
 public:
  /// Default-constructed Status is OK.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsParseError() const { return code_ == StatusCode::kParseError; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }

  /// "Ok" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Propagates a non-OK Status to the caller.
#define HERMES_RETURN_IF_ERROR(expr)                  \
  do {                                                \
    ::hermes::Status _st = (expr);                    \
    if (!_st.ok()) return _st;                        \
  } while (false)

}  // namespace hermes

#endif  // HERMES_COMMON_STATUS_H_
