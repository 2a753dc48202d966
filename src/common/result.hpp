// Lightweight error propagation for the public API: Status (ok | message)
// and Result<T> (value | message). Replaces the seed's assert()-on-bad-input
// convention so callers can handle unknown strategy names, malformed
// formats and size mismatches without aborting the process.
//
// Conventions:
//  - Library entry points that can fail on *user input* return Status /
//    Result<T>.
//  - Call sites holding inputs that are correct by construction use
//    .expect("context"), which aborts with a readable message (and, unlike
//    assert, still fires under NDEBUG).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace bbal {

class Status {
 public:
  Status() = default;  ///< ok
  [[nodiscard]] static Status ok() { return Status(); }
  [[nodiscard]] static Status error(std::string message) {
    Status s;
    s.error_ = std::move(message);
    return s;
  }

  [[nodiscard]] bool is_ok() const { return !error_.has_value(); }
  [[nodiscard]] explicit operator bool() const { return is_ok(); }
  [[nodiscard]] const std::string& message() const {
    static const std::string kOk;
    return error_ ? *error_ : kOk;
  }

  /// Abort with a readable message when not ok. For call sites whose inputs
  /// are correct by construction.
  void expect(const char* context) const {
    if (is_ok()) return;
    std::fprintf(stderr, "bbal: %s: %s\n", context, error_->c_str());
    std::abort();
  }

 private:
  std::optional<std::string> error_;
};

template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  [[nodiscard]] static Result error(std::string message) {
    Result r;
    r.error_ = std::move(message);
    return r;
  }

  [[nodiscard]] bool is_ok() const { return value_.has_value(); }
  [[nodiscard]] explicit operator bool() const { return is_ok(); }
  [[nodiscard]] const std::string& message() const { return error_; }
  [[nodiscard]] Status status() const {
    return is_ok() ? Status::ok() : Status::error(error_);
  }

  [[nodiscard]] T& value() & { return *value_; }
  [[nodiscard]] const T& value() const& { return *value_; }
  [[nodiscard]] T&& value() && { return std::move(*value_); }

  [[nodiscard]] T value_or(T fallback) const& {
    return value_ ? *value_ : std::move(fallback);
  }

  /// Unwrap or abort with a readable message (see Status::expect).
  [[nodiscard]] T expect(const char* context) && {
    if (!value_) {
      std::fprintf(stderr, "bbal: %s: %s\n", context, error_.c_str());
      std::abort();
    }
    return std::move(*value_);
  }

 private:
  Result() = default;
  std::optional<T> value_;
  std::string error_;
};

}  // namespace bbal
