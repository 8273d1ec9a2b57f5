#pragma once

// Recoverable errors for the untrusted ingestion path.
//
// UMC_ASSERT (util/assert.hpp) guards MODEL invariants — violations are
// library bugs and throw. User input (graph files, CLI flags) is not an
// invariant: malformed input is an expected runtime condition and must
// surface as a value the caller can inspect, report, and recover from.
// Expected<T> is the minimal expected-style result type the ingestion
// layers (graph/io, examples/mincut_cli) return instead of aborting.

#include <string>
#include <utility>
#include <variant>

#include "util/assert.hpp"

namespace umc {

enum class ErrorCode {
  kParse,     // token is not a number / line is structurally malformed
  kRange,     // value parsed but violates a documented bound
  kOverflow,  // value does not fit the target integer type
  kIo,        // file cannot be opened / read
  kUsage,     // bad command-line invocation
};

[[nodiscard]] inline const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::kParse: return "parse";
    case ErrorCode::kRange: return "range";
    case ErrorCode::kOverflow: return "overflow";
    case ErrorCode::kIo: return "io";
    case ErrorCode::kUsage: return "usage";
  }
  return "?";
}

struct Error {
  ErrorCode code = ErrorCode::kParse;
  std::string message;
  /// 1-based input line for parse/range errors; 0 when not applicable.
  int line = 0;

  [[nodiscard]] std::string to_string() const {
    std::string s = ::umc::to_string(code);
    s += " error";
    if (line > 0) {
      s += " at line ";
      s += std::to_string(line);
    }
    s += ": ";
    s += message;
    return s;
  }
};

/// Minimal expected-style result: holds either a T or an Error. Accessing
/// the wrong alternative is a programming error (UMC_ASSERT).
template <typename T>
class Expected {
 public:
  Expected(T value) : v_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  Expected(Error error) : v_(std::move(error)) {}      // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool has_value() const { return std::holds_alternative<T>(v_); }
  [[nodiscard]] explicit operator bool() const { return has_value(); }

  [[nodiscard]] T& value() {
    UMC_ASSERT_MSG(has_value(), "Expected accessed without a value");
    return std::get<T>(v_);
  }
  [[nodiscard]] const T& value() const {
    UMC_ASSERT_MSG(has_value(), "Expected accessed without a value");
    return std::get<T>(v_);
  }
  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }

  [[nodiscard]] const Error& error() const {
    UMC_ASSERT_MSG(!has_value(), "Expected::error() on a value");
    return std::get<Error>(v_);
  }

 private:
  std::variant<T, Error> v_;
};

}  // namespace umc
