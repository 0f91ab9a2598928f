#ifndef GIR_COMMON_RESULT_H_
#define GIR_COMMON_RESULT_H_

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "common/status.h"

namespace gir {

namespace result_internal {

// Out of line and cold so the checked accessors stay a single
// predictable branch on the hot path.
[[noreturn]] __attribute__((noinline, cold)) inline void DieOnMissingValue(
    const Status& status) {
  std::fprintf(stderr, "Result::value() on an error: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace result_internal

// Result<T> carries either a value or a non-OK Status, mirroring
// absl::StatusOr. Accessing value() on an error prints the status and
// aborts in every build type; callers must check ok() first.
template <typename T>
class Result {
 public:
  // Intentionally implicit, so `return Status::...` and `return value;`
  // both work at call sites (same convention as absl::StatusOr).
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "OK Result must carry a value");
  }
  Result(T value) : value_(std::move(value)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CheckHasValue();
    return *value_;
  }
  T& value() & {
    CheckHasValue();
    return *value_;
  }
  T&& value() && {
    CheckHasValue();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckHasValue() const {
    if (!value_.has_value()) result_internal::DieOnMissingValue(status_);
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace gir

#endif  // GIR_COMMON_RESULT_H_
