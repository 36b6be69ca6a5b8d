// Error propagation for asynchronous completion callbacks.
//
// `Result<T>` is a tiny value-or-error sum type: transport and
// middleware layers hand one to connect/accept callbacks instead of
// throwing across the event loop.
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace padico::core {

/// Coarse outcome classification shared by all layers.
enum class Status {
  ok,
  refused,      // remote had no listener on the port
  unreachable,  // no common network / driver to the remote node
  timeout,
  error,  // anything else; see Error::message
};

constexpr const char* to_string(Status s) {
  switch (s) {
    case Status::ok: return "ok";
    case Status::refused: return "refused";
    case Status::unreachable: return "unreachable";
    case Status::timeout: return "timeout";
    case Status::error: return "error";
  }
  return "unknown";
}

struct Error {
  Status status = Status::error;
  std::string message;
};

template <typename T>
class Result {
 public:
  Result(T value) : rep_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Error e) : rep_(std::move(e)) {}      // NOLINT: implicit by design

  static Result err(Status s, std::string message = {}) {
    return Result(Error{s, std::move(message)});
  }

  bool ok() const noexcept { return std::holds_alternative<T>(rep_); }
  explicit operator bool() const noexcept { return ok(); }

  T& operator*() & {
    assert(ok());
    return std::get<T>(rep_);
  }
  const T& operator*() const& {
    assert(ok());
    return std::get<T>(rep_);
  }
  T&& operator*() && {
    assert(ok());
    return std::get<T>(std::move(rep_));
  }
  T* operator->() {
    assert(ok());
    return &std::get<T>(rep_);
  }

  const Error& error() const {
    assert(!ok());
    return std::get<Error>(rep_);
  }
  Status status() const noexcept {
    return ok() ? Status::ok : std::get<Error>(rep_).status;
  }

 private:
  std::variant<T, Error> rep_;
};

}  // namespace padico::core
