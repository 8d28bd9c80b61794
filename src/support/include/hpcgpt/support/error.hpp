#pragma once

#include <stdexcept>
#include <string>

namespace hpcgpt {

/// Base class for all errors thrown by the hpcgpt libraries.
///
/// Every subsystem throws a subclass of Error so callers can catch either
/// the precise category (ParseError, ...) or everything hpcgpt-related.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed input while parsing text formats (JSON, mini-language, ...).
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

/// A caller violated an API precondition (bad shape, empty dataset, ...).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// An operation that is well-formed but unsupported by the component
/// (e.g. a detector asked to analyse a program it cannot handle).
class Unsupported : public Error {
 public:
  explicit Unsupported(const std::string& what) : Error(what) {}
};

/// Throws InvalidArgument with `message` when `condition` is false.
inline void require(bool condition, const std::string& message) {
  if (!condition) throw InvalidArgument(message);
}

/// Same for a literal message: the std::string is built only when the
/// check fails, so a passing check on a hot path never allocates.
inline void require(bool condition, const char* message) {
  if (!condition) throw InvalidArgument(message);
}

}  // namespace hpcgpt
