// Error types shared across the polyroots library.
//
// The library throws exceptions only for genuine contract violations or
// input degeneracies (e.g. a non-normal remainder sequence); ordinary
// control flow never uses exceptions.
#pragma once

#include <stdexcept>
#include <string>

namespace pr {

/// Base class of all polyroots exceptions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an argument violates a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown by BigInt division when the divisor is zero.
class DivisionByZero : public Error {
 public:
  DivisionByZero() : Error("pr::BigInt: division by zero") {}
};

/// Thrown when the subresultant remainder sequence of the input is not
/// *normal* (some quotient has degree != 1).  The tree algorithm of the
/// paper requires a normal sequence; find_real_roots_parallel catches this
/// (and stage 1's non-real diagnostic) and falls back to the general-input
/// path, Descartes isolation + QIR, when allowed.
class NonNormalSequence : public Error {
 public:
  explicit NonNormalSequence(const std::string& what) : Error(what) {}
};

/// Thrown when an input polynomial has a non-real root (detected, e.g., by
/// a Sturm count smaller than the squarefree degree).
class NotAllRootsReal : public Error {
 public:
  explicit NotAllRootsReal(const std::string& what) : Error(what) {}
};

/// Internal invariant failure; indicates a library bug, not a user error.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

/// Throws InternalError if `cond` is false.  Used for cheap invariant
/// checks that must stay on in release builds.
void check_internal(bool cond, const char* msg);

/// Throws InvalidArgument if `cond` is false.
void check_arg(bool cond, const char* msg);

}  // namespace pr
