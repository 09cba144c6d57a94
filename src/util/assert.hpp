// ifsyn/util/assert.hpp
//
// Internal-error checking for the ifsyn library.
//
// IFSYN_ASSERT guards programming errors (violated invariants, contract
// breaches inside the library). It throws ifsyn::InternalError so that unit
// tests can verify contracts without killing the process. Recoverable
// conditions that a *user* of the library can trigger (an infeasible bus
// group, a malformed specification) are reported through ifsyn::Status
// instead -- see util/status.hpp.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace ifsyn {

/// Thrown when an internal invariant of the library is violated.
/// Catching this is only appropriate in tests; production callers should
/// treat it as a bug in ifsyn or in how it was driven.
class InternalError : public std::logic_error {
 public:
  explicit InternalError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn, gnu::cold, gnu::noinline]] inline void assert_fail(
    const char* expr, const char* file, int line, const std::string& msg) {
  std::ostringstream os;
  os << "ifsyn internal error: assertion `" << expr << "` failed at " << file
     << ":" << line;
  if (!msg.empty()) os << ": " << msg;
  throw InternalError(os.str());
}

/// IFSYN_ASSERT_MSG's failure path: formats the message by calling
/// `stream(os)`. Out of line, so the stream code stays out of the
/// functions that assert and they stay small enough to inline.
template <class Stream>
[[noreturn, gnu::cold, gnu::noinline]] void assert_fail_streamed(
    const char* expr, const char* file, int line, const Stream& stream) {
  std::ostringstream os;
  stream(os);
  assert_fail(expr, file, line, os.str());
}

}  // namespace detail
}  // namespace ifsyn

/// Assert an internal invariant. Always enabled (the checks guarding the
/// synthesis algorithms are cheap relative to the work they protect).
#define IFSYN_ASSERT(cond)                                               \
  do {                                                                   \
    if (!(cond))                                                         \
      ::ifsyn::detail::assert_fail(#cond, __FILE__, __LINE__, {});       \
  } while (false)

/// Assert with an explanatory message (streamed, so `<<` chains work).
#define IFSYN_ASSERT_MSG(cond, msg)                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::ifsyn::detail::assert_fail_streamed(                             \
          #cond, __FILE__, __LINE__,                                     \
          [&](std::ostream& ifsyn_assert_os_) { ifsyn_assert_os_ << msg; }); \
    }                                                                    \
  } while (false)
