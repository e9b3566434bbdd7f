#ifndef VEAL_SUPPORT_LOGGING_H_
#define VEAL_SUPPORT_LOGGING_H_

/**
 * @file
 * Error-termination helpers in the gem5 style.  Both print one line to
 * stderr, "veal: fatal: <msg>" or "veal: panic: <msg>".
 *
 * - fatal():  the *user's* input/configuration makes continuing impossible;
 *             exits with status 1.
 * - panic():  an internal invariant of VEAL itself is broken; aborts.
 */

#include <sstream>
#include <stdexcept>
#include <string>

namespace veal {

/**
 * Thrown by panic() instead of aborting while a ScopedPanicGuard is
 * active on the panicking thread.  what() carries the panic message.
 */
class PanicError : public std::runtime_error {
  public:
    explicit PanicError(const std::string& message)
        : std::runtime_error(message)
    {}
};

/**
 * While alive, panics *on this thread* throw PanicError instead of
 * aborting the process.
 *
 * This exists for harnesses that probe internal invariants on purpose --
 * the differential fuzzer classifies a translator/executor panic as a
 * crash-guard outcome and keeps fuzzing.  Production code must never
 * swallow a PanicError: a tripped invariant still means the containing
 * result is garbage.  Guards nest; the thread-local flag clears when the
 * outermost guard dies.  Other threads keep the abort semantics.
 */
class ScopedPanicGuard {
  public:
    ScopedPanicGuard();
    ~ScopedPanicGuard();

    ScopedPanicGuard(const ScopedPanicGuard&) = delete;
    ScopedPanicGuard& operator=(const ScopedPanicGuard&) = delete;

    /** True when a guard is active on the calling thread. */
    static bool active();
};

namespace detail {

[[noreturn]] void fatalExit(const std::string& message);
[[noreturn]] void panicAbort(const std::string& message);

/** Stream-compose a message out of a variadic pack. */
template <typename... Args>
std::string
composeMessage(Args&&... args)
{
    if constexpr (sizeof...(Args) == 0) {
        return std::string();
    } else {
        std::ostringstream os;
        (os << ... << std::forward<Args>(args));
        return os.str();
    }
}

}  // namespace detail

/** Terminate because of a user-level error (bad config, bad input). */
template <typename... Args>
[[noreturn]] void
fatal(Args&&... args)
{
    detail::fatalExit(detail::composeMessage(std::forward<Args>(args)...));
}

/** Terminate because of an internal VEAL bug. */
template <typename... Args>
[[noreturn]] void
panic(Args&&... args)
{
    detail::panicAbort(detail::composeMessage(std::forward<Args>(args)...));
}

}  // namespace veal

#endif  // VEAL_SUPPORT_LOGGING_H_
