#include "veal/support/logging.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace veal {

namespace {

/** Depth of nested ScopedPanicGuards on this thread. */
int&
panicGuardDepth()
{
    thread_local int depth = 0;
    return depth;
}

}  // namespace

namespace detail {

void
fatalExit(const std::string& message)
{
    std::fprintf(stderr, "veal: fatal: %s\n", message.c_str());
    std::exit(1);
}

void
panicAbort(const std::string& message)
{
    if (ScopedPanicGuard::active())
        throw PanicError(message);
    std::fprintf(stderr, "veal: panic: %s\n", message.c_str());
    std::abort();
}

}  // namespace detail

ScopedPanicGuard::ScopedPanicGuard()
{
    ++panicGuardDepth();
}

ScopedPanicGuard::~ScopedPanicGuard()
{
    --panicGuardDepth();
}

bool
ScopedPanicGuard::active()
{
    return panicGuardDepth() > 0;
}

}  // namespace veal
