#include "veal/support/logging.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "veal/support/assert.h"

namespace veal {
namespace {

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("internal invariant ", "broken"),
                 "veal: panic: internal invariant broken");
}

TEST(PanicGuardTest, GuardedPanicThrowsInsteadOfAborting)
{
    ScopedPanicGuard guard;
    EXPECT_TRUE(ScopedPanicGuard::active());
    try {
        panic("tripped on purpose: ", 42);
        FAIL() << "panic returned";
    } catch (const PanicError& error) {
        EXPECT_STREQ(error.what(), "tripped on purpose: 42");
    }
}

TEST(PanicGuardTest, GuardsNest)
{
    ScopedPanicGuard outer;
    {
        ScopedPanicGuard inner;
        EXPECT_THROW(panic("inner"), PanicError);
    }
    // Still guarded by the outer scope.
    EXPECT_TRUE(ScopedPanicGuard::active());
    EXPECT_THROW(panic("outer"), PanicError);
}

TEST(PanicGuardTest, GuardIsThreadLocal)
{
    ScopedPanicGuard guard;
    std::thread other([] { EXPECT_FALSE(ScopedPanicGuard::active()); });
    other.join();
    EXPECT_TRUE(ScopedPanicGuard::active());
}

TEST(PanicGuardTest, GuardedAssertThrows)
{
    ScopedPanicGuard guard;
    const int ii = 0;
    EXPECT_THROW(VEAL_ASSERT(ii >= 1, "bad II ", ii), PanicError);
}

TEST(LoggingDeathTest, FatalExitsWithStatusOne)
{
    EXPECT_EXIT(fatal("bad configuration: ", 3),
                ::testing::ExitedWithCode(1),
                "veal: fatal: bad configuration: 3");
}

}  // namespace
}  // namespace veal
