#ifndef VEAL_TESTS_TESTING_GOLDEN_H_
#define VEAL_TESTS_TESTING_GOLDEN_H_

/**
 * @file
 * Golden files under VEAL_GOLDEN_DIR (a compile definition of each test
 * that uses them).  VEAL_EXPECT_GOLDEN compares a test's text with its
 * golden; run the test with VEAL_UPDATE_GOLDEN=1 to rewrite the golden
 * instead, which reports the test as skipped.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace veal::testing {

inline std::string
goldenPath(const std::string& name)
{
    return std::string(VEAL_GOLDEN_DIR) + "/" + name;
}

/** The text of golden @p name; a missing file fails the test. */
inline std::string
readGolden(const std::string& name)
{
    std::ifstream in(goldenPath(name));
    EXPECT_TRUE(in.good())
        << "missing " << goldenPath(name)
        << "; run with VEAL_UPDATE_GOLDEN=1 to create it";
    std::ostringstream expected;
    expected << in.rdbuf();
    return expected.str();
}

/**
 * Rewrite golden @p name with @p actual and skip the test when
 * VEAL_UPDATE_GOLDEN is set; otherwise expect @p actual to equal the
 * golden, blaming @p what ("<what> drifted; ...") when it does not.
 * Use it through VEAL_EXPECT_GOLDEN, which returns from the test after
 * a refresh.
 */
inline void
expectGolden(const std::string& actual, const std::string& name,
             const std::string& what)
{
    if (std::getenv("VEAL_UPDATE_GOLDEN") != nullptr) {
        std::filesystem::create_directories(VEAL_GOLDEN_DIR);
        std::ofstream out(goldenPath(name), std::ios::trunc);
        out << actual;
        ASSERT_TRUE(out.good()) << "failed writing " << goldenPath(name);
        GTEST_SKIP() << "golden refreshed: " << goldenPath(name);
    }
    EXPECT_EQ(actual, readGolden(name))
        << what << " drifted; if the change is intentional, refresh with "
        << "VEAL_UPDATE_GOLDEN=1 and review the diff";
}

}  // namespace veal::testing

/** expectGolden(), then return from the test if it refreshed the file
    or failed to write it. */
#define VEAL_EXPECT_GOLDEN(actual, name, what)                          \
    do {                                                                \
        ::veal::testing::expectGolden((actual), (name), (what));        \
        if (::testing::Test::IsSkipped() ||                             \
            ::testing::Test::HasFatalFailure())                         \
            return;                                                     \
    } while (0)

#endif  // VEAL_TESTS_TESTING_GOLDEN_H_
