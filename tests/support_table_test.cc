#include "veal/support/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace veal {
namespace {

TEST(TextTableTest, RendersHeaderAndRows)
{
    TextTable table({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "22"});
    const std::string text = table.render();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("22"), std::string::npos);
}

TEST(TextTableTest, ColumnsAreAligned)
{
    TextTable table({"a", "b"});
    table.addRow({"xxxxx", "1"});
    table.addRow({"y", "2"});
    const std::string text = table.render();
    std::istringstream lines(text);
    std::string header;
    std::string rule;
    std::string row1;
    std::string row2;
    std::getline(lines, header);
    std::getline(lines, rule);
    std::getline(lines, row1);
    std::getline(lines, row2);
    // The second column starts at the same offset in both rows.
    EXPECT_EQ(row1.find('1'), row2.find('2'));
}

TEST(TextTableTest, RowCountTracksRows)
{
    // The render is a header line, a rule and one line per row.
    const auto lines = [](const TextTable& table) {
        const std::string text = table.render();
        return std::count(text.begin(), text.end(), '\n');
    };
    TextTable table({"x"});
    EXPECT_EQ(lines(table), 2);
    table.addRow({"1"});
    table.addRow({"2"});
    EXPECT_EQ(lines(table), 4);
}

TEST(TextTableTest, FormatDoubleRespectsPrecision)
{
    EXPECT_EQ(TextTable::formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::formatDouble(2.0, 0), "2");
    EXPECT_EQ(TextTable::formatDouble(-0.5, 1), "-0.5");
}

TEST(TextTableTest, StreamOperatorMatchesRender)
{
    TextTable table({"h"});
    table.addRow({"v"});
    std::ostringstream os;
    os << table;
    EXPECT_EQ(os.str(), table.render());
}

TEST(TextTableDeathTest, WrongArityPanics)
{
    TextTable table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "");
}

}  // namespace
}  // namespace veal
