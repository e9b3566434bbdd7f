#ifndef VEAL_SUPPORT_TABLE_H_
#define VEAL_SUPPORT_TABLE_H_

/**
 * @file
 * Minimal fixed-width text-table formatter used by the benchmark harness to
 * print paper-style rows.
 */

#include <iosfwd>
#include <string>
#include <vector>

namespace veal {

/** Accumulates rows of cells and renders them with aligned columns. */
class TextTable {
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append one row; must have exactly as many cells as headers. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format a double with @p precision digits. */
    static std::string formatDouble(double value, int precision = 2);

    /** Render with a header rule and 2-space column gaps. */
    std::string render() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Stream the rendered table. */
std::ostream& operator<<(std::ostream& os, const TextTable& table);

}  // namespace veal

#endif  // VEAL_SUPPORT_TABLE_H_
