#ifndef VEAL_TESTS_TESTING_FNV_H_
#define VEAL_TESTS_TESTING_FNV_H_

/**
 * @file
 * FNV-1a digests for golden tests: integers byte by byte (little
 * endian), doubles by their bits, strings byte by byte plus length.
 */

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "veal/support/fnv.h"

namespace veal::testing {

/** FNV-1a over 64-bit values (byte by byte) and strings. */
class Fnv {
  public:
    void add(std::uint64_t value) { hash_ = fnvFold64(hash_, value); }
    void add(std::int64_t value) { add(static_cast<std::uint64_t>(value)); }
    void add(int value) { add(static_cast<std::int64_t>(value)); }
    void add(bool value) { add(static_cast<std::int64_t>(value)); }
    void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
    void add(const std::string& text)
    {
        hash_ = fnvBytes(text.data(), text.size(), hash_);
        add(static_cast<std::uint64_t>(text.size()));
    }
    void add(const std::vector<int>& values)
    {
        add(static_cast<std::uint64_t>(values.size()));
        for (const int value : values)
            add(value);
    }

    std::string hex() const
    {
        char buffer[17];
        std::snprintf(buffer, sizeof(buffer), "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buffer;
    }

  private:
    std::uint64_t hash_ = kFnvOffsetBasis;
};

}  // namespace veal::testing

#endif  // VEAL_TESTS_TESTING_FNV_H_
