#ifndef VEAL_SUPPORT_FNV_H_
#define VEAL_SUPPORT_FNV_H_

/**
 * @file
 * 64-bit FNV-1a, the hash behind every VEAL checksum and digest: store
 * records, blobs and manifest lines, service and fleet digests, bench
 * digests.  Each caller keeps its own folding pattern on top.
 */

#include <cstddef>
#include <cstdint>

namespace veal {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** Fold the eight bytes of @p value, least significant first.  Two
    statements, not a step helper: through one, GCC schedules the
    service's fourteen-fold request digest differently. */
constexpr std::uint64_t
fnvFold64(std::uint64_t hash, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (byte * 8)) & 0xffull;
        hash *= kFnvPrime;
    }
    return hash;
}

/** Fold @p size bytes at @p data into @p hash. */
inline std::uint64_t
fnvBytes(const void* data, std::size_t size,
         std::uint64_t hash = kFnvOffsetBasis)
{
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= kFnvPrime;
    }
    return hash;
}

}  // namespace veal

#endif  // VEAL_SUPPORT_FNV_H_
