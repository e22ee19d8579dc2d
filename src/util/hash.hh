/**
 * @file
 * 64-bit FNV-1a: the one hash behind every content address and digest
 * in the library -- spec hashes and cache keys (api/spec.hh), netlist
 * structural hashes and result checksums (api/facade.hh), NoC fabric
 * observation digests (noc/plan.hh) and gen spec hashes (gen/spec.hh).
 *
 * Words fold low byte first whatever the host byte order, so a hash is
 * a function of the values alone.
 */

#ifndef USFQ_UTIL_HASH_HH
#define USFQ_UTIL_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace usfq
{

/** FNV-1a offset basis (the hash of no bytes) and prime. */
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** FNV-1a over @p len bytes at @p data, continuing from @p h. */
inline std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a over the 8 bytes of @p v, low byte first. */
constexpr std::uint64_t
fnvU64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffULL;
        h *= kFnvPrime;
    }
    return h;
}

/** A length-prefixed string: its size as a word, then its bytes. */
inline std::uint64_t
fnvStr(std::uint64_t h, std::string_view s)
{
    return fnv1a(fnvU64(h, s.size()), s.data(), s.size());
}

} // namespace usfq

#endif // USFQ_UTIL_HASH_HH
