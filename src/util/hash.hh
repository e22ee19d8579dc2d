/**
 * @file
 * 64-bit FNV-1a: the one hash behind every content address and digest
 * in the library -- spec hashes and cache keys (api/spec.hh), netlist
 * structural hashes and result checksums (api/facade.hh), NoC fabric
 * observation digests (noc/plan.hh) and gen spec hashes (gen/spec.hh).
 *
 * Words fold low byte first whatever the host byte order, so a hash is
 * a function of the values alone.  A zero byte only multiplies
 * ((h ^ 0) * P == h * P), so fnvU64 folds a word's significant bytes
 * one by one and its k high zero bytes as one multiply by P^k: most
 * words hashed per epoch (pulse counts, sizes, ids) are small, and the
 * hash of every word is the same as byte by byte.
 */

#ifndef USFQ_UTIL_HASH_HH
#define USFQ_UTIL_HASH_HH

#include <array>
#include <bit>
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

/** kFnvPrime^k mod 2^64 for k = 0..8: the fold of k zero bytes. */
inline constexpr std::array<std::uint64_t, 9> kFnvPrimePowers = [] {
    std::array<std::uint64_t, 9> p{};
    p[0] = 1;
    for (std::size_t k = 1; k < p.size(); ++k)
        p[k] = p[k - 1] * kFnvPrime;
    return p;
}();

/** FNV-1a over the 8 bytes of @p v, low byte first. */
constexpr std::uint64_t
fnvU64(std::uint64_t h, std::uint64_t v)
{
    const int bytes = (static_cast<int>(std::bit_width(v)) + 7) / 8;
    for (int i = 0; i < bytes; ++i) {
        h ^= (v >> (8 * i)) & 0xffULL;
        h *= kFnvPrime;
    }
    return h * kFnvPrimePowers[static_cast<std::size_t>(8 - bytes)];
}

/** A length-prefixed string: its size as a word, then its bytes. */
inline std::uint64_t
fnvStr(std::uint64_t h, std::string_view s)
{
    return fnv1a(fnvU64(h, s.size()), s.data(), s.size());
}

} // namespace usfq

#endif // USFQ_UTIL_HASH_HH
