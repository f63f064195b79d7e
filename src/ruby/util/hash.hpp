#pragma once

/**
 * @file
 * Shared non-cryptographic hashing utilities.
 *
 * One home for the FNV-1a helpers that used to live as private
 * copies inside the router and the response cache. Two consumers
 * share them:
 *
 *  - the router's consistent-hash ring (`fnv1aBytes` over the routing
 *    key string), and
 *  - the serving response cache (shard selection over canonical
 *    request strings).
 *
 * The exact output values are load-bearing: ring placement decides
 * which shard owns a workload (and therefore which shard is warm for
 * it). `tests/model/hash_test.cpp` pins concrete values so a
 * refactor here cannot silently re-shard the world.
 */

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ruby::hashing
{

/** FNV-1a 64-bit offset basis. */
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
/** FNV-1a 64-bit prime. */
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/**
 * The consistent-hash ring's historical seed. This is NOT the
 * canonical FNV basis — the original router spelled the offset in
 * decimal and dropped a digit (14695981039346656037 became
 * 1469598103934665603). The ring layout built from it is observable
 * behavior (shard ownership decides which backend is warm for a
 * shape), so the constant is frozen exactly as shipped.
 */
constexpr std::uint64_t kRingOffset = 1469598103934665603ull;

/** Round up to the next power of two (n >= 1). */
constexpr std::size_t
ceilPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

/**
 * Plain byte-wise FNV-1a over a string. With the
 * default seed this is the response cache's shard selector; seeded
 * with kRingOffset it is the consistent-hash ring's key hash. The
 * produced values place virtual nodes on the ring, so they must stay
 * bit-identical across refactors.
 */
constexpr std::uint64_t
fnv1aBytes(std::string_view bytes, std::uint64_t seed = kFnvOffset)
{
    std::uint64_t hash = seed;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= kFnvPrime;
    }
    return hash;
}

} // namespace ruby::hashing
