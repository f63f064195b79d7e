/**
 * @file
 * The refill sampler, Mapspace::sample(rng, out, scratch): whatever
 * `out` held, a refill equals a fresh sample(rng) drawn from the same
 * stream and leaves the stream in the same state; both reproduce the
 * pinned draw streams of the allocating sampler they replaced; and a
 * warm refill performs no heap allocation. This binary replaces the
 * global operator new to count allocations.
 */

#include "ruby/mapspace/mapspace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "ruby/arch/presets.hpp"
#include "ruby/common/error.hpp"
#include "ruby/common/rng.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/workload/conv.hpp"
#include "ruby/workload/gemm.hpp"
#include "ruby/workload/suites/suites.hpp"

namespace
{

std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace ruby
{
namespace
{

const MapspaceVariant kVariants[] = {
    MapspaceVariant::PFM, MapspaceVariant::Ruby, MapspaceVariant::RubyS,
    MapspaceVariant::RubyT};

/** One (problem, architecture, constraint preset) to sample from. */
struct Case
{
    const char *name;
    Problem prob;
    ArchSpec arch;
    ConstraintPreset preset;
};

/** Eyeriss-RS and Simba on AlexNet conv2, plus a large-dimension GEMM
 *  that grows the divisor table well past its first size. */
const std::vector<Case> &
cases()
{
    static const std::vector<Case> all = [] {
        std::vector<Case> v;
        v.push_back({"eyeriss", makeConv(alexnetLayer2()), makeEyeriss(),
                     ConstraintPreset::EyerissRS});
        v.push_back({"simba", makeConv(alexnetLayer2()), makeSimba(),
                     ConstraintPreset::Simba});
        v.push_back({"toy-gemm", makeGemm(1000, 4096, 35),
                     makeToyGlb(16), ConstraintPreset::None});
        return v;
    }();
    return all;
}

void
expectSameMapping(const Mapping &a, const Mapping &b)
{
    EXPECT_EQ(a.toString(), b.toString());
    for (DimId d = 0; d < a.problem().numDims(); ++d)
        for (int k = 0; k < a.numSlots(); ++k) {
            EXPECT_EQ(a.factor(d, k).steady, b.factor(d, k).steady);
            EXPECT_EQ(a.factor(d, k).tail, b.factor(d, k).tail);
        }
    for (int l = 0; l < a.arch().numLevels(); ++l) {
        EXPECT_EQ(a.permutation(l), b.permutation(l));
        for (DimId d = 0; d < a.problem().numDims(); ++d)
            EXPECT_EQ(a.spatialAxis(l, d), b.spatialAxis(l, d));
    }
    EXPECT_EQ(a.keepTable(), b.keepTable());
    EXPECT_EQ(a.keepMask(), b.keepMask());
    EXPECT_EQ(a.axisYMask(), b.axisYMask());
}

/** Every decision of a mapping, as text: the digest input. */
std::string
fingerprint(const Mapping &m)
{
    std::string s = m.toString();
    for (DimId d = 0; d < m.problem().numDims(); ++d)
        for (int k = 0; k < m.numSlots(); ++k)
            s += std::to_string(m.factor(d, k).steady) + "/" +
                 std::to_string(m.factor(d, k).tail) + ",";
    for (int l = 0; l < m.arch().numLevels(); ++l)
        for (DimId d : m.permutation(l))
            s += std::to_string(d);
    s += "|" + std::to_string(m.keepMask()) + "|" +
         std::to_string(m.axisYMask());
    return s;
}

std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Sampler, RefillMatchesFreshDraw)
{
    for (const Case &c : cases()) {
        const MappingConstraints cons =
            makeConstraints(c.preset, c.prob, c.arch);
        for (MapspaceVariant v : kVariants) {
            const Mapspace space(cons, v);
            for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
                SCOPED_TRACE(std::string(c.name) + " " + variantName(v) +
                             " seed " + std::to_string(seed));
                // The refill target starts out holding another draw.
                Rng other(seed + 1000);
                Mapping held = space.sample(other);
                Rng fresh_rng(seed), refill_rng(seed);
                SampleScratch scratch;
                for (int i = 0; i < 60; ++i) {
                    const Mapping fresh = space.sample(fresh_rng);
                    space.sample(refill_rng, held, scratch);
                    expectSameMapping(fresh, held);
                }
                EXPECT_EQ(fresh_rng.next(), refill_rng.next());
            }
        }
    }
}

TEST(Sampler, RefillIntoMappingWithEmptyAxes)
{
    for (const Case &c : cases()) {
        const MappingConstraints cons =
            makeConstraints(c.preset, c.prob, c.arch);
        for (MapspaceVariant v : kVariants) {
            SCOPED_TRACE(std::string(c.name) + " " + variantName(v));
            const Mapspace space(cons, v);
            Rng other(99);
            const Mapping donor = space.sample(other);
            std::vector<std::vector<std::uint64_t>> steady;
            for (const FactorChain &chain : donor.chains()) {
                steady.emplace_back();
                for (const FactorPair &f : chain.factors())
                    steady.back().push_back(f.steady);
            }
            std::vector<std::vector<DimId>> perms;
            for (int l = 0; l < c.arch.numLevels(); ++l)
                perms.push_back(donor.permutation(l));
            Mapping bare(c.prob, c.arch, steady, perms,
                         donor.keepTable());
            ASSERT_TRUE(bare.axisTable().empty());

            Rng fresh_rng(5), refill_rng(5);
            SampleScratch scratch;
            const Mapping fresh = space.sample(fresh_rng);
            space.sample(refill_rng, bare, scratch);
            expectSameMapping(fresh, bare);
            EXPECT_EQ(fresh_rng.next(), refill_rng.next());
        }
    }
}

/**
 * Digests of 400 draws (seed 17) and the next stream value, recorded
 * from the allocating sampler that built a new Mapping per draw. The
 * refill path must reproduce that stream bit for bit.
 */
TEST(Sampler, ReproducesPinnedStreams)
{
    struct Pin
    {
        std::uint64_t digest;
        std::uint64_t next;
    };
    // [case][variant], variants in kVariants order.
    const Pin pins[3][4] = {
        {{0x197c6168b3a7eefbull, 0xcf65ea824bfb5b45ull},
         {0xd5e4f4958d7b5fc0ull, 0xbd59aae43bcb2206ull},
         {0xae572b4986356405ull, 0xe72f35c2d8281e90ull},
         {0x7b84f2475617d400ull, 0x07805de729406efbull}},
        {{0x2b2f4da499969abfull, 0x7739e18b061f8e11ull},
         {0xb89860072b65961dull, 0x0ac4c18b64768427ull},
         {0x9864e15f193b5d7aull, 0x0fcfa3498b60fc50ull},
         {0xc70bc6bbce02668cull, 0x4c484fb7da2fdedeull}},
        {{0xf1570b2d7182e1d6ull, 0xbe328bccfa9c015eull},
         {0x68f409d4942af4b8ull, 0xdf49c3c1770d6514ull},
         {0x56f45de72007a63full, 0x49701f0e13f3ab68ull},
         {0xb3f274325c59c9f8ull, 0x8d311f1ec4941c9bull}},
    };
    for (std::size_t ci = 0; ci < cases().size(); ++ci) {
        const Case &c = cases()[ci];
        const MappingConstraints cons =
            makeConstraints(c.preset, c.prob, c.arch);
        for (std::size_t vi = 0; vi < 4; ++vi) {
            SCOPED_TRACE(std::string(c.name) + " " +
                         variantName(kVariants[vi]));
            const Mapspace space(cons, kVariants[vi]);
            Rng rng(17);
            SampleScratch scratch;
            Mapping m = space.sample(rng);
            std::uint64_t h = fnv1a(0xcbf29ce484222325ull, fingerprint(m));
            for (int i = 1; i < 400; ++i) {
                space.sample(rng, m, scratch);
                h = fnv1a(h, fingerprint(m));
            }
            EXPECT_EQ(h, pins[ci][vi].digest);
            EXPECT_EQ(rng.next(), pins[ci][vi].next);
        }
    }
}

TEST(Sampler, WarmRefillsDoNotAllocate)
{
    for (const Case &c : cases()) {
        const MappingConstraints cons =
            makeConstraints(c.preset, c.prob, c.arch);
        for (MapspaceVariant v : kVariants) {
            SCOPED_TRACE(std::string(c.name) + " " + variantName(v));
            const Mapspace space(cons, v);
            SampleScratch scratch;
            Rng seed_rng(3);
            Mapping m = space.sample(seed_rng);
            // Warm up on the stream that is then measured, so the
            // divisor table already holds every count it will meet.
            Rng warm(11);
            for (int i = 0; i < 2000; ++i)
                space.sample(warm, m, scratch);
            Rng rng(11);
            const std::uint64_t before =
                g_allocations.load(std::memory_order_relaxed);
            for (int i = 0; i < 2000; ++i)
                space.sample(rng, m, scratch);
            const std::uint64_t after =
                g_allocations.load(std::memory_order_relaxed);
            EXPECT_EQ(after - before, 0u);
        }
    }
}

TEST(Sampler, AllocationCounterSeesFreshDraws)
{
    // Guards the test above against a counter that never counts.
    const Case &c = cases().front();
    const MappingConstraints cons =
        makeConstraints(c.preset, c.prob, c.arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    Rng rng(11);
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    const Mapping m = space.sample(rng);
    EXPECT_GT(g_allocations.load(std::memory_order_relaxed), before);
    EXPECT_EQ(m.problem().numDims(), c.prob.numDims());
}

TEST(Sampler, RefillRejectsAnotherProblemsMapping)
{
    const Case &c = cases().front();
    const MappingConstraints cons =
        makeConstraints(c.preset, c.prob, c.arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    const Problem copy = c.prob;
    const MappingConstraints other_cons =
        makeConstraints(c.preset, copy, c.arch);
    const Mapspace other(other_cons, MapspaceVariant::RubyS);
    Rng rng(1);
    Mapping foreign = other.sample(rng);
    SampleScratch scratch;
    EXPECT_THROW(space.sample(rng, foreign, scratch), Error);
}

} // namespace
} // namespace ruby
