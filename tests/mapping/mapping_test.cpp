#include "ruby/mapping/mapping.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "ruby/arch/presets.hpp"
#include "ruby/common/error.hpp"
#include "ruby/workload/gemm.hpp"
#include "ruby/workload/problem.hpp"

namespace ruby
{
namespace
{

/**
 * 1-D problem on the Fig. 4/5 toy architecture (latch, GLB over 6
 * PEs, DRAM): 6 slots, spatial slot of the GLB is slot 2.
 */
struct ToyFixture
{
    Problem prob = makeVector1D(100);
    ArchSpec arch = makeToyGlb(6);

    Mapping
    map(std::vector<std::uint64_t> chain) const
    {
        return test::makeMapping(prob, arch, {std::move(chain)});
    }
};

TEST(Mapping, PaperFig4PerfectMapping)
{
    const ToyFixture fx;
    // (1 . 20 . 5): 5 PEs spatial, 20 GLB iterations, all in GLB.
    const Mapping m = fx.map({1, 1, 5, 20, 1, 1});
    EXPECT_TRUE(m.fullyPerfect());
    EXPECT_TRUE(m.spatialOnlyImperfection()); // trivially
    EXPECT_EQ(m.spatialUsage(1), 5u);
    EXPECT_EQ(m.extentsBelow(4)[0], 100u); // GLB tile holds all 100
}

TEST(Mapping, PaperFig5ImperfectMapping)
{
    const ToyFixture fx;
    // 6 PEs spatial (tail 4), 17 GLB iterations.
    const Mapping m = fx.map({1, 1, 6, 17, 1, 1});
    EXPECT_FALSE(m.fullyPerfect());
    EXPECT_TRUE(m.spatialOnlyImperfection());
    EXPECT_EQ(m.factor(0, 2).steady, 6u);
    EXPECT_EQ(m.factor(0, 2).tail, 4u);
    EXPECT_EQ(m.factor(0, 3).tail, 17u);
    EXPECT_EQ(m.spatialUsage(1), 6u);
}

TEST(Mapping, TemporalImperfectionDetected)
{
    const ToyFixture fx;
    // Temporal slot 1 imperfect: 100 over (t0=7) -> 15 tiles, then
    // spatial 5, then 3 outer.
    const Mapping m = fx.map({1, 7, 5, 3, 1, 1});
    EXPECT_FALSE(m.fullyPerfect());
    EXPECT_FALSE(m.spatialOnlyImperfection());
}

TEST(Mapping, RejectsShortChain)
{
    const ToyFixture fx;
    EXPECT_THROW(fx.map({1, 1, 5, 20}), Error);
}

TEST(Mapping, RejectsBadPermutation)
{
    const ToyFixture fx;
    auto perms = test::identityPerms(fx.prob, fx.arch);
    perms[0] = {0, 0}; // duplicate
    EXPECT_THROW(Mapping(fx.prob, fx.arch, {{1, 1, 5, 20, 1, 1}},
                         perms, test::keepAll(fx.prob, fx.arch)),
                 Error);
}

TEST(Mapping, RejectsBypassAtEndpoints)
{
    const ToyFixture fx;
    auto keep = test::keepAll(fx.prob, fx.arch);
    keep[0][0] = 0; // innermost must keep
    EXPECT_THROW(Mapping(fx.prob, fx.arch, {{1, 1, 5, 20, 1, 1}},
                         test::identityPerms(fx.prob, fx.arch), keep),
                 Error);
}

TEST(Mapping, MutatorsRunTheConstructorChecks)
{
    // The refill mutators reject what the constructor rejects, and a
    // rejected edit leaves the mapping unchanged.
    const Problem prob = makeGemm(8, 8, 8);
    const ArchSpec arch = makeToyGlb(6);
    Mapping m(prob, arch,
              {{1, 1, 1, 1, 1, 8}, {1, 1, 1, 1, 1, 8}, {1, 1, 1, 1, 1, 8}},
              test::identityPerms(prob, arch), test::keepAll(prob, arch));
    const std::string before = m.toString();
    EXPECT_THROW(m.setChain(0, {1, 1, 8}), Error);
    EXPECT_THROW(m.setPermutation(1, {0, 0, 2}), Error);
    EXPECT_THROW(m.setPermutation(1, {0, 1}), Error);
    EXPECT_THROW(m.setPermutation(1, {0, 1, 3}), Error);
    EXPECT_THROW(m.setKeepRow(0, {1, 0, 1}), Error);
    EXPECT_THROW(m.setKeepRow(2, {1, 1, 0}), Error);
    EXPECT_THROW(m.setKeepRow(1, {1, 0}), Error);
    EXPECT_THROW(m.setAxisRow(1, {SpatialAxis::Y}), Error);
    EXPECT_EQ(m.toString(), before);

    m.setPermutation(1, {2, 0, 1});
    m.setKeepRow(1, {1, 0, 1});
    EXPECT_EQ(m.permutation(1), (std::vector<DimId>{2, 0, 1}));
    EXPECT_FALSE(m.keeps(1, 1));
}

TEST(Mapping, KeepsQueriedPerLevel)
{
    const ToyFixture fx;
    auto keep = test::keepAll(fx.prob, fx.arch);
    keep[1][1] = 0; // bypass tensor 1 (output) at GLB
    const Mapping m(fx.prob, fx.arch, {{1, 1, 5, 20, 1, 1}},
                    test::identityPerms(fx.prob, fx.arch), keep);
    EXPECT_TRUE(m.keeps(1, 0));
    EXPECT_FALSE(m.keeps(1, 1));
}

TEST(Mapping, ToStringMentionsImperfectFactors)
{
    const ToyFixture fx;
    const Mapping m = fx.map({1, 1, 6, 17, 1, 1});
    const std::string s = m.toString();
    EXPECT_NE(s.find("tail 4"), std::string::npos);
    EXPECT_NE(s.find("GLB"), std::string::npos);
    EXPECT_NE(s.find("parFor"), std::string::npos);
}

TEST(Mapping, SpatialUsageMultipliesDims)
{
    // GEMM on the toy: spatial over two dims at once.
    const Problem prob = makeVector1D(64);
    (void)prob;
    const ArchSpec arch = makeToyGlb(12);
    const Problem gemm("g2", {"A", "B"}, {8, 9},
                       {TensorSpec{"X", {TensorAxis{{{0, 1}}}}, false},
                        TensorSpec{"Z",
                                   {TensorAxis{{{0, 1}}},
                                    TensorAxis{{{1, 1}}}},
                                   true}});
    const Mapping m = test::makeMapping(
        gemm, arch, {{1, 1, 4, 2, 1, 1}, {1, 1, 3, 3, 1, 1}});
    EXPECT_EQ(m.spatialUsage(1), 12u);
}

} // namespace
} // namespace ruby
