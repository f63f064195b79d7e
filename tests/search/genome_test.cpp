#include "ruby/search/genome.hpp"

#include <gtest/gtest.h>

#include "ruby/arch/presets.hpp"
#include "ruby/workload/conv.hpp"
#include "ruby/workload/gemm.hpp"
#include "ruby/workload/suites/suites.hpp"

namespace ruby
{
namespace
{

struct GenomeFixture
{
    Problem prob = makeGemm(100, 96, 60);
    ArchSpec arch = makeToyLinear(12);
    MappingConstraints cons{prob, arch};
    Mapspace space{cons, MapspaceVariant::RubyS};
    Rng rng{5};
};

TEST(Genome, ExtractMaterializeRoundTrip)
{
    GenomeFixture fx;
    for (int i = 0; i < 50; ++i) {
        const Mapping original = fx.space.sample(fx.rng);
        const MappingGenome genome = extractGenome(original);
        const Mapping rebuilt =
            genome.materialize(fx.prob, fx.arch);
        EXPECT_EQ(original.toString(), rebuilt.toString());
    }
}

TEST(Genome, MutateChainPreservesCoverage)
{
    GenomeFixture fx;
    MappingGenome genome = extractGenome(fx.space.sample(fx.rng));
    for (int i = 0; i < 200; ++i) {
        const DimId d = static_cast<DimId>(fx.rng.below(3));
        mutateChain(genome, fx.space, d, fx.rng);
        // Materialization derives tails; it throws if coverage broke.
        const Mapping m = genome.materialize(fx.prob, fx.arch);
        EXPECT_EQ(m.chain(d).bodyCount(0), fx.prob.dimSize(d));
    }
}

TEST(Genome, MutateChainRespectsVariantRules)
{
    GenomeFixture fx;
    const Mapspace pfm(fx.cons, MapspaceVariant::PFM);
    MappingGenome genome = extractGenome(pfm.sample(fx.rng));
    for (int i = 0; i < 100; ++i) {
        mutateChain(genome, pfm, 0, fx.rng);
        const Mapping m = genome.materialize(fx.prob, fx.arch);
        EXPECT_TRUE(m.chain(0).fullyPerfect());
    }
}

TEST(Genome, GenericMutationsStayMaterializable)
{
    GenomeFixture fx;
    MappingGenome genome = extractGenome(fx.space.sample(fx.rng));
    for (int i = 0; i < 500; ++i) {
        mutate(genome, fx.space, fx.rng);
        EXPECT_NO_THROW(genome.materialize(fx.prob, fx.arch));
    }
}

TEST(Genome, MutationHonoursForcedBypass)
{
    const Problem prob = makeConv(alexnetLayer2());
    const ArchSpec arch = makeEyeriss();
    const MappingConstraints cons =
        MappingConstraints::eyerissRowStationary(prob, arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    Rng rng(9);
    MappingGenome genome = extractGenome(space.sample(rng));
    for (int i = 0; i < 1000; ++i) {
        mutate(genome, space, rng);
        EXPECT_EQ(genome.keep[1][CONV_WEIGHTS], 0)
            << "forced GLB weight bypass flipped by mutation";
    }
}

TEST(Genome, CrossoverMixesParents)
{
    GenomeFixture fx;
    const MappingGenome a = extractGenome(fx.space.sample(fx.rng));
    const MappingGenome b = extractGenome(fx.space.sample(fx.rng));
    bool saw_a = false, saw_b = false;
    for (int i = 0; i < 50; ++i) {
        MappingGenome child = a;
        crossover(child, b, fx.rng);
        EXPECT_NO_THROW(child.materialize(fx.prob, fx.arch));
        for (std::size_t d = 0; d < child.steady.size(); ++d) {
            if (child.steady[d] == a.steady[d])
                saw_a = true;
            if (child.steady[d] == b.steady[d])
                saw_b = true;
            EXPECT_TRUE(child.steady[d] == a.steady[d] ||
                        child.steady[d] == b.steady[d]);
        }
    }
    EXPECT_TRUE(saw_a);
    EXPECT_TRUE(saw_b);
}

} // namespace
} // namespace ruby
