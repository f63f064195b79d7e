/**
 * @file
 * Parity and semantics tests for the staged evaluation fast path:
 * the scratch-based path must be bit-identical to the allocating
 * evaluate(), the objective lower bound must be sound, and a search
 * with pruning + memo cache enabled must find exactly the same best
 * mapping as one with both disabled.
 */

#include <gtest/gtest.h>

#include <limits>

#include "ruby/arch/presets.hpp"
#include "ruby/common/rng.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/search/engines.hpp"
#include "ruby/search/random_search.hpp"
#include "ruby/workload/conv.hpp"
#include "ruby/workload/suites/suites.hpp"

namespace ruby
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

struct PresetFixture
{
    Problem prob;
    ArchSpec arch;
    MappingConstraints cons;
    Mapspace space;
    Evaluator eval;

    PresetFixture(Problem p, ArchSpec a, ConstraintPreset preset,
                  MapspaceVariant variant)
        : prob(std::move(p)), arch(std::move(a)),
          cons(makeConstraints(preset, prob, arch)),
          space(cons, variant), eval(prob, arch)
    {
    }
};

PresetFixture
eyerissFixture()
{
    return PresetFixture(makeConv(alexnetLayer2()), makeEyeriss(),
                         ConstraintPreset::EyerissRS,
                         MapspaceVariant::RubyS);
}

PresetFixture
simbaFixture()
{
    return PresetFixture(makeConv(alexnetLayer2()), makeSimba(),
                         ConstraintPreset::Simba,
                         MapspaceVariant::Ruby);
}

/** Bit-identical comparison of every field of two evaluations. */
void
expectIdentical(const EvalResult &a, const EvalResult &b)
{
    ASSERT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.invalidReason, b.invalidReason);
    if (!a.valid)
        return;
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.edp, b.edp);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.macEnergy, b.macEnergy);
    EXPECT_EQ(a.networkEnergy, b.networkEnergy);
    EXPECT_EQ(a.levelEnergy, b.levelEnergy);
    EXPECT_EQ(a.accesses.reads, b.accesses.reads);
    EXPECT_EQ(a.accesses.writes, b.accesses.writes);
    EXPECT_EQ(a.accesses.networkWords, b.accesses.networkWords);
    EXPECT_EQ(a.latency.computeCycles, b.latency.computeCycles);
    EXPECT_EQ(a.latency.bandwidthCycles, b.latency.bandwidthCycles);
    EXPECT_EQ(a.latency.cycles, b.latency.cycles);
    EXPECT_EQ(a.latency.utilization, b.latency.utilization);
}

/**
 * The scratch-reusing path and the allocating path must agree bit for
 * bit on every sampled mapping, and the lower bound must never exceed
 * the true objective of a valid mapping.
 */
void
runParitySweep(PresetFixture &fx, int samples)
{
    Rng rng(12345);
    EvalScratch scratch;
    int valid_seen = 0;
    for (int i = 0; i < samples; ++i) {
        const Mapping m = fx.space.sample(rng);
        const EvalResult fresh = fx.eval.evaluate(m);
        fx.eval.evaluate(m, scratch);
        expectIdentical(fresh, scratch.result);
        if (!fresh.valid)
            continue;
        ++valid_seen;
        for (Objective obj :
             {Objective::EDP, Objective::Energy, Objective::Delay}) {
            EXPECT_LE(fx.eval.objectiveLowerBound(m, obj),
                      fresh.objective(obj))
                << "unsound bound for mapping " << m.toString();
        }
    }
    // The sweep must exercise the full model, not just validity.
    EXPECT_GT(valid_seen, 0);
}

TEST(EvalFastPath, ScratchParityEyeriss1000)
{
    PresetFixture fx = eyerissFixture();
    runParitySweep(fx, 1000);
}

TEST(EvalFastPath, ScratchParitySimba1000)
{
    PresetFixture fx = simbaFixture();
    runParitySweep(fx, 1000);
}

TEST(EvalFastPath, StagedStagesMatchDirectEvaluate)
{
    PresetFixture fx = eyerissFixture();
    Rng rng(7);
    EvalScratch scratch;
    for (int i = 0; i < 200; ++i) {
        const Mapping m = fx.space.sample(rng);
        const EvalResult fresh = fx.eval.evaluate(m);

        // Unbounded incumbent: every valid mapping is fully modeled.
        const StagedEval open = fx.eval.evaluateStaged(
            m, Objective::EDP, kInf, true, scratch);
        if (!fresh.valid) {
            EXPECT_EQ(open, StagedEval::Invalid);
            EXPECT_FALSE(scratch.result.valid);
            continue;
        }
        ASSERT_EQ(open, StagedEval::Modeled);
        expectIdentical(fresh, scratch.result);

        // Zero incumbent: nothing can strictly improve, so every
        // valid mapping is pruned by its (non-negative) bound.
        EXPECT_EQ(fx.eval.evaluateStaged(m, Objective::EDP, 0.0, true,
                                         scratch),
                  StagedEval::PrunedBound);

        // Pruning disabled: the full model always runs.
        EXPECT_EQ(fx.eval.evaluateStaged(m, Objective::EDP, 0.0, false,
                                         scratch),
                  StagedEval::Modeled);
    }
}

/**
 * End-to-end parity: with a fixed seed and a single thread, the
 * search must find the same best mapping, visit the same number of
 * samples and terminate identically whether the bound prune is on or
 * off.
 */
void
runSearchParity(PresetFixture &fx)
{
    SearchOptions fast;
    fast.seed = 99;
    fast.threads = 1;
    fast.terminationStreak = 400;
    fast.maxEvaluations = 20'000;

    const SearchResult a = randomSearch(fx.space, fx.eval, fast);
    Engines unpruned;
    unpruned.boundPruning = false;
    const SearchResult b = [&] {
        const ScopedEngines off(unpruned);
        return randomSearch(fx.space, fx.eval, fast);
    }();

    ASSERT_EQ(a.best.has_value(), b.best.has_value());
    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.valid, b.valid);
    if (a.best) {
        EXPECT_EQ(a.best->toString(), b.best->toString());
        expectIdentical(a.bestResult, b.bestResult);
    }

    // Stage counters partition the drawn samples.
    for (const SearchResult *r : {&a, &b})
        EXPECT_EQ(r->stats.invalid + r->stats.prunedBound +
                      r->stats.modeled,
                  r->evaluated);
    // The unpruned run must not have used the bound.
    EXPECT_EQ(b.stats.prunedBound, 0u);
    EXPECT_EQ(b.stats.modeled + b.stats.invalid, b.evaluated);
}

TEST(EvalFastPath, SearchParityEyeriss)
{
    PresetFixture fx = eyerissFixture();
    runSearchParity(fx);
}

TEST(EvalFastPath, SearchParitySimba)
{
    PresetFixture fx = simbaFixture();
    runSearchParity(fx);
}

TEST(EvalFastPath, ThreadedSearchCountsStayConsistent)
{
    PresetFixture fx = eyerissFixture();
    SearchOptions opts;
    opts.threads = 4;
    opts.terminationStreak = 300;
    opts.maxEvaluations = 30'000;
    const SearchResult res = randomSearch(fx.space, fx.eval, opts);
    ASSERT_TRUE(res.best.has_value());
    EXPECT_EQ(res.stats.invalid + res.stats.prunedBound +
                  res.stats.modeled,
              res.evaluated);
}

} // namespace
} // namespace ruby
