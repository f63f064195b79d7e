/**
 * @file
 * Exhaustive mapspace search for toy problems: enumerates every
 * canonical factor-chain combination (optionally crossed with all
 * temporal permutations at every level). Used to validate the random
 * sampler and to study small mapspaces end to end.
 */

#ifndef RUBY_SEARCH_EXHAUSTIVE_SEARCH_HPP
#define RUBY_SEARCH_EXHAUSTIVE_SEARCH_HPP

#include <cstdint>
#include <optional>

#include "ruby/common/cancel.hpp"
#include "ruby/mapspace/mapspace.hpp"
#include "ruby/model/evaluator.hpp"
#include "ruby/search/random_search.hpp"

namespace ruby
{

/** Exhaustive-search configuration. */
struct ExhaustiveOptions
{
    Objective objective = Objective::EDP;

    /**
     * Enumerate all temporal permutations per level. Factorial in the
     * number of non-trivial loops; off by default (identity order).
     */
    bool permutations = false;

    /** Safety cap on evaluated mappings (0 = unlimited). */
    std::uint64_t maxEvaluations = 1'000'000;

    /**
     * Worker threads sharding the enumeration (0 = one per hardware
     * thread). The index range is claimed in work-stealing chunks;
     * every shard prunes against one shared incumbent and the shard
     * bests are reduced by (objective, index), so the best mapping,
     * evaluated count, and truncation flag are bit-identical across
     * thread counts. Only the prunedBound/modeled split of the stats
     * may shift (their sum is invariant).
     */
    unsigned threads = 1;

    /**
     * External cooperative cancellation (e.g. a serving drain):
     * polled per evaluated index; shards wind down early, so the
     * result is then a truncated enumeration. Not owned.
     */
    const CancelToken *cancel = nullptr;
};

/** Exhaustive-search outcome. */
struct ExhaustiveResult
{
    std::optional<Mapping> best;
    EvalResult bestResult;
    std::uint64_t evaluated = 0;
    std::uint64_t valid = 0;
    /** Per-stage fast-path counters (cache fields stay zero). */
    EvalStats stats;
    /** True when the cap stopped enumeration before completion. */
    bool truncated = false;
    /** Coarse wall-clock breakdown (see SearchTimers). */
    SearchTimers timers;
};

/**
 * Enumerate and evaluate @p space (keep-all residency; identity or
 * enumerated permutations) keeping the best valid mapping.
 */
ExhaustiveResult exhaustiveSearch(const Mapspace &space,
                                  const Evaluator &evaluator,
                                  const ExhaustiveOptions &options = {});

} // namespace ruby

#endif // RUBY_SEARCH_EXHAUSTIVE_SEARCH_HPP
