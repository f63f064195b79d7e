/**
 * @file
 * Greedy local search (hill climbing with random restarts) over a
 * mapspace: an example of the "better search" family the paper calls
 * orthogonal to mapspace generation (COSA, Mind Mappings, GAMMA).
 */

#ifndef RUBY_SEARCH_LOCAL_SEARCH_HPP
#define RUBY_SEARCH_LOCAL_SEARCH_HPP

#include "ruby/search/random_search.hpp"

namespace ruby
{

/** Local-search configuration. */
struct LocalSearchOptions
{
    Objective objective = Objective::EDP;

    /** Hard cap on evaluated mappings across all restarts. */
    std::uint64_t maxEvaluations = 50'000;

    /** Mutated neighbours examined per climbing step. */
    unsigned neighboursPerStep = 8;

    /** Non-improving steps before a random restart. */
    unsigned patience = 20;

    std::uint64_t seed = 42;

    /**
     * Independent climbing runs, each with its own derived RNG stream
     * and an even share of maxEvaluations (remainder to the first
     * starts). starts == 1 reproduces the classic single-stream
     * climb. Results are reduced by (objective, start index).
     */
    unsigned starts = 1;

    /**
     * Worker threads executing the starts (0 = one per hardware
     * thread). The outcome depends only on (seed, starts), never on
     * the thread count.
     */
    unsigned threads = 1;

    /**
     * External cooperative cancellation (e.g. a serving drain):
     * polled per evaluation; climbs wind down and the best-so-far
     * across completed work is returned. Not owned.
     */
    const CancelToken *cancel = nullptr;
};

/**
 * Hill-climb @p space from random valid starts, keeping the best
 * mapping seen anywhere.
 */
SearchResult localSearch(const Mapspace &space,
                         const Evaluator &evaluator,
                         const LocalSearchOptions &options = {});

} // namespace ruby

#endif // RUBY_SEARCH_LOCAL_SEARCH_HPP
