#include "ruby/search/local_search.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <thread>

#include "ruby/common/error.hpp"
#include "ruby/common/fault_injector.hpp"
#include "ruby/common/thread_pool.hpp"
#include "ruby/model/delta_eval.hpp"
#include "ruby/search/engines.hpp"
#include "ruby/search/genome.hpp"

namespace ruby
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr unsigned kMaxParallelism = 4096;

using Clock = std::chrono::steady_clock;

std::uint64_t
nsSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start)
            .count());
}

/**
 * One hill-climbing run (random restarts until the budget is spent)
 * with its own RNG stream, scratch and — when enabled — its own
 * incremental evaluation engine. This is the whole serial algorithm;
 * the multi-start path runs several of these, each as one contiguous
 * thread-pool task, and reduces the results.
 */
SearchResult
runClimb(const Mapspace &space, const Evaluator &evaluator,
         const LocalSearchOptions &options, std::uint64_t budget,
         Rng rng)
{
    SearchResult out;
    EvalScratch scratch;
    FaultInjector &faults = FaultInjector::global();
    std::optional<DeltaEvaluator> engine;
    if (engines().incremental)
        engine.emplace(evaluator);

    double global_best = kInf;

    // Shared accounting for both evaluation paths. The delta engine
    // is an exact recomputation, so the counters (and the best
    // mapping) are identical with the engine on or off.
    auto account = [&](const EvalResult &res,
                       const MappingGenome *genome,
                       const Mapping *mapping, double &metric) -> bool {
        ++out.evaluated;
        if (!res.valid) {
            ++out.stats.invalid;
            return false;
        }
        ++out.stats.modeled;
        ++out.valid;
        metric = res.objective(options.objective);
        if (metric < global_best) {
            global_best = metric;
            // Materialize lazily: improvements are rare, so the hot
            // loop never copies a Mapping.
            out.best = mapping != nullptr
                           ? *mapping
                           : genome->materialize(space.problem(),
                                                 space.arch());
            out.bestResult = res;
        }
        return true;
    };

    // A start is evaluated fully — directly on the sampled mapping
    // (no genome round-trip; most samples are invalid, so the extract
    // + rebuild would be wasted). With the engine on, the same full
    // evaluation doubles as the engine's base (re)establishment.
    auto evaluateStart = [&](const Mapping &mapping,
                             double &metric) -> bool {
        if (faults.enabled())
            faults.maybeThrow("local_search.evaluate");
        const auto t0 = Clock::now();
        const EvalResult *res;
        if (engine) {
            res = &engine->rebase(mapping, out.stats);
        } else {
            evaluator.evaluate(mapping, scratch);
            res = &scratch.result;
        }
        out.timers.evalNs += nsSince(t0);
        return account(*res, nullptr, &mapping, metric);
    };

    // Hill climbing compares neighbours by actual metric, so the
    // lower-bound prune does not apply; neighbours are single-row
    // deltas against the current mapping, which is exactly the
    // engine's sweet spot.
    auto evaluateNeighbour = [&](const MappingGenome &genome,
                                 double &metric) -> bool {
        if (faults.enabled())
            faults.maybeThrow("local_search.evaluate");
        if (engine) {
            const MappingComponents comp{&genome.steady, &genome.perms,
                                         &genome.keep, &genome.axes};
            const auto t0 = Clock::now();
            const EvalResult &res =
                engine->evaluateCandidate(comp, out.stats);
            out.timers.evalNs += nsSince(t0);
            return account(res, &genome, nullptr, metric);
        }
        const Mapping mapping =
            genome.materialize(space.problem(), space.arch());
        const auto t0 = Clock::now();
        evaluator.evaluate(mapping, scratch);
        out.timers.evalNs += nsSince(t0);
        return account(scratch.result, &genome, &mapping, metric);
    };

    auto cancelled = [&]() {
        return options.cancel != nullptr &&
               options.cancel->cancelled();
    };
    while (out.evaluated < budget && !cancelled()) {
        // Random (valid) start. The genome is extracted only once a
        // sample sticks — rejected samples never leave Mapping form.
        MappingGenome current;
        double current_metric = kInf;
        bool started = false;
        while (!started && out.evaluated < budget && !cancelled()) {
            const Mapping sample = space.sample(rng);
            started = evaluateStart(sample, current_metric);
            if (started)
                current = extractGenome(sample);
        }
        if (!started)
            break;

        // Climb until patience runs out.
        unsigned stale = 0;
        MutationUndo undo;
        while (stale < options.patience && out.evaluated < budget) {
            MappingGenome best_neighbour;
            double best_metric = kInf;
            // True while the incumbent best neighbour was also the
            // engine's most recent candidate (promotable in place).
            bool best_is_last = false;
            for (unsigned n = 0; n < options.neighboursPerStep &&
                                 out.evaluated < budget;
                 ++n) {
                // Mutate in place and revert after scoring: the same
                // neighbour sequence as copy-then-mutate, without a
                // genome copy per candidate. Only an improving
                // neighbour is copied out.
                const auto b0 = Clock::now();
                mutate(current, space, rng, &undo);
                out.timers.breedNs += nsSince(b0);
                double metric = kInf;
                if (evaluateNeighbour(current, metric) &&
                    metric < best_metric) {
                    best_metric = metric;
                    best_neighbour = current;
                    best_is_last = true;
                } else {
                    best_is_last = false;
                }
                undoMutation(current, undo);
            }
            if (best_metric < current_metric) {
                if (engine) {
                    // The engine's base must become the accepted
                    // neighbour. If later candidates overwrote it,
                    // re-derive it (a deterministic repeat — not a
                    // counted evaluation) and promote.
                    if (!best_is_last) {
                        const MappingComponents comp{
                            &best_neighbour.steady,
                            &best_neighbour.perms,
                            &best_neighbour.keep,
                            &best_neighbour.axes};
                        const auto t0 = Clock::now();
                        engine->evaluateCandidate(comp, out.stats);
                        out.timers.evalNs += nsSince(t0);
                    }
                    engine->promoteLast();
                }
                current = std::move(best_neighbour);
                current_metric = best_metric;
                stale = 0;
            } else {
                ++stale;
            }
        }
    }
    return out;
}

} // namespace

SearchResult
localSearch(const Mapspace &space, const Evaluator &evaluator,
            const LocalSearchOptions &options)
{
    const auto total0 = Clock::now();
    RUBY_CHECK(options.starts >= 1,
               "local search needs >= 1 start");
    RUBY_CHECK(options.starts <= kMaxParallelism,
               "local search: starts (", options.starts,
               ") exceeds the cap of ", kMaxParallelism);
    unsigned threads = options.threads;
    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw != 0 ? hw : 1;
    }
    RUBY_CHECK(threads <= kMaxParallelism,
               "local search: threads (", threads,
               ") exceeds the cap of ", kMaxParallelism);

    if (options.starts == 1) {
        SearchResult out = runClimb(space, evaluator, options,
                                    options.maxEvaluations,
                                    Rng(options.seed));
        out.timers.totalNs = nsSince(total0);
        return out;
    }

    // Multi-start: split the evaluation budget evenly (remainder to
    // the first starts) and give every start its own derived stream.
    // The reduction is by (objective, start index), so the outcome is
    // a pure function of (seed, starts) — never of the thread count.
    const unsigned S = options.starts;
    std::vector<std::uint64_t> budgets(S,
                                       options.maxEvaluations / S);
    for (unsigned s = 0;
         s < static_cast<unsigned>(options.maxEvaluations % S); ++s)
        ++budgets[s];
    Rng seeder(options.seed);
    std::vector<Rng> streams;
    streams.reserve(S);
    for (unsigned s = 0; s < S; ++s)
        streams.push_back(seeder.split());

    std::vector<SearchResult> results(S);
    const auto workers =
        static_cast<unsigned>(std::min<std::size_t>(threads, S));
    if (workers <= 1) {
        for (unsigned s = 0; s < S; ++s)
            results[s] = runClimb(space, evaluator, options,
                                  budgets[s], streams[s]);
    } else {
        // One contiguous task per start: a climb runs start to finish
        // on one worker (better cache locality for its scratch and
        // delta engine than interleaved claiming), and the pool keeps
        // every worker busy while starts remain.
        ThreadPool pool(workers);
        const CancelToken &cancel = pool.cancelToken();
        for (unsigned s = 0; s < S; ++s)
            pool.submit([&, s]() {
                if (cancel.cancelled())
                    return;
                results[s] = runClimb(space, evaluator, options,
                                      budgets[s], streams[s]);
            });
        pool.waitIdle();
    }

    const auto reduce0 = Clock::now();
    SearchResult out;
    int winner = -1;
    double winner_metric = kInf;
    for (unsigned s = 0; s < S; ++s) {
        out.evaluated += results[s].evaluated;
        out.valid += results[s].valid;
        out.stats += results[s].stats;
        out.timers.evalNs += results[s].timers.evalNs;
        out.timers.breedNs += results[s].timers.breedNs;
        if (!results[s].best)
            continue;
        const double metric =
            results[s].bestResult.objective(options.objective);
        // Strict improvement: equal metrics keep the earlier start.
        if (winner < 0 || metric < winner_metric) {
            winner = static_cast<int>(s);
            winner_metric = metric;
        }
    }
    if (winner >= 0) {
        out.best = std::move(results[static_cast<unsigned>(winner)]
                                 .best);
        out.bestResult =
            std::move(results[static_cast<unsigned>(winner)]
                          .bestResult);
    }
    out.timers.reduceNs = nsSince(reduce0);
    out.timers.totalNs = nsSince(total0);
    return out;
}

} // namespace ruby
