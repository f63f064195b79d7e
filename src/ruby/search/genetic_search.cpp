#include "ruby/search/genetic_search.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
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

struct Individual
{
    MappingGenome genome;
    double fitness = kInf; ///< objective value; lower is better
};

/** Per-island evaluation counters, merged after each step. */
struct Tally
{
    EvalStats stats;
    std::uint64_t evaluated = 0;
    std::uint64_t valid = 0;
    SearchTimers timers;

    Tally &operator+=(const Tally &o)
    {
        stats += o.stats;
        evaluated += o.evaluated;
        valid += o.valid;
        timers += o.timers;
        return *this;
    }
};

/**
 * One sub-population with its own RNG stream, counters and scratch.
 * A step (seed or breed, then score) touches nothing but its island,
 * so islands can step on any worker without changing any result.
 */
struct Island
{
    Rng rng;
    std::vector<Individual> population;
    std::vector<Individual> spare; ///< storage for the next generation
    Tally tally;                   ///< merged in island order per step
    EvalScratch scratch;           ///< scoreOne's workspace
};

/**
 * Score one individual: full model, no bound prune — tournament
 * selection needs every member's actual fitness.
 */
void
scoreOne(const Mapspace &space, const Evaluator &evaluator,
         Objective objective, Individual &ind, EvalScratch &scratch,
         Tally &tally)
{
    FaultInjector &faults = FaultInjector::global();
    const Mapping mapping =
        ind.genome.materialize(space.problem(), space.arch());
    if (faults.enabled())
        faults.maybeThrow("genetic_search.evaluate");
    const auto t0 = Clock::now();
    evaluator.evaluate(mapping, scratch);
    tally.timers.evalNs += nsSince(t0);
    ++tally.evaluated;
    if (!scratch.result.valid) {
        ++tally.stats.invalid;
        ind.fitness = kInf;
        return;
    }
    ++tally.stats.modeled;
    ++tally.valid;
    ind.fitness = scratch.result.objective(objective);
}

/**
 * Score every non-elite member of one island through its incremental
 * engine. The engine is rebased on the island's lead member each
 * generation — a deterministic repeat of an already-known evaluation,
 * so it is counted only as a deltaRebase — which makes mutation-only
 * children of that member single-row deltas; everything else falls
 * back to a full in-place recomputation inside the engine. Fitness
 * values are bit-identical to scoreOne() either way.
 */
void
scoreIsland(const Mapspace &space, Objective objective, unsigned elites,
            Island &island, DeltaEvaluator &engine,
            const CancelToken *external, const CancelToken *poolCancel)
{
    Tally &tally = island.tally;
    if (elites >= island.population.size())
        return;
    FaultInjector &faults = FaultInjector::global();
    const auto t0 = Clock::now();
    const Mapping base = island.population[0].genome.materialize(
        space.problem(), space.arch());
    engine.rebase(base, tally.stats);
    for (std::size_t m = elites; m < island.population.size(); ++m) {
        if ((external != nullptr && external->cancelled()) ||
            (poolCancel != nullptr && poolCancel->cancelled()))
            break;
        Individual &ind = island.population[m];
        if (faults.enabled())
            faults.maybeThrow("genetic_search.evaluate");
        const MappingComponents comp{&ind.genome.steady,
                                     &ind.genome.perms,
                                     &ind.genome.keep,
                                     &ind.genome.axes};
        const EvalResult &res =
            engine.evaluateCandidate(comp, tally.stats);
        ++tally.evaluated;
        if (!res.valid) {
            ++tally.stats.invalid;
            ind.fitness = kInf;
            continue;
        }
        ++tally.stats.modeled;
        ++tally.valid;
        ind.fitness = res.objective(objective);
    }
    tally.timers.evalNs += nsSince(t0);
}

/** Population indices ordered best-first by (fitness, index). */
std::vector<std::size_t>
rankedIndices(const std::vector<Individual> &population)
{
    std::vector<std::size_t> order(population.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (population[a].fitness != population[b].fitness)
                      return population[a].fitness <
                             population[b].fitness;
                  return a < b;
              });
    return order;
}

} // namespace

SearchResult
geneticSearch(const Mapspace &space, const Evaluator &evaluator,
              const GeneticOptions &options)
{
    const auto total0 = Clock::now();
    RUBY_CHECK(options.populationSize >= 2,
               "genetic search needs a population of >= 2");
    RUBY_CHECK(options.tournament >= 1, "tournament size must be >= 1");
    RUBY_CHECK(options.islands >= 1,
               "genetic search needs >= 1 island");
    RUBY_CHECK(options.islands <= kMaxParallelism,
               "genetic search: islands (", options.islands,
               ") exceeds the cap of ", kMaxParallelism);
    RUBY_CHECK(options.migrants < options.populationSize,
               "genetic search: migrants must be < populationSize");
    RUBY_CHECK(options.migrationInterval >= 1,
               "genetic search: migrationInterval must be >= 1");
    unsigned threads = options.threads;
    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw != 0 ? hw : 1;
    }
    RUBY_CHECK(threads <= kMaxParallelism,
               "genetic search: threads (", threads,
               ") exceeds the cap of ", kMaxParallelism);

    const unsigned K = options.islands;

    // islands == 1 consumes Rng(seed) directly (the classic stream);
    // islands > 1 derives one independent stream per island.
    std::vector<Island> archipelago;
    archipelago.reserve(K);
    if (K == 1) {
        archipelago.push_back(Island{Rng(options.seed), {}, {}, {}, {}});
    } else {
        Rng seeder(options.seed);
        for (unsigned k = 0; k < K; ++k)
            archipelago.push_back(Island{seeder.split(), {}, {}, {}, {}});
    }

    // Islands are the unit of parallel work, so more workers than
    // islands would only idle.
    std::unique_ptr<ThreadPool> pool;
    if (std::min(threads, K) > 1)
        pool = std::make_unique<ThreadPool>(std::min(threads, K));
    Tally tally;
    SearchTimers timers;

    // One persistent incremental engine per island.
    const bool incremental = engines().incremental;
    std::vector<DeltaEvaluator> delta_engines;
    if (incremental) {
        delta_engines.reserve(K);
        for (unsigned k = 0; k < K; ++k)
            delta_engines.emplace_back(evaluator);
    }

    auto externallyCancelled = [&]() {
        return options.cancel != nullptr && options.cancel->cancelled();
    };
    auto stopped = [&](const CancelToken *poolCancel) {
        return externallyCancelled() ||
               (poolCancel != nullptr && poolCancel->cancelled());
    };

    // Run step(k, poolCancel) on every island: serially, or with
    // workers claiming whole islands. Each step consumes only its own
    // island's RNG stream, so the trajectory is the serial one at any
    // thread count. The tallies are merged in island index order, so
    // the counters are a pure function of (seed, islands) — never of
    // which worker stepped which island.
    auto forEachIsland = [&](auto &&step) {
        if (pool == nullptr) {
            for (unsigned k = 0; k < K && !externallyCancelled(); ++k)
                step(k, nullptr);
        } else {
            std::atomic<unsigned> next{0};
            const CancelToken &cancel = pool->cancelToken();
            for (unsigned w = 0; w < pool->size(); ++w)
                pool->submit([&]() {
                    for (;;) {
                        const unsigned k = next.fetch_add(
                            1, std::memory_order_relaxed);
                        if (k >= K || stopped(&cancel))
                            return;
                        step(k, &cancel);
                    }
                });
            pool->waitIdle();
        }
        for (Island &island : archipelago) {
            tally += island.tally;
            island.tally = Tally{};
        }
    };

    // Global best genome, reduced deterministically: strict fitness
    // improvement scanning islands then members in index order.
    double best_fitness = kInf;
    MappingGenome best_genome;
    auto updateGlobalBest = [&]() {
        for (const Island &island : archipelago)
            for (const Individual &ind : island.population)
                if (ind.fitness < best_fitness) {
                    best_fitness = ind.fitness;
                    best_genome = ind.genome;
                }
    };

    // Seed every island from the random sampler and score it member
    // by member: there is no base to share yet, so the incremental
    // engine starts at the first bred generation.
    forEachIsland([&](unsigned k, const CancelToken *poolCancel) {
        Island &island = archipelago[k];
        island.population.resize(options.populationSize);
        SampleScratch sampler;
        std::optional<Mapping> sample;
        for (Individual &ind : island.population) {
            if (sample)
                space.sample(island.rng, *sample, sampler);
            else
                sample.emplace(space.sample(island.rng));
            ind.genome = extractGenome(*sample);
        }
        for (Individual &ind : island.population) {
            if (stopped(poolCancel))
                return;
            scoreOne(space, evaluator, options.objective, ind,
                     island.scratch, island.tally);
        }
    });
    updateGlobalBest();

    auto selectParent = [&](Island &island) -> const Individual & {
        const Individual *best = nullptr;
        for (unsigned t = 0; t < options.tournament; ++t) {
            const Individual &cand =
                island.population[island.rng.below(
                    island.population.size())];
            if (best == nullptr || cand.fitness < best->fitness)
                best = &cand;
        }
        return *best;
    };

    // Breed island k's next generation, then score it: through the
    // island's incremental engine (the engine's base reuse lives
    // across a whole island's children), or member by member when
    // that engine is off.
    auto breedAndScore = [&](unsigned k, const CancelToken *poolCancel) {
        Island &island = archipelago[k];
        const auto breed0 = Clock::now();
        // The next generation overwrites the one before last in place
        // (same shapes, so no allocation): breeding then scales with
        // threads instead of queueing on the allocator.
        std::vector<Individual> &next_pop = island.spare;
        next_pop.resize(island.population.size());

        // Elitism: carry the best genomes over unchanged (their
        // fitness is already known; they are not rescored).
        const std::vector<std::size_t> order =
            rankedIndices(island.population);
        std::size_t filled = 0;
        for (; filled < options.elites && filled < next_pop.size();
             ++filled)
            next_pop[filled] = island.population[order[filled]];

        for (; filled < next_pop.size(); ++filled) {
            Individual &child = next_pop[filled];
            // Sequence the two tournaments explicitly: as function
            // arguments their evaluation order would be unspecified,
            // and the RNG stream must not depend on the compiler's
            // choice. The second parent draws first — this pins the
            // stream the historical builds produced, keeping seeded
            // results comparable.
            const Individual &p2 = selectParent(island);
            const Individual &p1 = selectParent(island);
            // At crossoverRate >= 1.0 the decision draw is skipped
            // outright, not merely always-true, so the stream matches
            // builds that predate the knob.
            const bool do_cross =
                options.crossoverRate >= 1.0 ||
                island.rng.uniform() < options.crossoverRate;
            child.genome = p1.genome;
            child.fitness = kInf;
            if (do_cross)
                crossover(child.genome, p2.genome, island.rng);
            if (island.rng.uniform() < options.mutationRate)
                mutate(child.genome, space, island.rng);
        }
        island.population.swap(next_pop);
        island.tally.timers.breedNs += nsSince(breed0);

        if (incremental) {
            scoreIsland(space, options.objective, options.elites, island,
                        delta_engines[k], options.cancel, poolCancel);
            return;
        }
        for (std::size_t m = options.elites;
             m < island.population.size(); ++m) {
            if (stopped(poolCancel))
                return;
            scoreOne(space, evaluator, options.objective,
                     island.population[m], island.scratch,
                     island.tally);
        }
    };

    for (unsigned gen = 0; gen < options.generations; ++gen) {
        // Drain point: between generations the population is fully
        // scored, so stopping here returns a coherent best-so-far.
        if (externallyCancelled())
            break;
        forEachIsland(breedAndScore);
        const auto reduce0 = Clock::now();
        updateGlobalBest();

        // Ring migration: island k's best `migrants` replace island
        // k+1's worst. Snapshot first, then apply, so the exchange is
        // simultaneous and independent of island order.
        if (K > 1 && options.migrants > 0 &&
            (gen + 1) % options.migrationInterval == 0) {
            std::vector<std::vector<Individual>> outbound(K);
            for (unsigned k = 0; k < K; ++k) {
                const std::vector<std::size_t> order =
                    rankedIndices(archipelago[k].population);
                for (unsigned m = 0; m < options.migrants; ++m)
                    outbound[k].push_back(
                        archipelago[k].population[order[m]]);
            }
            for (unsigned k = 0; k < K; ++k) {
                const std::vector<Individual> &incoming =
                    outbound[(k + K - 1) % K];
                const std::vector<std::size_t> order =
                    rankedIndices(archipelago[k].population);
                for (unsigned m = 0; m < options.migrants; ++m) {
                    const std::size_t victim =
                        order[order.size() - 1 - m];
                    archipelago[k].population[victim] = incoming[m];
                }
            }
        }
        timers.reduceNs += nsSince(reduce0);
    }

    SearchResult out;
    out.evaluated = tally.evaluated;
    out.valid = tally.valid;
    out.stats = tally.stats;
    out.timers = tally.timers;
    out.timers.reduceNs += timers.reduceNs;
    out.timers.totalNs = nsSince(total0);
    if (best_fitness < kInf) {
        // Re-materialize the winner once (not counted in the stats):
        // tracking genomes instead of mappings keeps the hot loop free
        // of Mapping copies, and re-evaluation is deterministic.
        const Mapping mapping = best_genome.materialize(
            space.problem(), space.arch());
        EvalScratch &scratch = archipelago[0].scratch;
        evaluator.evaluate(mapping, scratch);
        out.best = mapping;
        out.bestResult = scratch.result;
    }
    return out;
}

} // namespace ruby
