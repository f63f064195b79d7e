#include "ruby/search/genetic_search.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>

#include "ruby/common/error.hpp"
#include "ruby/common/fault_injector.hpp"
#include "ruby/common/thread_pool.hpp"
#include "ruby/model/batch_eval.hpp"
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

/** One sub-population with its own RNG stream. */
struct Island
{
    Rng rng;
    std::vector<Individual> population;
};

/** Per-worker evaluation counters, merged after each batch. */
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

/** A population member awaiting scoring. */
struct ScoreJob
{
    unsigned island;
    std::size_t member;
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
            Island &island, DeltaEvaluator &engine, Tally &tally,
            const CancelToken *external, const CancelToken *poolCancel)
{
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

/**
 * Score jobs [lo, hi) through the batch engine, K members at a time.
 * Genome decision tables are ingested directly — no Mapping is built
 * for members the batch validity stages reject — and fitness needs
 * every surviving member's actual value, so the bound stages are
 * skipped outright (withBound = false). Each job writes only its own
 * individual's fitness plus @p tally, so chunked claiming stays free
 * to vary across runs. Fitness values are bit-identical to scoreOne().
 */
void
scoreJobsBatched(const Mapspace &space, const Evaluator &evaluator,
                 Objective objective,
                 std::vector<Island> &archipelago,
                 const std::vector<ScoreJob> &jobs, std::size_t lo,
                 std::size_t hi, BatchEvaluator &batch,
                 EvalScratch &scratch, Tally &tally,
                 const CancelToken *external,
                 const CancelToken *poolCancel)
{
    FaultInjector &faults = FaultInjector::global();
    const auto t0 = Clock::now();
    for (std::size_t s = lo; s < hi;) {
        const std::size_t want =
            std::min<std::size_t>(kDefaultEvalBatch, hi - s);
        batch.begin(want);
        for (std::size_t j = 0; j < want; ++j) {
            const MappingGenome &g =
                archipelago[jobs[s + j].island]
                    .population[jobs[s + j].member]
                    .genome;
            batch.add(g.steady, g.keep, g.axes);
        }
        batch.run(objective, tally.stats, /*withBound=*/false);
        for (std::size_t j = 0; j < want; ++j) {
            if ((external != nullptr && external->cancelled()) ||
                (poolCancel != nullptr && poolCancel->cancelled())) {
                tally.timers.evalNs += nsSince(t0);
                return;
            }
            Individual &ind = archipelago[jobs[s + j].island]
                                  .population[jobs[s + j].member];
            if (faults.enabled())
                faults.maybeThrow("genetic_search.evaluate");
            ++tally.evaluated;
            ++tally.stats.batchedEvals;
            if (!batch.valid(j)) {
                ++tally.stats.invalid;
                ++tally.stats.batchRejects;
                ind.fitness = kInf;
                continue;
            }
            const Mapping mapping = ind.genome.materialize(
                space.problem(), space.arch());
            batch.prepareScratch(j, scratch);
            evaluator.modelValidated(mapping, scratch);
            ++tally.stats.modeled;
            ++tally.valid;
            ind.fitness = scratch.result.objective(objective);
        }
        s += want;
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
        archipelago.push_back(Island{Rng(options.seed), {}});
    } else {
        Rng seeder(options.seed);
        for (unsigned k = 0; k < K; ++k)
            archipelago.push_back(Island{seeder.split(), {}});
    }

    std::unique_ptr<ThreadPool> pool;
    if (threads > 1)
        pool = std::make_unique<ThreadPool>(threads);
    std::vector<EvalScratch> worker_scratch(threads);
    Tally tally;
    SearchTimers timers;

    // One persistent incremental engine and tally per island. The
    // tallies are merged in island index order after each generation,
    // so the counters are a pure function of (seed, islands) — never
    // of which worker scored which island.
    const bool incremental = engines().incremental;
    std::vector<DeltaEvaluator> delta_engines;
    std::vector<Tally> island_tallies;
    if (incremental) {
        delta_engines.reserve(K);
        for (unsigned k = 0; k < K; ++k)
            delta_engines.emplace_back(evaluator);
        island_tallies.resize(K);
    }

    // Evaluate a batch of members. Each job writes only its own
    // individual's fitness and a per-worker tally, so the claim order
    // is free to vary across runs without affecting any result.
    auto externallyCancelled = [&]() {
        return options.cancel != nullptr && options.cancel->cancelled();
    };
    // One persistent batch engine per worker (lane arrays are reused
    // across generations). Configurations whose keep/axis tables
    // overflow the engine's mask lanes score on the scalar path.
    const bool batched =
        engines().batchEval &&
        BatchEvaluator::supports(evaluator.problem(),
                                 evaluator.arch());
    std::vector<BatchEvaluator> batch_engines;
    if (batched) {
        batch_engines.reserve(threads);
        for (unsigned w = 0; w < threads; ++w)
            batch_engines.emplace_back(evaluator);
    }

    auto scoreBatch = [&](const std::vector<ScoreJob> &jobs) {
        if (pool == nullptr || jobs.size() <= 1) {
            if (batched && jobs.size() > 1) {
                scoreJobsBatched(space, evaluator, options.objective,
                                 archipelago, jobs, 0, jobs.size(),
                                 batch_engines[0], worker_scratch[0],
                                 tally, options.cancel, nullptr);
                return;
            }
            for (const ScoreJob &job : jobs) {
                if (externallyCancelled())
                    return;
                scoreOne(space, evaluator, options.objective,
                         archipelago[job.island]
                             .population[job.member],
                         worker_scratch[0], tally);
            }
            return;
        }
        std::atomic<std::size_t> next{0};
        const auto workers = static_cast<unsigned>(
            std::min<std::size_t>(threads, jobs.size()));
        std::vector<Tally> tallies(workers);
        const CancelToken &cancel = pool->cancelToken();
        if (batched) {
            // Workers claim whole K-wide chunks so each batch stays
            // contiguous; the merge below is commutative, so the
            // claim order cannot affect any result.
            for (unsigned w = 0; w < workers; ++w)
                pool->submit([&, w]() {
                    for (;;) {
                        const std::size_t lo = next.fetch_add(
                            kDefaultEvalBatch,
                            std::memory_order_relaxed);
                        if (lo >= jobs.size() ||
                            cancel.cancelled() ||
                            externallyCancelled())
                            return;
                        const std::size_t hi =
                            std::min(jobs.size(),
                                     lo + kDefaultEvalBatch);
                        scoreJobsBatched(
                            space, evaluator, options.objective,
                            archipelago, jobs, lo, hi,
                            batch_engines[w], worker_scratch[w],
                            tallies[w], options.cancel, &cancel);
                    }
                });
            pool->waitIdle();
            for (const Tally &t : tallies)
                tally += t;
            return;
        }
        for (unsigned w = 0; w < workers; ++w)
            pool->submit([&, w]() {
                for (;;) {
                    const std::size_t idx = next.fetch_add(
                        1, std::memory_order_relaxed);
                    if (idx >= jobs.size() || cancel.cancelled() ||
                        externallyCancelled())
                        return;
                    const ScoreJob &job = jobs[idx];
                    scoreOne(space, evaluator, options.objective,
                             archipelago[job.island]
                                 .population[job.member],
                             worker_scratch[w], tallies[w]);
                }
            });
        pool->waitIdle();
        for (const Tally &t : tallies)
            tally += t;
    };

    std::vector<ScoreJob> jobs;

    // Score one bred generation. Incremental mode hands each island
    // to exactly one worker as a contiguous chunk (the engine's base
    // reuse lives across a whole island's children); the classic mode
    // keeps the per-individual job batch.
    auto scoreGeneration = [&]() {
        if (!incremental) {
            jobs.clear();
            for (unsigned k = 0; k < K; ++k)
                for (std::size_t m = options.elites;
                     m < archipelago[k].population.size(); ++m)
                    jobs.push_back(ScoreJob{k, m});
            scoreBatch(jobs);
            return;
        }
        if (pool == nullptr || K == 1) {
            for (unsigned k = 0; k < K; ++k) {
                if (externallyCancelled())
                    break;
                scoreIsland(space, options.objective, options.elites,
                            archipelago[k], delta_engines[k],
                            island_tallies[k], options.cancel,
                            nullptr);
            }
        } else {
            std::atomic<unsigned> next{0};
            const auto workers = static_cast<unsigned>(
                std::min<std::size_t>(threads, K));
            const CancelToken &cancel = pool->cancelToken();
            for (unsigned w = 0; w < workers; ++w)
                pool->submit([&]() {
                    for (;;) {
                        const unsigned k = next.fetch_add(
                            1, std::memory_order_relaxed);
                        if (k >= K || cancel.cancelled() ||
                            externallyCancelled())
                            return;
                        scoreIsland(space, options.objective,
                                    options.elites, archipelago[k],
                                    delta_engines[k], island_tallies[k],
                                    options.cancel, &cancel);
                    }
                });
            pool->waitIdle();
        }
        for (unsigned k = 0; k < K; ++k) {
            tally += island_tallies[k];
            island_tallies[k] = Tally{};
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

    // Seed every island's population from the random sampler. The
    // draws consume each island's own stream serially; only the
    // scoring fans out (per individual: there is no base to share
    // yet, so the incremental engine starts at the first bred
    // generation).
    for (unsigned k = 0; k < K; ++k) {
        Island &island = archipelago[k];
        island.population.resize(options.populationSize);
        for (std::size_t m = 0; m < island.population.size(); ++m) {
            island.population[m].genome =
                extractGenome(space.sample(island.rng));
            jobs.push_back(ScoreJob{k, m});
        }
    }
    scoreBatch(jobs);
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

    for (unsigned gen = 0; gen < options.generations; ++gen) {
        // Drain point: between generations the population is fully
        // scored, so stopping here returns a coherent best-so-far.
        if (externallyCancelled())
            break;
        // Breeding phase: serial per island, in island order, so each
        // island's RNG stream is consumed exactly as a fully serial
        // run would consume it.
        const auto breed0 = Clock::now();
        std::vector<std::vector<Individual>> offspring(K);
        for (unsigned k = 0; k < K; ++k) {
            Island &island = archipelago[k];
            std::vector<Individual> &next_pop = offspring[k];
            next_pop.reserve(island.population.size());

            // Elitism: carry the best genomes over unchanged (their
            // fitness is already known; they are not rescored).
            const std::vector<std::size_t> order =
                rankedIndices(island.population);
            for (unsigned e = 0; e < options.elites &&
                                 e < island.population.size();
                 ++e)
                next_pop.push_back(island.population[order[e]]);

            while (next_pop.size() < island.population.size()) {
                Individual child;
                // Sequence the two tournaments explicitly: as
                // function arguments their evaluation order would be
                // unspecified, and the RNG stream must not depend on
                // the compiler's choice. The second parent draws
                // first — this pins the stream the historical builds
                // produced, keeping seeded results comparable.
                const Individual &p2 = selectParent(island);
                const Individual &p1 = selectParent(island);
                // At crossoverRate >= 1.0 the decision draw is
                // skipped outright, not merely always-true, so the
                // stream matches builds that predate the knob.
                const bool do_cross =
                    options.crossoverRate >= 1.0 ||
                    island.rng.uniform() < options.crossoverRate;
                if (do_cross)
                    child.genome =
                        crossover(p1.genome, p2.genome, island.rng);
                else
                    child.genome = p1.genome;
                if (island.rng.uniform() < options.mutationRate)
                    mutate(child.genome, space, island.rng);
                next_pop.push_back(std::move(child));
            }
        }

        for (unsigned k = 0; k < K; ++k)
            archipelago[k].population = std::move(offspring[k]);
        timers.breedNs += nsSince(breed0);
        scoreGeneration();
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
    out.timers.breedNs += timers.breedNs;
    out.timers.reduceNs += timers.reduceNs;
    out.timers.totalNs = nsSince(total0);
    if (best_fitness < kInf) {
        // Re-materialize the winner once (not counted in the stats):
        // tracking genomes instead of mappings keeps the hot loop free
        // of Mapping copies, and re-evaluation is deterministic.
        const Mapping mapping = best_genome.materialize(
            space.problem(), space.arch());
        evaluator.evaluate(mapping, worker_scratch[0]);
        out.best = mapping;
        out.bestResult = worker_scratch[0].result;
    }
    return out;
}

} // namespace ruby
