#include "ruby/search/random_search.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "ruby/common/cancel.hpp"
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

using Clock = std::chrono::steady_clock;

std::uint64_t
nsSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start)
            .count());
}

/** Upper bound keeping thread/restart typos from exhausting the OS. */
constexpr unsigned kMaxParallelism = 4096;

/**
 * Evaluations between wall-clock checks: coarse enough that the hot
 * loop never waits on the clock, fine enough that a 100 ms budget is
 * honoured within a few milliseconds of slack.
 */
constexpr std::uint64_t kDeadlineStride = 64;

/**
 * Validate and normalize user-settable options: threads == 0 means
 * "one per hardware thread", restarts must be a positive count, and
 * both are capped to sane bounds.
 */
SearchOptions
resolveOptions(const SearchOptions &options)
{
    SearchOptions opts = options;
    if (opts.threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        opts.threads = hw != 0 ? hw : 1;
    }
    RUBY_CHECK(opts.threads <= kMaxParallelism,
               "search options: threads (", opts.threads,
               ") exceeds the cap of ", kMaxParallelism);
    RUBY_CHECK(opts.restarts >= 1,
               "search options: restarts must be >= 1");
    RUBY_CHECK(opts.restarts <= kMaxParallelism,
               "search options: restarts (", opts.restarts,
               ") exceeds the cap of ", kMaxParallelism);
    return opts;
}

/** What one drawn sample turned out to be. */
struct SampleOutcome
{
    bool valid = false;   ///< passed validity
    bool modeled = false; ///< scratch.result holds full-model output
    double metric = kInf; ///< objective when modeled
};

/**
 * One chunk of up to kDefaultEvalBatch drawn samples, decided one
 * candidate at a time by consume(). Drawing ahead never changes the
 * RNG stream a loop consumes: evaluation never touches the RNG, and
 * draws abandoned at a stop point are discarded uncounted. Every stop
 * check runs per consumed candidate, so stop points, counters and
 * trajectories match a one-draw-at-a-time loop exactly.
 */
class Chunk
{
  public:
    Chunk(const Evaluator &evaluator, Objective objective,
          const Engines &use)
        : evaluator_(evaluator), objective_(objective),
          prune_(use.boundPruning)
    {
        drawn_.reserve(kDefaultEvalBatch);
        // Rare configurations whose keep/axis tables overflow the
        // batch engine's mask lanes are decided scalar.
        if (use.batchEval &&
            BatchEvaluator::supports(evaluator.problem(),
                                     evaluator.arch()))
            batch_.emplace(evaluator);
    }

    /**
     * Draw @p want (<= kDefaultEvalBatch) samples. With the batch
     * engine their validity and bound are computed chunk-wide here.
     */
    void draw(const Mapspace &space, Rng &rng, std::size_t want,
              EvalStats &stats)
    {
        drawn_.clear();
        if (batch_)
            batch_->begin(want);
        for (std::size_t j = 0; j < want; ++j) {
            drawn_.push_back(space.sample(rng));
            if (batch_)
                batch_->add(drawn_.back());
        }
        if (batch_)
            batch_->run(objective_, stats, prune_);
    }

    const Mapping &mapping(std::size_t j) const { return drawn_[j]; }

    /**
     * Decide candidate @p j, cheapest check first: validity, then the
     * objective lower bound against the live @p bestSoFar, then the
     * full model. The batch engine's validity and bound are
     * bit-identical to the scalar checks, so both paths decide every
     * candidate the same way.
     */
    SampleOutcome consume(std::size_t j, double bestSoFar,
                          EvalScratch &scratch, EvalStats &stats) const
    {
        SampleOutcome out;
        const Mapping &mapping = drawn_[j];
        if (batch_) {
            ++stats.batchedEvals;
            if (!batch_->valid(j)) {
                ++stats.invalid;
                ++stats.batchRejects;
                return out;
            }
        } else if (!evaluator_.checkValidity(mapping, scratch, false)) {
            ++stats.invalid;
            return out;
        }
        out.valid = true;
        // Provably non-improving: the metric stays kInf, which is
        // fine because callers only compare it for strict improvement.
        if (prune_ &&
            (batch_ ? batch_->bound(j)
                    : evaluator_.objectiveLowerBound(mapping,
                                                     objective_)) >=
                bestSoFar) {
            ++stats.prunedBound;
            return out;
        }
        if (batch_)
            batch_->prepareScratch(j, scratch);
        evaluator_.modelValidated(mapping, scratch);
        ++stats.modeled;
        out.modeled = true;
        out.metric = scratch.result.objective(objective_);
        return out;
    }

  private:
    const Evaluator &evaluator_;
    Objective objective_;
    bool prune_;
    std::vector<Mapping> drawn_;
    std::optional<BatchEvaluator> batch_;
};

/** Shared best-so-far state for the multithreaded path. */
struct SharedState
{
    std::mutex mutex;
    std::optional<Mapping> best;
    EvalResult bestResult;
    double bestObjective = kInf;
    EvalStats stats; ///< merged per-shard counters (under mutex)
    /** Lock-free snapshot of bestObjective for the pruning stage; a
     *  stale read is only ever too *large*, which prunes less, never
     *  wrongly. */
    std::atomic<double> bestSnapshot{kInf};
    std::atomic<std::uint64_t> evaluated{0};
    std::atomic<std::uint64_t> valid{0};
    std::atomic<std::uint64_t> streak{0};
    std::atomic<bool> stop{false};
    std::atomic<bool> deadlineHit{false};
};

/**
 * One worker of the multithreaded path: draws chunks from its own
 * stream and checks the shared stop flag, cancellation, the deadline
 * stride and the maxEvaluations bound per consumed candidate.
 */
void
shardLoop(const Mapspace &space, const Evaluator &evaluator,
          const SearchOptions &opts, Rng rng, SharedState &state,
          const CancelToken &cancel, const Deadline &deadline)
{
    FaultInjector &faults = FaultInjector::global();
    EvalScratch scratch;
    EvalStats stats;
    Chunk chunk(evaluator, opts.objective, engines());
    std::uint64_t local = 0;
    bool done = false;
    while (!done) {
        std::size_t want = kDefaultEvalBatch;
        if (opts.maxEvaluations != 0) {
            const std::uint64_t seen =
                state.evaluated.load(std::memory_order_relaxed);
            if (seen >= opts.maxEvaluations)
                break;
            want = static_cast<std::size_t>(
                std::min<std::uint64_t>(want,
                                        opts.maxEvaluations - seen));
        }
        chunk.draw(space, rng, want, stats);
        for (std::size_t j = 0; j < want; ++j) {
            if (state.stop.load(std::memory_order_relaxed) ||
                cancel.cancelled()) {
                done = true;
                break;
            }
            if ((local++ % kDeadlineStride) == 0 &&
                (deadline.expired() ||
                 (opts.cancel != nullptr &&
                  opts.cancel->cancelled()))) {
                state.deadlineHit.store(true,
                                        std::memory_order_relaxed);
                state.stop.store(true, std::memory_order_relaxed);
                done = true;
                break;
            }
            if (opts.maxEvaluations != 0 &&
                state.evaluated.load(std::memory_order_relaxed) >=
                    opts.maxEvaluations) {
                state.stop.store(true, std::memory_order_relaxed);
                done = true;
                break;
            }
            if (faults.enabled())
                faults.maybeThrow("random_search.evaluate");
            const SampleOutcome sample = chunk.consume(
                j, state.bestSnapshot.load(std::memory_order_relaxed),
                scratch, stats);
            state.evaluated.fetch_add(1, std::memory_order_relaxed);
            if (!sample.valid)
                continue;
            state.valid.fetch_add(1, std::memory_order_relaxed);

            bool improved = false;
            if (sample.modeled) {
                std::lock_guard lock(state.mutex);
                if (sample.metric < state.bestObjective) {
                    state.bestObjective = sample.metric;
                    state.bestSnapshot.store(
                        sample.metric, std::memory_order_relaxed);
                    state.best = chunk.mapping(j);
                    state.bestResult = scratch.result;
                    improved = true;
                }
            }
            if (improved) {
                state.streak.store(0, std::memory_order_relaxed);
            } else if (opts.terminationStreak != 0) {
                const auto streak =
                    state.streak.fetch_add(
                        1, std::memory_order_relaxed) +
                    1;
                if (streak >= opts.terminationStreak)
                    state.stop.store(true, std::memory_order_relaxed);
            }
        }
    }
    std::lock_guard lock(state.mutex);
    state.stats += stats;
}

SearchResult
runOne(const Mapspace &space, const Evaluator &evaluator,
       const SearchOptions &options, const Deadline &deadline)
{
    SearchResult out;

    if (options.recordTrajectory || options.threads <= 1) {
        // The serial loop: checks run per consumed candidate at global
        // index i and the incumbent is live across the chunk.
        FaultInjector &faults = FaultInjector::global();
        Rng rng(options.seed);
        EvalScratch scratch;
        Chunk chunk(evaluator, options.objective, engines());
        double best = kInf;
        std::uint64_t streak = 0;
        std::uint64_t i = 0;
        bool done = false;
        while (!done) {
            std::size_t want = kDefaultEvalBatch;
            if (options.maxEvaluations != 0) {
                if (i >= options.maxEvaluations)
                    break;
                want = static_cast<std::size_t>(std::min<std::uint64_t>(
                    want, options.maxEvaluations - i));
            }
            chunk.draw(space, rng, want, out.stats);
            for (std::size_t j = 0; j < want; ++j, ++i) {
                if ((i % kDeadlineStride) == 0 &&
                    (deadline.expired() ||
                     (options.cancel != nullptr &&
                      options.cancel->cancelled()))) {
                    out.deadlineExceeded = true;
                    done = true;
                    break;
                }
                if (faults.enabled())
                    faults.maybeThrow("random_search.evaluate");
                const SampleOutcome sample =
                    chunk.consume(j, best, scratch, out.stats);
                ++out.evaluated;
                if (sample.valid) {
                    ++out.valid;
                    if (sample.modeled && sample.metric < best) {
                        best = sample.metric;
                        out.best = chunk.mapping(j);
                        out.bestResult = scratch.result;
                        streak = 0;
                    } else {
                        ++streak;
                    }
                }
                if (options.recordTrajectory)
                    out.trajectory.push_back(best);
                if (options.terminationStreak != 0 &&
                    streak >= options.terminationStreak) {
                    done = true;
                    break;
                }
            }
        }
        return out;
    }

    // One shard per worker on an exception-safe pool: a shard that
    // throws (e.g. an injected fault) trips the pool's cancel token,
    // the remaining shards observe it and drain, and waitIdle()
    // rethrows the failure once the pool is quiescent.
    SharedState state;
    ThreadPool pool(options.threads);
    const CancelToken &cancel = pool.cancelToken();
    Rng seeder(options.seed);
    for (unsigned i = 0; i < options.threads; ++i)
        pool.submit([&, stream = seeder.split()]() mutable {
            shardLoop(space, evaluator, options, stream, state, cancel,
                      deadline);
        });
    pool.waitIdle();

    out.best = std::move(state.best);
    out.bestResult = std::move(state.bestResult);
    out.evaluated = state.evaluated.load();
    out.valid = state.valid.load();
    out.stats = state.stats;
    out.deadlineExceeded = state.deadlineHit.load();
    return out;
}

/**
 * Greedy post-sampling refinement (SearchOptions::refineSteps): walk
 * mutated neighbours of the best sampled mapping, keeping each strict
 * improvement. The stream is derived from the resolved seed — never
 * the sampler's — so enabling refinement leaves the sampling prefix
 * untouched. Each step is one evaluation counted in the normal stats
 * (full model: the neighbour's actual metric is the acceptance test,
 * so the bound prune does not apply); the
 * termination streak does not — refineSteps is its own budget.
 */
void
refineBest(const Mapspace &space, const Evaluator &evaluator,
           const SearchOptions &opts, const Deadline &deadline,
           SearchResult &best)
{
    if (opts.refineSteps == 0 || !best.best)
        return;
    FaultInjector &faults = FaultInjector::global();
    const auto t0 = Clock::now();
    Rng rng(opts.seed ^ 0x9e3779b97f4a7c15ull);
    MappingGenome genome = extractGenome(*best.best);
    double best_metric = best.bestResult.objective(opts.objective);
    EvalScratch scratch;
    std::optional<DeltaEvaluator> engine;
    if (engines().incremental) {
        engine.emplace(evaluator);
        engine->rebase(*best.best, best.stats);
    }
    for (unsigned s = 0; s < opts.refineSteps; ++s) {
        if ((s % kDeadlineStride) == 0 &&
            (deadline.expired() ||
             (opts.cancel != nullptr && opts.cancel->cancelled()))) {
            best.deadlineExceeded = true;
            break;
        }
        MappingGenome neighbour = genome;
        mutate(neighbour, space, rng);
        if (faults.enabled())
            faults.maybeThrow("random_search.evaluate");
        ++best.evaluated;
        if (engine) {
            const MappingComponents comp{&neighbour.steady,
                                         &neighbour.perms,
                                         &neighbour.keep,
                                         &neighbour.axes};
            const EvalResult &res =
                engine->evaluateCandidate(comp, best.stats);
            if (!res.valid) {
                ++best.stats.invalid;
                continue;
            }
            ++best.stats.modeled;
            ++best.valid;
            const double metric = res.objective(opts.objective);
            if (metric < best_metric) {
                best_metric = metric;
                best.best = neighbour.materialize(space.problem(),
                                                  space.arch());
                // Copy before the promote: the reference points into
                // the engine's candidate buffer, which promoteLast()
                // swaps away.
                best.bestResult = res;
                engine->promoteLast();
                genome = std::move(neighbour);
            }
            continue;
        }
        const Mapping mapping =
            neighbour.materialize(space.problem(), space.arch());
        evaluator.evaluate(mapping, scratch);
        if (!scratch.result.valid) {
            ++best.stats.invalid;
            continue;
        }
        ++best.stats.modeled;
        ++best.valid;
        const double metric = scratch.result.objective(opts.objective);
        if (metric < best_metric) {
            best_metric = metric;
            best.best = mapping;
            best.bestResult = scratch.result;
            genome = std::move(neighbour);
        }
    }
    best.timers.evalNs += nsSince(t0);
}

} // namespace

SearchResult
randomSearch(const Mapspace &space, const Evaluator &evaluator,
             const SearchOptions &options)
{
    const auto total0 = Clock::now();
    const SearchOptions resolved = resolveOptions(options);
    // One deadline covers every restart: timeBudget bounds the whole
    // call, not each restart individually.
    const Deadline deadline = Deadline::after(resolved.timeBudget);

    SearchResult best;
    if (resolved.restarts <= 1 || resolved.recordTrajectory) {
        best = runOne(space, evaluator, resolved, deadline);
    } else {
        for (unsigned r = 0; r < resolved.restarts; ++r) {
            SearchOptions opts = resolved;
            opts.seed = resolved.seed + 1000003ull * r;
            SearchResult res = runOne(space, evaluator, opts, deadline);
            const bool better =
                res.best &&
                (!best.best ||
                 res.bestResult.objective(resolved.objective) <
                     best.bestResult.objective(resolved.objective));
            if (better) {
                best.best = std::move(res.best);
                best.bestResult = std::move(res.bestResult);
            }
            best.evaluated += res.evaluated;
            best.valid += res.valid;
            best.stats += res.stats;
            if (res.deadlineExceeded) {
                best.deadlineExceeded = true;
                break;
            }
        }
    }
    refineBest(space, evaluator, resolved, deadline, best);
    best.timers.totalNs = nsSince(total0);
    return best;
}

} // namespace ruby
