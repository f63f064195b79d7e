#include "ruby/search/exhaustive_search.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <numeric>
#include <thread>

#include "ruby/common/error.hpp"
#include "ruby/common/fault_injector.hpp"
#include "ruby/common/incumbent.hpp"
#include "ruby/common/thread_pool.hpp"
#include "ruby/mapspace/factor_space.hpp"
#include "ruby/mapspace/index_space.hpp"
#include "ruby/model/batch_eval.hpp"
#include "ruby/search/engines.hpp"

namespace ruby
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr unsigned kMaxParallelism = 4096;

/** The fixed enumeration context shared (read-only) by all shards. */
struct EnumContext
{
    const Mapspace &space;
    const ExhaustiveOptions &opts;
    /** The objective lower-bound prune is on (see engines.hpp). */
    bool prune;
    /** Canonical chains per dimension. */
    std::vector<std::vector<std::vector<std::uint64_t>>> chains;
    /** Shared permutation set (identity, or all permutations). */
    std::vector<std::vector<DimId>> perm_set;
    /** Keep-all residency honouring forced bypasses. */
    std::vector<std::vector<char>> keep;
};

/**
 * One shard's running best. Within a shard indices are claimed in
 * increasing order, so keeping the first strict improvement keeps the
 * lowest index attaining the shard's minimum; the cross-shard
 * reduction then breaks metric ties by index, which reproduces the
 * serial "first strict improvement wins" rule exactly.
 */
struct ShardBest
{
    double metric = kInf;
    std::uint64_t index = std::numeric_limits<std::uint64_t>::max();
    std::optional<Mapping> mapping;
    EvalResult result;
    EvalStats stats;
    std::uint64_t valid = 0;
};

/**
 * Evaluate indices claimed chunk-by-chunk from the shared counter
 * until the range [0, limit) is exhausted. All shards prune against
 * the same incumbent through the strict-predicate staged overload, so
 * the set of modeled mappings may differ across thread counts but the
 * reduced best never does.
 */
void
shardLoop(const EnumContext &ctx, const Evaluator &evaluator,
          std::atomic<std::uint64_t> &next, std::uint64_t limit,
          std::uint64_t chunk, const ExhaustiveIndexSpace &index_space,
          SharedIncumbent &incumbent, const CancelToken *cancel,
          ShardBest &best)
{
    FaultInjector &faults = FaultInjector::global();
    const Problem &prob = ctx.space.problem();
    const ArchSpec &arch = ctx.space.arch();
    const int nd = prob.numDims();
    const int nl = arch.numLevels();

    EvalScratch scratch;
    std::vector<std::size_t> pick, perm_pick;
    std::vector<std::vector<std::uint64_t>> steady(
        static_cast<std::size_t>(nd));
    std::vector<std::vector<DimId>> perms(
        static_cast<std::size_t>(nl));

    for (;;) {
        const std::uint64_t start =
            next.fetch_add(chunk, std::memory_order_relaxed);
        if (start >= limit)
            return;
        const std::uint64_t end = std::min(start + chunk, limit);
        for (std::uint64_t i = start; i < end; ++i) {
            if ((cancel != nullptr && cancel->cancelled()) ||
                (ctx.opts.cancel != nullptr &&
                 ctx.opts.cancel->cancelled()))
                return;
            index_space.decode(i, pick, perm_pick);
            for (DimId d = 0; d < nd; ++d)
                steady[static_cast<std::size_t>(d)] =
                    ctx.chains[static_cast<std::size_t>(d)]
                              [pick[static_cast<std::size_t>(d)]];
            for (int l = 0; l < nl; ++l)
                perms[static_cast<std::size_t>(l)] =
                    ctx.perm_set[perm_pick[static_cast<std::size_t>(
                        l)]];
            Mapping mapping(prob, arch, steady, perms, ctx.keep);
            if (faults.enabled())
                faults.maybeThrow("exhaustive_search.evaluate");
            const StagedEval staged = evaluator.evaluateStaged(
                mapping, ctx.opts.objective, incumbent,
                ctx.prune, scratch);
            switch (staged) {
              case StagedEval::Invalid:
                ++best.stats.invalid;
                break;
              case StagedEval::PrunedBound:
                ++best.stats.prunedBound;
                ++best.valid;
                break;
              case StagedEval::Modeled: {
                ++best.stats.modeled;
                ++best.valid;
                const double metric =
                    scratch.result.objective(ctx.opts.objective);
                if (metric < best.metric) {
                    best.metric = metric;
                    best.index = i;
                    best.mapping = std::move(mapping);
                    best.result = scratch.result;
                }
                break;
              }
            }
        }
    }
}

/**
 * shardLoop() with the K-wide batch front end. Decoded decision rows
 * are ingested straight into the batch engine — no Mapping, no
 * FactorChain division — and a Mapping is materialized only for
 * candidates that survive both the batch validity stages and the
 * incumbent prune. Candidates are consumed in index order with the
 * scalar loop's per-index cancellation and fault points, the same
 * strict incumbent predicate, and first-strict-improvement selection,
 * so the reduced best is bit-identical to the scalar shard.
 */
void
shardLoopBatched(const EnumContext &ctx, const Evaluator &evaluator,
                 std::atomic<std::uint64_t> &next, std::uint64_t limit,
                 std::uint64_t chunk,
                 const ExhaustiveIndexSpace &index_space,
                 SharedIncumbent &incumbent, const CancelToken *cancel,
                 ShardBest &best)
{
    FaultInjector &faults = FaultInjector::global();
    const Problem &prob = ctx.space.problem();
    const ArchSpec &arch = ctx.space.arch();
    const int nd = prob.numDims();
    const int nl = arch.numLevels();

    EvalScratch scratch;
    BatchEvaluator batch(evaluator);
    std::vector<std::size_t> pick, perm_pick;
    /** Per-candidate permutation picks, flat [j * nl + l]. */
    std::vector<std::size_t> perm_picks;
    std::vector<std::vector<std::uint64_t>> steady(
        static_cast<std::size_t>(nd));
    std::vector<std::vector<DimId>> perms(
        static_cast<std::size_t>(nl));
    const std::vector<std::vector<SpatialAxis>> no_axes;

    for (;;) {
        const std::uint64_t start =
            next.fetch_add(chunk, std::memory_order_relaxed);
        if (start >= limit)
            return;
        const std::uint64_t end = std::min(start + chunk, limit);
        for (std::uint64_t s = start; s < end;) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(kDefaultEvalBatch, end - s));
            batch.begin(want);
            perm_picks.assign(want * static_cast<std::size_t>(nl), 0);
            for (std::size_t j = 0; j < want; ++j) {
                index_space.decode(s + j, pick, perm_pick);
                for (DimId d = 0; d < nd; ++d)
                    steady[static_cast<std::size_t>(d)] =
                        ctx.chains[static_cast<std::size_t>(d)][pick[
                            static_cast<std::size_t>(d)]];
                for (int l = 0; l < nl; ++l)
                    perm_picks[j * static_cast<std::size_t>(nl) +
                               static_cast<std::size_t>(l)] =
                        perm_pick[static_cast<std::size_t>(l)];
                batch.add(steady, ctx.keep, no_axes);
            }
            batch.run(ctx.opts.objective, best.stats,
                      ctx.prune);
            for (std::size_t j = 0; j < want; ++j) {
                if ((cancel != nullptr && cancel->cancelled()) ||
                    (ctx.opts.cancel != nullptr &&
                     ctx.opts.cancel->cancelled()))
                    return;
                if (faults.enabled())
                    faults.maybeThrow("exhaustive_search.evaluate");
                ++best.stats.batchedEvals;
                if (!batch.valid(j)) {
                    ++best.stats.invalid;
                    ++best.stats.batchRejects;
                    continue;
                }
                // Same strict predicate as the staged incumbent
                // overload: bound == incumbent is NOT pruned.
                if (ctx.prune &&
                    batch.bound(j) > incumbent.load()) {
                    ++best.stats.prunedBound;
                    ++best.valid;
                    continue;
                }
                const std::uint64_t i = s + j;
                index_space.decode(i, pick, perm_pick);
                for (DimId d = 0; d < nd; ++d)
                    steady[static_cast<std::size_t>(d)] =
                        ctx.chains[static_cast<std::size_t>(d)][pick[
                            static_cast<std::size_t>(d)]];
                for (int l = 0; l < nl; ++l)
                    perms[static_cast<std::size_t>(l)] =
                        ctx.perm_set[perm_picks[
                            j * static_cast<std::size_t>(nl) +
                            static_cast<std::size_t>(l)]];
                Mapping mapping(prob, arch, steady, perms, ctx.keep);
                batch.prepareScratch(j, scratch);
                evaluator.modelValidated(mapping, scratch);
                incumbent.observeMin(
                    scratch.result.objective(ctx.opts.objective));
                ++best.stats.modeled;
                ++best.valid;
                const double metric =
                    scratch.result.objective(ctx.opts.objective);
                if (metric < best.metric) {
                    best.metric = metric;
                    best.index = i;
                    best.mapping = std::move(mapping);
                    best.result = scratch.result;
                }
            }
            s += want;
        }
    }
}

} // namespace

ExhaustiveResult
exhaustiveSearch(const Mapspace &space, const Evaluator &evaluator,
                 const ExhaustiveOptions &options)
{
    const auto total0 = std::chrono::steady_clock::now();
    const Problem &prob = space.problem();
    const ArchSpec &arch = space.arch();
    const int nd = prob.numDims();
    const int nl = arch.numLevels();
    const int nt = prob.numTensors();

    unsigned threads = options.threads;
    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw != 0 ? hw : 1;
    }
    RUBY_CHECK(threads <= kMaxParallelism,
               "exhaustive search: threads (", threads,
               ") exceeds the cap of ", kMaxParallelism);

    EnumContext ctx{space, options, engines().boundPruning, {}, {}, {}};

    // Enumerate each dimension's canonical chains once.
    ctx.chains.resize(static_cast<std::size_t>(nd));
    std::vector<std::uint64_t> chain_counts(
        static_cast<std::size_t>(nd));
    for (DimId d = 0; d < nd; ++d) {
        ctx.chains[static_cast<std::size_t>(d)] =
            enumerateChains(prob.dimSize(d), chainRules(space, d));
        RUBY_CHECK(!ctx.chains[static_cast<std::size_t>(d)].empty(),
                   "dimension ", prob.dimName(d),
                   " has no feasible chain");
        chain_counts[static_cast<std::size_t>(d)] =
            ctx.chains[static_cast<std::size_t>(d)].size();
    }

    // Permutation sets.
    {
        std::vector<DimId> identity(static_cast<std::size_t>(nd));
        std::iota(identity.begin(), identity.end(), 0);
        if (options.permutations) {
            std::vector<DimId> p = identity;
            do {
                ctx.perm_set.push_back(p);
            } while (std::next_permutation(p.begin(), p.end()));
        } else {
            ctx.perm_set.push_back(identity);
        }
    }

    // Keep-all residency honouring forced bypasses.
    ctx.keep.assign(static_cast<std::size_t>(nl),
                    std::vector<char>(static_cast<std::size_t>(nt),
                                      1));
    for (int l = 1; l < nl - 1; ++l)
        for (int t = 0; t < nt; ++t)
            if (space.constraints().bypassForced(l, t))
                ctx.keep[static_cast<std::size_t>(l)]
                        [static_cast<std::size_t>(t)] = 0;

    const ExhaustiveIndexSpace index_space(std::move(chain_counts),
                                           ctx.perm_set.size(), nl);
    const std::uint64_t total = index_space.size();
    const std::uint64_t limit =
        options.maxEvaluations != 0
            ? std::min(total, options.maxEvaluations)
            : total;

    ExhaustiveResult out;
    out.truncated = limit < total || index_space.saturated();
    if (limit == 0)
        return out;

    SharedIncumbent incumbent;
    std::atomic<std::uint64_t> next{0};
    const unsigned workers = static_cast<unsigned>(std::min<
        std::uint64_t>(threads, limit));
    std::vector<ShardBest> shard_bests(workers);

    // Configurations whose keep/axis tables overflow the batch
    // engine's mask lanes enumerate on the scalar path.
    const bool batched =
        engines().batchEval &&
        BatchEvaluator::supports(evaluator.problem(),
                                 evaluator.arch());

    if (workers <= 1) {
        if (batched)
            shardLoopBatched(ctx, evaluator, next, limit, limit,
                             index_space, incumbent, nullptr,
                             shard_bests[0]);
        else
            shardLoop(ctx, evaluator, next, limit, limit, index_space,
                      incumbent, nullptr, shard_bests[0]);
    } else {
        const std::uint64_t chunk =
            ExhaustiveIndexSpace::chunkSizeFor(limit, workers);
        ThreadPool pool(workers);
        const CancelToken &cancel = pool.cancelToken();
        for (unsigned w = 0; w < workers; ++w)
            pool.submit([&, w]() {
                if (batched)
                    shardLoopBatched(ctx, evaluator, next, limit,
                                     chunk, index_space, incumbent,
                                     &cancel, shard_bests[w]);
                else
                    shardLoop(ctx, evaluator, next, limit, chunk,
                              index_space, incumbent, &cancel,
                              shard_bests[w]);
            });
        pool.waitIdle();
    }

    // Deterministic reduction: lowest metric, then lowest index —
    // exactly the mapping the serial first-strict-improvement loop
    // would have kept.
    ShardBest *winner = nullptr;
    for (ShardBest &sb : shard_bests) {
        out.evaluated +=
            sb.stats.invalid + sb.stats.prunedBound + sb.stats.modeled;
        out.valid += sb.valid;
        out.stats += sb.stats;
        if (!sb.mapping)
            continue;
        if (winner == nullptr || sb.metric < winner->metric ||
            (sb.metric == winner->metric &&
             sb.index < winner->index))
            winner = &sb;
    }
    if (winner != nullptr) {
        out.best = std::move(winner->mapping);
        out.bestResult = winner->result;
    }
    out.timers.totalNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - total0)
            .count());
    return out;
}

} // namespace ruby
