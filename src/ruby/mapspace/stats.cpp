#include "ruby/mapspace/stats.hpp"

#include <algorithm>

#include "ruby/common/error.hpp"
#include "ruby/common/rng.hpp"

namespace ruby
{

double
MapspaceStats::validityRate() const
{
    return samples == 0
               ? 0.0
               : static_cast<double>(valid) /
                     static_cast<double>(samples);
}

MapspaceStats
collectStats(const Mapspace &space, const Evaluator &evaluator,
             const StatsOptions &options)
{
    RUBY_CHECK(options.samples >= 1, "stats need >= 1 sample");
    RUBY_CHECK(options.qualityFactor >= 1.0,
               "quality factor must be >= 1");

    MapspaceStats stats;
    Rng rng(options.seed);
    std::vector<double> metrics;
    metrics.reserve(options.samples);

    SampleScratch scratch;
    Mapping mapping = space.sample(rng);
    for (std::uint64_t i = 0; i < options.samples; ++i) {
        if (i > 0)
            space.sample(rng, mapping, scratch);
        const EvalResult res = evaluator.evaluate(mapping);
        ++stats.samples;
        if (!res.valid)
            continue;
        ++stats.valid;
        metrics.push_back(res.objective(options.objective));
    }
    if (metrics.empty())
        return stats;

    std::sort(metrics.begin(), metrics.end());
    auto quantile = [&](double q) {
        const std::size_t idx = std::min(
            metrics.size() - 1,
            static_cast<std::size_t>(
                q * static_cast<double>(metrics.size())));
        return metrics[idx];
    };
    stats.best = metrics.front();
    stats.p10 = quantile(0.10);
    stats.median = quantile(0.50);
    stats.p90 = quantile(0.90);

    const double cutoff = stats.best * options.qualityFactor;
    const auto good = static_cast<double>(
        std::upper_bound(metrics.begin(), metrics.end(), cutoff) -
        metrics.begin());
    stats.goodDensity = good / static_cast<double>(metrics.size());
    return stats;
}

} // namespace ruby
