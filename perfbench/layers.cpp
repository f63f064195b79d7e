#include "layers.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ruby/common/rng.hpp"
#include "stats.hpp"

namespace perfbench
{

const std::vector<LayerMetricSpec> &
layerMetricSpecs()
{
    static const std::vector<LayerMetricSpec> specs = {
        {"mapspace.draws", "count"},
        {"mapspace.sample_ns", "ns"},
        {"mapspace.build_ms", "ms"},
        {"mapspace.sample_share", "ratio"},
        {"model.valid_ratio", "ratio"},
        {"model.validity_ns", "ns"},
        {"model.full_ns", "ns"},
        {"model.bound_pruned", "count"},
        {"model.modeled", "count"},
        {"model.batch_per_call", "count"},
        {"model.eval_cache_hit_ratio", "ratio"},
        {"search.layer_s_p50", "s"},
        {"search.layer_s_max", "s"},
        {"search.memo_layers", "count"},
        {"search.cpu_util", "ratio"},
        {"search.optimal.leaves", "count"},
        {"search.optimal.eyeriss_s", "s"},
        {"search.optimal.simba_s", "s"},
        {"search.optimal.gap_pct_at_20k", "%"},
        {"serve.hot_p50_ms", "ms"},
        {"serve.json_parse_ns", "ns"},
        {"serve.json_write_ns", "ns"},
        {"serve.router_hop_ms", "ms"},
        {"serve.router_cache_hit_ratio", "ratio"},
        {"serve.memo_p50_ms", "ms"},
        {"serve.cold_p50_ms", "ms"},
        {"serve.cold_p99_ms", "ms"},
        {"serve.shard_imbalance", "ratio"},
        {"serve.layer_memo_hit_ratio", "ratio"},
        {"serve.coalesced", "count"},
        {"serve.reroutes", "count"},
        {"serve.rejected", "count"},
        {"serve.startup_ms", "ms"},
        {"host.steal_frac", "ratio"},
        {"host.cpu_s", "s"},
        {"trace.overhead_s", "s"},
        {"trace.overhead_pct", "%"},
    };
    return specs;
}

void
LayerMetrics::set(const std::string &name, double value)
{
    const auto &specs = layerMetricSpecs();
    const bool known =
        std::any_of(specs.begin(), specs.end(),
                    [&](const LayerMetricSpec &s) { return name == s.name; });
    if (!known)
        throw std::logic_error("unknown per-layer metric " + name);
    values_[name] = value;
}

void
LayerMetrics::emit(RunReport &report) const
{
    for (const LayerMetricSpec &s : layerMetricSpecs()) {
        const auto it = values_.find(s.name);
        report.metric(s.name, it == values_.end() ? 0.0 : it->second,
                      s.unit);
    }
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

void
setModelCounters(LayerMetrics &m, const ruby::EvalStats &stats,
                 std::uint64_t evaluated)
{
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    m.set("model.valid_ratio",
          ratio(d(evaluated - stats.invalid), d(evaluated)));
    m.set("model.bound_pruned", d(stats.prunedBound));
    m.set("model.modeled", d(stats.modeled));
    m.set("model.batch_per_call",
          ratio(d(stats.batchedEvals), d(stats.batchCalls)));
    m.set("model.eval_cache_hit_ratio",
          ratio(d(stats.cacheHits), d(stats.cacheHits + stats.cacheMisses)));
}

void
replayLayer(const ruby::Mapspace &space, const ruby::Evaluator &evaluator,
            std::uint64_t draws, std::uint64_t seed, Tracer &tracer,
            std::int64_t parent, ReplayTotals &totals)
{
    // The random search draws and decides candidates in batches of 32.
    constexpr std::uint64_t kChunk = 32;
    ruby::Rng rng(seed);
    ruby::EvalScratch scratch;
    std::vector<ruby::Mapping> chunk;
    std::vector<const ruby::Mapping *> valid;
    chunk.reserve(kChunk);
    for (std::uint64_t done = 0; done < draws;) {
        const std::uint64_t n = std::min(kChunk, draws - done);
        chunk.clear();
        valid.clear();
        {
            Scope span(tracer, "Mapspace::sample", parent);
            const std::uint64_t t0 = nowNs();
            for (std::uint64_t i = 0; i < n; ++i)
                chunk.push_back(space.sample(rng));
            totals.sampleNs += nowNs() - t0;
        }
        {
            Scope span(tracer, "checkValidity", parent);
            const std::uint64_t t0 = nowNs();
            for (const ruby::Mapping &mapping : chunk)
                if (evaluator.checkValidity(mapping, scratch, false))
                    valid.push_back(&mapping);
            totals.validityNs += nowNs() - t0;
        }
        {
            Scope span(tracer, "evaluate", parent);
            const std::uint64_t t0 = nowNs();
            for (const ruby::Mapping *mapping : valid)
                evaluator.evaluate(*mapping, scratch);
            totals.fullNs += nowNs() - t0;
        }
        totals.valid += valid.size();
        totals.draws += n;
        done += n;
    }
}

void
setReplayMetrics(LayerMetrics &m, const ReplayTotals &totals)
{
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    m.set("mapspace.sample_ns", ratio(d(totals.sampleNs), d(totals.draws)));
    m.set("model.validity_ns",
          ratio(d(totals.validityNs), d(totals.draws)));
    m.set("model.full_ns", ratio(d(totals.fullNs), d(totals.valid)));
}

void
setRunMetrics(LayerMetrics &m, double cpuSeconds, double stealFrac,
              const std::vector<double> &untracedSeconds,
              const std::vector<double> &tracedSeconds)
{
    m.set("host.cpu_s", cpuSeconds);
    m.set("host.steal_frac", stealFrac);
    const double untraced = median(untracedSeconds);
    const double traced = median(tracedSeconds);
    m.set("trace.overhead_s", traced - untraced);
    m.set("trace.overhead_pct", 100.0 * ratio(traced - untraced, untraced));
}

void
finishTrace(RunReport &report, const Tracer &tracer, const std::string &path)
{
    const std::vector<Span> spans = tracer.spans();
    if (!path.empty()) {
        std::ofstream out(path);
        writeChromeTrace(out, spans);
        report.note("trace: " + std::to_string(spans.size()) +
                    " spans written to " + path);
    }
    const auto totals = totalsByName(spans);
    std::vector<std::pair<std::string, SpanTotals>> rows(totals.begin(),
                                                         totals.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.selfNs > b.second.selfNs;
    });
    for (const auto &[name, t] : rows) {
        std::ostringstream line;
        line << "self time: " << name << " " << fmt(t.selfNs * 1e-9)
             << " s of " << fmt(t.totalNs * 1e-9) << " s over " << t.count
             << " spans";
        report.note(line.str());
    }
}

} // namespace perfbench
