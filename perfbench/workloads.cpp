#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "layers.hpp"
#include "ruby/arch/presets.hpp"
#include "ruby/common/rng.hpp"
#include "ruby/mapspace/mapspace.hpp"
#include "ruby/model/evaluator.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/search/optimal_search.hpp"
#include "ruby/search/random_search.hpp"
#include "ruby/workload/conv.hpp"
#include "ruby/workload/suites/suites.hpp"

namespace perfbench
{

using namespace ruby;

const std::size_t kSetupSamples = 30;
const std::size_t kSetupSamplesPerRep = 4;

PinToCpu::PinToCpu(unsigned slot)
{
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0)
        return;
    const int allowed = CPU_COUNT(&saved_);
    int skip = allowed > 0 ? static_cast<int>(slot % allowed) : 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &saved_) || skip-- > 0)
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
        return;
    }
}

PinToCpu::~PinToCpu()
{
    if (pinned_)
        sched_setaffinity(0, sizeof saved_, &saved_);
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::vector<double>
timeRepetitions(double seconds, std::size_t minReps,
                const std::function<void(std::size_t)> &rep,
                const std::function<void()> &before)
{
    std::vector<double> out;
    const std::uint64_t start = nowNs();
    while (out.size() < minReps ||
           static_cast<double>(nowNs() - start) * 1e-9 < seconds) {
        before();
        const std::uint64_t t0 = nowNs();
        rep(out.size());
        out.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    return out;
}

void
timeSetups(std::vector<double> &out, std::size_t samples,
           std::size_t batch, const std::function<void()> &setup,
           const std::function<void()> &teardown, bool rotateCpus)
{
    static unsigned nextCpu = 0;
    for (std::size_t k = 0; k < samples; ++k) {
        std::optional<PinToCpu> pin;
        if (rotateCpus)
            pin.emplace(nextCpu++);
        std::uint64_t ns = 0;
        for (std::size_t i = 0; i < batch; ++i) {
            const std::uint64_t t0 = nowNs();
            setup();
            ns += nowNs() - t0;
            teardown();
        }
        out.push_back(static_cast<double>(ns) * 1e-9 /
                      static_cast<double>(batch));
    }
}

void
reportEndToEnd(RunReport &report, const EndToEnd &e2e)
{
    report.metric("answer_s", median(e2e.answerSeconds), "s");
    report.metric("edp", e2e.edp * 1e-12, "J.cycle"); // pJ x cycles
    report.metric("setup_s", median(e2e.setupSeconds), "s");
    report.metric("peak_rss_mb", e2e.peakRssMb, "MiB");

    report.note("samples: answer_s median of " +
                std::to_string(e2e.answerSeconds.size()) +
                " repetitions; setup_s median of " +
                std::to_string(e2e.setupSeconds.size()) + " samples");
    std::ostringstream reps;
    reps << "answer_s repetitions:";
    for (const double v : e2e.answerSeconds)
        reps << " " << v;
    report.note(reps.str());
    std::ostringstream setups;
    setups << "setup_s samples:";
    for (const double v : e2e.setupSeconds)
        setups << " " << v;
    report.note(setups.str());
    report.note("failed_frac = " + fmt(report.tally.failedFraction()) +
                " ratio (" + std::to_string(report.tally.failed) +
                " of " + std::to_string(report.tally.attempted) +
                " answers failed)");
}

namespace
{

/** Numeric shape key, as searchNetwork's layer memo keys a layer. */
std::array<std::uint64_t, 11>
shapeKey(const ConvShape &s)
{
    return {s.n,       s.c,       s.m,         s.p,
            s.q,       s.r,       s.s,         s.strideH,
            s.strideW, s.dilationH, s.dilationW};
}

/** One layer's search inputs, built exactly as searchLayer builds
 *  them. Holds references into itself, so it never moves. */
struct LayerSetup
{
    LayerSetup(const ArchSpec &arch, const ConvShape &shape,
               ConstraintPreset preset)
        : problem(makeConv(shape)),
          constraints(makeConstraints(preset, problem, arch)),
          space(constraints, MapspaceVariant::RubyS),
          evaluator(problem, arch)
    {
    }
    LayerSetup(const LayerSetup &) = delete;
    LayerSetup &operator=(const LayerSetup &) = delete;

    Problem problem;
    MappingConstraints constraints;
    Mapspace space;
    Evaluator evaluator;
};

/** CPU seconds over (wall seconds x threads) for the traced reps. */
double
cpuUtil(double cpuSeconds, const std::vector<double> &wallSeconds,
        unsigned threads)
{
    double wall = 0.0;
    for (const double w : wallSeconds)
        wall += w;
    return ratio(cpuSeconds, wall * threads);
}

/** Run @p fn(i) for i in [0, n) on up to @p maxWorkers threads. */
void
parallelFor(std::size_t n, unsigned maxWorkers,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    const unsigned workers = std::min<unsigned>(
        maxWorkers, static_cast<unsigned>(std::max<std::size_t>(n, 1)));
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back([&] {
            for (std::size_t i; (i = next.fetch_add(1)) < n;)
                fn(i);
        });
    for (std::thread &t : pool)
        t.join();
}

/**
 * Re-evaluate @p best with a fresh Evaluator: it must be valid and
 * give exactly @p edp. Returns an empty string or the problem.
 */
std::string
reEvaluate(const Problem &problem, const ArchSpec &arch,
           const Mapping &best, double edp)
{
    const Evaluator fresh(problem, arch);
    const EvalResult res = fresh.evaluate(best);
    if (!res.valid)
        return "re-evaluated best mapping is invalid: " + res.invalidReason;
    if (res.edp != edp)
        return "re-evaluated EDP " + fmt(res.edp) + " != reported " +
               fmt(edp);
    return {};
}

// ---------------------------------------------------------------------------
// resnet50-random

struct NetworkSetup
{
    ArchSpec arch = makeEyeriss();
    std::vector<Layer> layers = resnet50Layers();
    std::vector<std::size_t> distinct; ///< first layer of each shape
    std::vector<std::unique_ptr<LayerSetup>> setups;
};

/** The network with its layers in a seeded order (searchNetwork's
 *  results do not depend on the order; its memo keeps the first of
 *  each shape). */
std::unique_ptr<NetworkSetup>
buildNetwork(std::uint64_t seed)
{
    auto net = std::make_unique<NetworkSetup>();
    Rng rng(seed);
    for (std::size_t i = net->layers.size(); i > 1; --i)
        std::swap(net->layers[i - 1], net->layers[rng.below(i)]);
    std::map<std::array<std::uint64_t, 11>, std::size_t> seen;
    for (std::size_t i = 0; i < net->layers.size(); ++i)
        if (seen.emplace(shapeKey(net->layers[i].shape), i).second)
            net->distinct.push_back(i);
    for (const std::size_t i : net->distinct)
        net->setups.push_back(std::make_unique<LayerSetup>(
            net->arch, net->layers[i].shape, ConstraintPreset::EyerissRS));
    return net;
}

} // namespace

RunReport
runResnet50(const RunConfig &config)
{
    RunReport report;
    SearchOptions opts;
    opts.strategy = SearchStrategy::Random;
    opts.maxEvaluations = 20'000;
    opts.terminationStreak = 0;
    // The network EDP moves by about a fifth from one search seed to
    // another, more than any bound allows, so the search seed is fixed
    // and the workload seed orders the layers.
    opts.seed = 42;
    opts.threads = 1;
    report.note("resnet50 on eyeriss, preset eyeriss-rs, ruby-s, strategy "
                "random, 20000 evaluations cap, streak 0, search seed " +
                std::to_string(opts.seed) + ", 1 thread");

    EndToEnd e2e;
    const auto sampleSetups = [&](std::size_t samples) {
        std::unique_ptr<NetworkSetup> probe;
        timeSetups(
            e2e.setupSeconds, samples, 32,
            [&] { probe = buildNetwork(config.seed); },
            [&] { probe.reset(); }, true);
    };
    sampleSetups(kSetupSamples);
    const std::unique_ptr<NetworkSetup> built = buildNetwork(config.seed);
    const NetworkSetup &net = *built;
    int layers = 0;
    for (const Layer &layer : net.layers)
        layers += layer.count;
    report.note("network: " + std::to_string(net.layers.size()) +
                " layer entries (" + std::to_string(layers) +
                " layers counting repeats), " +
                std::to_string(net.distinct.size()) + " distinct shapes");

    // Traced and untraced repetitions run the same searchNetwork call;
    // a traced one only adds the span around it, so traced minus
    // untraced is the tracer's cost.
    Tracer tracer(config.trace);
    NetworkOutcome last;
    bool haveLast = false;
    std::vector<double> untraced, traced;
    const CpuJiffies hostBefore = readCpuJiffies();
    const double cpuBefore = processCpuSeconds();
    double tracedCpu = 0.0;
    const std::vector<double> reps = timeRepetitions(
        config.seconds, config.trace ? 4 : 3, [&](std::size_t rep) {
            PinToCpu pin(static_cast<unsigned>(rep));
            const bool tracedRep = config.trace && rep % 2 == 1;
            const double cpu0 = processCpuSeconds();
            Tracer off(false);
            Scope span(tracedRep ? tracer : off, "searchNetwork", kNoParent,
                       rep);
            NetworkOutcome out = searchNetwork(
                net.layers, net.arch, ConstraintPreset::EyerissRS,
                MapspaceVariant::RubyS, opts);
            if (tracedRep)
                tracedCpu += processCpuSeconds() - cpu0;
            for (const LayerOutcome &layer : out.layers)
                report.tally.record(layer.found && layer.statsNote.empty());
            if (haveLast && out.edp != last.edp)
                report.problem("network EDP differs between repetitions: " +
                               fmt(out.edp) + " vs " + fmt(last.edp));
            last = std::move(out);
            haveLast = true;
        },
        [&] { sampleSetups(kSetupSamplesPerRep); });
    const double cpuSeconds = processCpuSeconds() - cpuBefore;
    const double steal = stealFraction(hostBefore, readCpuJiffies());
    e2e.peakRssMb = peakRssMb();
    for (std::size_t i = 0; i < reps.size(); ++i)
        (config.trace && i % 2 == 1 ? traced : untraced).push_back(reps[i]);

    // Correctness: every distinct layer's answer is recomputed by a
    // direct randomSearch on the set-up inputs (same mapping and EDP
    // as searchNetwork returned), then re-evaluated by a fresh
    // Evaluator. The traced run does this one layer at a time, and its
    // spans give the per-layer search times.
    std::vector<std::string> layerProblems(net.distinct.size());
    parallelFor(net.distinct.size(), config.trace ? 1 : hostThreads(),
                [&](std::size_t k) {
        const LayerOutcome &outcome = last.layers[net.distinct[k]];
        const std::string &name = outcome.name;
        if (!outcome.found) {
            layerProblems[k] = name + ": no mapping found";
            return;
        }
        std::optional<SearchResult> res;
        {
            Scope span(tracer, "randomSearch", kNoParent, k);
            res = randomSearch(net.setups[k]->space,
                               net.setups[k]->evaluator, opts);
        }
        if (!res->best || res->best->toString() != outcome.bestMapping ||
            res->bestResult.edp != outcome.result.edp) {
            layerProblems[k] = name + ": direct search disagrees with "
                                      "searchNetwork";
            return;
        }
        const std::string bad =
            reEvaluate(net.setups[k]->problem, net.arch, *res->best,
                       outcome.result.edp);
        if (!bad.empty())
            layerProblems[k] = name + ": " + bad;
    });
    for (const std::string &p : layerProblems)
        if (!p.empty())
            report.problem(p);
    if (!last.allFound)
        report.problem("network has " + std::to_string(last.failedLayers) +
                       " failed layers");

    e2e.answerSeconds = untraced;
    e2e.edp = last.edp;
    if (!config.trace) {
        reportEndToEnd(report, e2e);
        return report;
    }

    LayerMetrics m;
    std::uint64_t evaluated = 0;
    for (const std::size_t i : net.distinct)
        evaluated += last.layers[i].evaluated;
    setModelCounters(m, last.stats, evaluated);
    const std::vector<double> layerSeconds =
        durationsSeconds(tracer.spans(), "randomSearch");
    m.set("search.layer_s_p50", percentile(layerSeconds, 0.5).value);
    m.set("search.layer_s_max", percentile(layerSeconds, 1.0).value);
    m.set("search.memo_layers", last.memoizedLayers);
    m.set("search.cpu_util", cpuUtil(tracedCpu, traced, opts.threads));

    // Mapspace construction on its own, and the sampler replayed
    // outside the search for as many draws as the search made.
    double buildMs = 0.0;
    ReplayTotals replay;
    for (std::size_t k = 0; k < net.distinct.size(); ++k) {
        const std::uint64_t t0 = nowNs();
        const Mapspace space(net.setups[k]->constraints,
                             MapspaceVariant::RubyS);
        buildMs += static_cast<double>(nowNs() - t0) * 1e-6;
        Scope span(tracer, "replay", kNoParent, k);
        replayLayer(space, net.setups[k]->evaluator,
                    last.layers[net.distinct[k]].evaluated, config.seed + k,
                    tracer, span.id(), replay);
    }
    m.set("mapspace.build_ms", buildMs);
    m.set("mapspace.draws", replay.draws);
    setReplayMetrics(m, replay);
    // The search draws, checks and evaluates as the replay does.
    m.set("mapspace.sample_share",
          ratio(replay.sampleNs,
                replay.sampleNs + replay.validityNs + replay.fullNs));
    setRunMetrics(m, cpuSeconds, steal, untraced, traced);
    m.emit(report);
    finishTrace(report, tracer, config.tracePath);
    return report;
}

// ---------------------------------------------------------------------------
// certify-optimal

namespace
{

// Certified when the benchmark was defined; the self-test re-derives
// both from the exhaustive oracle.
constexpr double kCertifiedEdpEyeriss = 361550290087.47784;
constexpr double kCertifiedEdpSimba = 697694706049.23132;

ConvShape
conv3x3(const char *name, std::uint64_t c, std::uint64_t m, std::uint64_t p)
{
    ConvShape s;
    s.name = name;
    s.c = c;
    s.m = m;
    s.p = p;
    s.q = p;
    s.r = 3;
    s.s = 3;
    return s;
}

} // namespace

std::vector<CertifyCase>
certifyCases()
{
    return {{"eyeriss", makeEyeriss(), conv3x3("conv_e", 24, 20, 13),
             ConstraintPreset::EyerissRS, kCertifiedEdpEyeriss},
            {"simba", makeSimba(), conv3x3("conv_s", 48, 24, 13),
             ConstraintPreset::Simba, kCertifiedEdpSimba}};
}

RunReport
runCertifyOptimal(const RunConfig &config)
{
    RunReport report;
    // The two optimal_gap shapes; the seed picks which is certified
    // first (their EDPs are pinned, so the shapes themselves are fixed).
    std::vector<std::unique_ptr<CertifyCase>> cases;
    std::vector<std::unique_ptr<LayerSetup>> setups;
    OptimalOptions opts;
    opts.threads = std::min(4u, hostThreads());
    opts.maxEvaluations = 50'000'000;
    const auto build = [&] {
        for (CertifyCase &c : certifyCases())
            cases.push_back(std::make_unique<CertifyCase>(std::move(c)));
        if (config.seed % 2 == 1)
            std::swap(cases[0], cases[1]);
        for (const auto &c : cases)
            setups.push_back(
                std::make_unique<LayerSetup>(c->arch, c->shape, c->preset));
    };
    EndToEnd e2e;
    // Set-up samples run on the side: the pair the searches use is
    // built once more afterwards.
    std::vector<std::unique_ptr<CertifyCase>> usedCases;
    std::vector<std::unique_ptr<LayerSetup>> usedSetups;
    const auto sampleSetups = [&](std::size_t samples) {
        usedCases.swap(cases);
        usedSetups.swap(setups);
        timeSetups(
            e2e.setupSeconds, samples, 400, build,
            [&] {
                setups.clear();
                cases.clear();
            },
            true);
        usedCases.swap(cases);
        usedSetups.swap(setups);
    };
    build();
    sampleSetups(kSetupSamples);
    report.note("optimalSearch to a certificate, threads " +
                std::to_string(opts.threads) + ", order: " +
                cases[0]->label + " then " + cases[1]->label);

    Tracer tracer(config.trace);
    std::vector<double> untraced, traced;
    std::map<std::string, std::vector<double>> caseSeconds;
    std::vector<OptimalResult> results(cases.size());
    const CpuJiffies hostBefore = readCpuJiffies();
    const double cpuBefore = processCpuSeconds();
    double tracedCpu = 0.0;
    const std::vector<double> reps = timeRepetitions(
        config.seconds, config.trace ? 4 : 3, [&](std::size_t rep) {
            const bool tracedRep = config.trace && rep % 2 == 1;
            const double cpu0 = processCpuSeconds();
            Tracer off(false);
            Tracer &t = tracedRep ? tracer : off;
            Scope pair(t, "certify", kNoParent, rep);
            for (std::size_t k = 0; k < cases.size(); ++k) {
                Scope span(t, "optimalSearch", pair.id(), rep);
                const std::uint64_t t0 = nowNs();
                OptimalResult res = optimalSearch(setups[k]->space,
                                                  setups[k]->evaluator, opts);
                caseSeconds[cases[k]->label].push_back(
                    static_cast<double>(nowNs() - t0) * 1e-9);
                const bool ok = res.certified && res.best &&
                                res.bestResult.edp == cases[k]->certifiedEdp;
                report.tally.record(ok);
                if (!ok)
                    report.problem(cases[k]->label +
                                   ": certified " +
                                   (res.certified ? "yes" : "no") + ", EDP " +
                                   fmt(res.bestResult.edp) + ", expected " +
                                   fmt(cases[k]->certifiedEdp));
                results[k] = std::move(res);
            }
            if (tracedRep)
                tracedCpu += processCpuSeconds() - cpu0;
        },
        [&] { sampleSetups(kSetupSamplesPerRep); });
    const double cpuSeconds = processCpuSeconds() - cpuBefore;
    const double steal = stealFraction(hostBefore, readCpuJiffies());
    e2e.peakRssMb = peakRssMb();
    for (std::size_t i = 0; i < reps.size(); ++i)
        (config.trace && i % 2 == 1 ? traced : untraced).push_back(reps[i]);

    for (std::size_t k = 0; k < cases.size(); ++k) {
        if (!results[k].best)
            continue;
        const std::string bad =
            reEvaluate(setups[k]->problem, cases[k]->arch, *results[k].best,
                       results[k].bestResult.edp);
        if (!bad.empty())
            report.problem(cases[k]->label + ": " + bad);
        e2e.edp += results[k].bestResult.edp;
    }
    e2e.answerSeconds = untraced;
    if (!config.trace) {
        reportEndToEnd(report, e2e);
        return report;
    }

    LayerMetrics m;
    EvalStats stats;
    std::uint64_t leaves = 0;
    for (const OptimalResult &r : results) {
        stats += r.stats;
        leaves += r.evaluated;
    }
    setModelCounters(m, stats, leaves);
    m.set("search.optimal.leaves", leaves);
    m.set("search.optimal.eyeriss_s", median(caseSeconds["eyeriss"]));
    m.set("search.optimal.simba_s", median(caseSeconds["simba"]));
    const std::vector<double> layerSeconds =
        durationsSeconds(tracer.spans(), "optimalSearch");
    m.set("search.layer_s_p50", percentile(layerSeconds, 0.5).value);
    m.set("search.layer_s_max", percentile(layerSeconds, 1.0).value);
    m.set("search.cpu_util", cpuUtil(tracedCpu, traced, opts.threads));

    // The ROADMAP's truncated-gap gate: the worse of the two gaps at an
    // evaluation cap of 20,000.
    double gap = 0.0;
    ReplayTotals replay;
    std::vector<double> buildMs;
    for (std::size_t k = 0; k < cases.size(); ++k) {
        OptimalOptions capped = opts;
        capped.maxEvaluations = 20'000;
        {
            Scope span(tracer, "optimalSearch.cap20k", kNoParent, k);
            gap = std::max(gap, optimalSearch(setups[k]->space,
                                              setups[k]->evaluator, capped)
                                    .gapPercent);
        }
        const std::uint64_t t0 = nowNs();
        const Mapspace probe(setups[k]->constraints, MapspaceVariant::RubyS);
        buildMs.push_back((nowNs() - t0) * 1e-6);
        Scope span(tracer, "replay", kNoParent, k);
        replayLayer(setups[k]->space, setups[k]->evaluator, 20'000,
                    config.seed + k, tracer, span.id(), replay);
    }
    m.set("search.optimal.gap_pct_at_20k", gap);
    m.set("mapspace.build_ms", buildMs[0] + buildMs[1]);
    setReplayMetrics(m, replay);
    setRunMetrics(m, cpuSeconds, steal, untraced, traced);
    m.emit(report);
    finishTrace(report, tracer, config.tracePath);
    return report;
}

} // namespace perfbench
