/**
 * @file
 * Serving-throughput head-to-head: one daemon vs a routed fleet.
 *
 * Replays the same mixed-traffic trace — a handful of hot shapes
 * repeated many times plus a stream of unique shapes, split across
 * both preset architectures (eyeriss and simba) — against
 *
 *   (a) a single daemon with 3 concurrent search slots, and
 *   (b) a 3-backend fleet (1 slot each) fronted by ruby-map route,
 *
 * i.e. the same total search-thread budget. Sustained QPS is measured
 * client-side over the whole replay; p50/p99 come from the daemons'
 * own wall-time histograms (the fleet side merges them through the
 * router's stats fan-in), and the warmth comparison is the single
 * daemon's layer-memo hit rate vs the fleet's aggregated rate.
 *
 * The sharding story this checks: the router's routing key is the
 * architecture + shape fingerprint, so every repeat of a hot shape
 * lands on the shard that is already warm for it. Splitting the trace
 * across three smaller memos must therefore not cost hit rate.
 * Results go to BENCH_serve_load.json and are gated by
 * tools/check_bench.py --serve-load (the QPS floor is refused on
 * single-core runners, like the thread-scaling floors).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "ruby/serve/client.hpp"
#include "ruby/serve/json.hpp"
#include "ruby/serve/latency_histogram.hpp"
#include "ruby/serve/protocol.hpp"
#include "ruby/serve/router.hpp"
#include "ruby/serve/server.hpp"

namespace
{

using namespace ruby;
using namespace ruby::serve;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

/** Search-slot budget for both contenders: 1x3 slots vs 3x1. */
constexpr unsigned kSlots = 3;

/** Client threads driving the trace (match the slot budget so the
 *  daemons stay saturated without piling up queue waits). */
constexpr unsigned kClients = kSlots;

Layer
convLayer(const std::string &name, std::uint64_t c, std::uint64_t m,
          std::uint64_t p, std::uint64_t q)
{
    Layer layer;
    layer.shape.name = name;
    layer.shape.c = c;
    layer.shape.m = m;
    layer.shape.p = p;
    layer.shape.q = q;
    layer.shape.r = 3;
    layer.shape.s = 3;
    return layer;
}

Request
netRequest(const std::string &id, const std::string &arch,
           ConstraintPreset preset, const Layer &layer, bool full)
{
    Request req;
    req.type = RequestType::Net;
    req.id = id;
    req.arch = arch;
    req.layers = {layer};
    req.variant = MapspaceVariant::RubyS;
    req.preset = preset;
    req.search.maxEvaluations = full ? 1'500 : 300;
    req.search.terminationStreak = 0;
    req.search.seed = 11;
    req.search.threads = 1;
    return req;
}

/** The mixed trace: hot shapes repeated + a unique-shape stream,
 *  alternating between the two preset architectures. */
std::vector<Request>
buildTrace(bool full, std::size_t &repeatedShapes,
           std::size_t &repeatsPerShape, std::size_t &uniqueShapes)
{
    repeatedShapes = 6; // 3 per arch
    repeatsPerShape = full ? 24 : 8;
    uniqueShapes = full ? 60 : 24;

    std::vector<Request> trace;
    std::size_t id = 0;
    const auto push = [&](std::uint64_t c, std::uint64_t m,
                          std::uint64_t p, std::uint64_t q,
                          bool simba) {
        const Layer layer = convLayer("l" + std::to_string(id), c, m,
                                      p, q);
        trace.push_back(netRequest(
            "q" + std::to_string(id++), simba ? "simba" : "eyeriss",
            simba ? ConstraintPreset::Simba
                  : ConstraintPreset::EyerissRS,
            layer, full));
    };

    // Hot set: the same six shapes over and over (cache-hit traffic).
    for (std::size_t rep = 0; rep < repeatsPerShape; ++rep)
        for (std::size_t s = 0; s < repeatedShapes; ++s)
            push(16 + 8 * (s % 3), 32, 14, 14, s >= 3);

    // Cold stream: every shape distinct (cache-miss traffic).
    for (std::size_t u = 0; u < uniqueShapes; ++u)
        push(8 + u, 16 + 2 * u, 7 + (u % 5), 7, (u % 2) == 1);

    // Deterministic shuffle so hot and cold traffic interleave the
    // way production traces do, identically on every run.
    std::mt19937_64 rng(2026);
    std::shuffle(trace.begin(), trace.end(), rng);
    return trace;
}

/**
 * The pure-repeat segment: the hot set again under fresh ids, after
 * the main replay has warmed every tier. Ids differ (the response
 * cache keys on the semantic request, never the id), so this measures
 * the cached-replay fast path end to end.
 */
std::vector<Request>
buildRepeatTrace(bool full)
{
    std::vector<Request> trace;
    std::size_t id = 0;
    const std::size_t repeats = full ? 24 : 8;
    for (std::size_t rep = 0; rep < repeats; ++rep)
        for (std::size_t s = 0; s < 6; ++s) {
            const bool simba = s >= 3;
            const Layer layer =
                convLayer("l" + std::to_string(s), 16 + 8 * (s % 3),
                          32, 14, 14);
            trace.push_back(netRequest(
                "r" + std::to_string(id++),
                simba ? "simba" : "eyeriss",
                simba ? ConstraintPreset::Simba
                      : ConstraintPreset::EyerissRS,
                layer, full));
        }
    return trace;
}

struct RunResult
{
    double seconds = 0.0;
    double qps = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double memoHitRate = 0.0;
    std::uint64_t memoHits = 0;
    std::uint64_t memoMisses = 0;
    std::uint64_t completed = 0;
    std::uint64_t reroutes = 0;
    bool allOk = true;

    // Response cache (the single daemon's own cache, or the router's
    // for the fleet run) over the whole benchmark.
    std::uint64_t respHits = 0;
    std::uint64_t respMisses = 0;
    std::uint64_t coalesced = 0;

    // The pure-repeat segment: identical requests after warmup, the
    // response-cache fast path end to end.
    double repeatSeconds = 0.0;
    double repeatQps = 0.0;
    double repeatHitRate = 0.0;
};

/** Hits/misses snapshot of a "responseCache" stats block. */
struct CacheSnapshot
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t coalesced = 0;
};

CacheSnapshot
snapshotCache(const JsonValue &cacheBlock)
{
    CacheSnapshot s;
    s.hits = cacheBlock.at("hits").asU64();
    s.misses = cacheBlock.at("misses").asU64();
    s.coalesced = cacheBlock.at("coalesced").asU64();
    return s;
}

/** Fold the final cache snapshot and the repeat-segment delta into
 *  @p out. Coalesced followers count toward served-without-search:
 *  they ride the leader's response even though their probe missed. */
void
finishCacheMetrics(const CacheSnapshot &beforeRepeat,
                   const CacheSnapshot &final, RunResult &out)
{
    out.respHits = final.hits;
    out.respMisses = final.misses;
    out.coalesced = final.coalesced;
    const std::uint64_t repeatHits = final.hits - beforeRepeat.hits;
    const std::uint64_t repeatCoalesced =
        final.coalesced - beforeRepeat.coalesced;
    const std::uint64_t repeatProbes =
        repeatHits + (final.misses - beforeRepeat.misses);
    out.repeatHitRate =
        repeatProbes == 0
            ? 0.0
            : static_cast<double>(repeatHits + repeatCoalesced) /
                  static_cast<double>(repeatProbes);
}

/** Replay the trace with kClients concurrent connections. */
void
replay(const std::vector<Request> &trace, const std::string &host,
       int port, RunResult &out)
{
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> failures{0};
    const auto start = steady_clock::now();
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < kClients; ++t) {
        clients.emplace_back([&] {
            Client client = Client::connectTcp(host, port);
            RetryPolicy retry;
            retry.attempts = 3;
            retry.budget = milliseconds(10'000);
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= trace.size())
                    return;
                const JsonValue response = client.callWithRetry(
                    encodeRequest(trace[i]), retry);
                if (response.at("code").asU64() != 0)
                    failures.fetch_add(1,
                                       std::memory_order_relaxed);
            }
        });
    }
    for (std::thread &c : clients)
        c.join();
    out.seconds =
        std::chrono::duration<double>(steady_clock::now() - start)
            .count();
    out.qps = static_cast<double>(trace.size()) / out.seconds;
    out.completed = trace.size() - failures.load();
    out.allOk = failures.load() == 0;
}

/** Read latency quantiles + layer-memo counters out of a stats object
 *  (the single daemon's statsJson or the router's "fleet" block). */
void
readStats(const JsonValue &stats, RunResult &out)
{
    const LatencyHistogram latency =
        LatencyHistogram::fromJson(stats.at("latency"));
    out.p50Ms = latency.quantileMs(0.50);
    out.p99Ms = latency.quantileMs(0.99);
    // Repeated net requests are answered by the layer memo before
    // any evaluation runs, so for this trace the memo hit rate is
    // the daemon's cross-request cache effectiveness.
    const JsonValue &memo = stats.at("layerMemo");
    out.memoHits = memo.at("hits").asU64();
    out.memoMisses = memo.at("misses").asU64();
    const std::uint64_t seen = out.memoHits + out.memoMisses;
    out.memoHitRate =
        seen == 0 ? 0.0
                  : static_cast<double>(out.memoHits) /
                        static_cast<double>(seen);
}

RunResult
runSingle(const std::vector<Request> &trace,
          const std::vector<Request> &repeatTrace)
{
    ServeOptions opts;
    opts.port = 0;
    opts.maxInflight = kSlots;
    opts.logLifecycle = false;
    Server server(opts);
    server.start();

    RunResult out;
    replay(trace, "127.0.0.1", server.port(), out);

    const CacheSnapshot beforeRepeat =
        snapshotCache(server.statsJson().at("responseCache"));
    RunResult repeat;
    replay(repeatTrace, "127.0.0.1", server.port(), repeat);
    out.repeatSeconds = repeat.seconds;
    out.repeatQps = repeat.qps;
    out.allOk = out.allOk && repeat.allOk;

    const JsonValue stats = server.statsJson();
    readStats(stats, out);
    finishCacheMetrics(beforeRepeat,
                       snapshotCache(stats.at("responseCache")),
                       out);

    server.requestShutdown();
    server.waitForShutdown();
    return out;
}

RunResult
runFleet(const std::vector<Request> &trace,
         const std::vector<Request> &repeatTrace)
{
    RouterOptions ropts;
    ropts.port = 0;
    ropts.logLifecycle = false;
    // Affinity-first: the default bounded-load factor (1.25) spills
    // hot keys to a neighbor shard under burst pressure, trading
    // warmth for tail latency. This benchmark measures the warmth
    // side of that trade, so raise the bound until only failover
    // moves a key off its home shard.
    ropts.loadFactor = 8.0;
    std::vector<std::unique_ptr<Server>> backends;
    for (unsigned i = 0; i < kSlots; ++i) {
        ServeOptions sopts;
        sopts.port = 0;
        sopts.maxInflight = 1;
        sopts.logLifecycle = false;
        auto backend = std::make_unique<Server>(sopts);
        backend->start();
        Endpoint endpoint;
        endpoint.host = "127.0.0.1";
        endpoint.port = backend->port();
        ropts.backends.push_back(endpoint);
        backends.push_back(std::move(backend));
    }
    Router router(std::move(ropts));
    router.start();

    RunResult out;
    replay(trace, "127.0.0.1", router.port(), out);

    // The fleet's repeat traffic is absorbed by the ROUTER's own
    // response cache — the epoch-tagged tier invalidated on backend
    // flaps — so snapshot that block, not the backends' caches.
    const CacheSnapshot beforeRepeat = snapshotCache(
        router.fleetStatsJson().at("router").at("responseCache"));
    RunResult repeat;
    replay(repeatTrace, "127.0.0.1", router.port(), repeat);
    out.repeatSeconds = repeat.seconds;
    out.repeatQps = repeat.qps;
    out.allOk = out.allOk && repeat.allOk;

    const JsonValue stats = router.fleetStatsJson();
    readStats(stats.at("fleet"), out);
    finishCacheMetrics(
        beforeRepeat,
        snapshotCache(stats.at("router").at("responseCache")), out);
    out.reroutes = stats.at("router").at("reroutes").asU64();

    router.requestShutdown();
    router.waitForShutdown();
    for (auto &backend : backends) {
        backend->requestShutdown();
        backend->waitForShutdown();
    }
    return out;
}

void
emitRun(std::ofstream &json, const char *key, const RunResult &run)
{
    json << "  \"" << key << "\": {\n"
         << "    \"qps\": " << run.qps << ",\n"
         << "    \"seconds\": " << run.seconds << ",\n"
         << "    \"p50_ms\": " << run.p50Ms << ",\n"
         << "    \"p99_ms\": " << run.p99Ms << ",\n"
         << "    \"layer_memo_hit_rate\": " << run.memoHitRate
         << ",\n"
         << "    \"layer_memo_hits\": " << run.memoHits << ",\n"
         << "    \"layer_memo_misses\": " << run.memoMisses << ",\n"
         << "    \"completed\": " << run.completed << ",\n"
         << "    \"reroutes\": " << run.reroutes << ",\n"
         << "    \"response_cache_hits\": " << run.respHits << ",\n"
         << "    \"response_cache_misses\": " << run.respMisses
         << ",\n"
         << "    \"coalesced\": " << run.coalesced << ",\n"
         << "    \"repeat_qps\": " << run.repeatQps << ",\n"
         << "    \"repeat_seconds\": " << run.repeatSeconds << ",\n"
         << "    \"repeat_hit_rate\": " << run.repeatHitRate
         << ",\n"
         << "    \"all_ok\": " << (run.allOk ? "true" : "false")
         << "\n  },\n";
}

} // namespace

int
main()
{
    const bool full = ruby::bench::fullRun();
    std::size_t repeatedShapes = 0;
    std::size_t repeatsPerShape = 0;
    std::size_t uniqueShapes = 0;
    const std::vector<Request> trace = buildTrace(
        full, repeatedShapes, repeatsPerShape, uniqueShapes);
    const std::vector<Request> repeatTrace = buildRepeatTrace(full);

    std::cout << "serve_load: replaying " << trace.size()
              << " requests (" << repeatedShapes << " hot shapes x "
              << repeatsPerShape << " + " << uniqueShapes
              << " unique) + " << repeatTrace.size()
              << " pure repeats against 1 daemon (" << kSlots
              << " slots) vs " << kSlots << "-backend fleet...\n";

    const RunResult single = runSingle(trace, repeatTrace);
    std::cout << "  single: " << single.qps << " qps, p50 "
              << single.p50Ms << " ms, p99 " << single.p99Ms
              << " ms, memo hit rate " << single.memoHitRate
              << ", repeats " << single.repeatQps
              << " qps at hit rate " << single.repeatHitRate << "\n";

    const RunResult fleet = runFleet(trace, repeatTrace);
    std::cout << "  fleet:  " << fleet.qps << " qps, p50 "
              << fleet.p50Ms << " ms, p99 " << fleet.p99Ms
              << " ms, memo hit rate " << fleet.memoHitRate << " ("
              << fleet.reroutes << " reroutes), repeats "
              << fleet.repeatQps << " qps at hit rate "
              << fleet.repeatHitRate << "\n";

    const char *path = "BENCH_serve_load.json";
    std::ofstream json(path);
    json << "{\n  \"benchmark\": \"serve_load\",\n"
         << "  \"full_run\": " << (full ? "true" : "false") << ",\n"
         << "  \"hardware_concurrency\": "
         << std::thread::hardware_concurrency() << ",\n"
         << "  \"slots\": " << kSlots << ",\n"
         << "  \"clients\": " << kClients << ",\n"
         << "  \"trace\": {\n"
         << "    \"total_requests\": " << trace.size() << ",\n"
         << "    \"repeated_shapes\": " << repeatedShapes << ",\n"
         << "    \"repeats_per_shape\": " << repeatsPerShape << ",\n"
         << "    \"unique_shapes\": " << uniqueShapes << ",\n"
         << "    \"repeat_requests\": " << repeatTrace.size()
         << ",\n"
         << "    \"archs\": [\"eyeriss\", \"simba\"]\n  },\n";
    emitRun(json, "single", single);
    emitRun(json, "fleet", fleet);
    json << "  \"fleet_qps_ratio\": " << (fleet.qps / single.qps)
         << "\n}\n";

    std::cout << "fleet/single qps ratio "
              << (fleet.qps / single.qps) << "x, memo hit rate "
              << fleet.memoHitRate << " vs " << single.memoHitRate
              << " -> " << path << "\n";
    return (single.allOk && fleet.allOk) ? 0 : 1;
}
