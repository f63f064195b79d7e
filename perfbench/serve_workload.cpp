/**
 * @file
 * serve-fleet: an in-process Router in front of three single-slot
 * daemons, all on unix sockets in the working directory, driven by
 * three closed-loop clients replaying the seeded hot/memo/cold trace
 * (trace_gen.hpp). Every repetition starts a fresh fleet, so each
 * replay sees the same cold caches.
 */

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>

#include "layers.hpp"
#include "ruby/common/rng.hpp"
#include "ruby/serve/client.hpp"
#include "ruby/serve/json.hpp"
#include "ruby/serve/protocol.hpp"
#include "ruby/serve/router.hpp"
#include "ruby/serve/server.hpp"
#include "trace_gen.hpp"
#include "workloads.hpp"

namespace perfbench
{

using namespace ruby;
using namespace ruby::serve;

namespace
{

/** A running fleet; the destructor drains and stops it. */
class Fleet
{
  public:
    /**
     * With @p slot, backend i runs pinned to CPU slot + i and the
     * router to slot + kBackends (see PinToCpu), so that the three
     * search slots never share a CPU with each other or the router.
     * Without, every thread inherits the caller's affinity.
     */
    explicit Fleet(std::optional<unsigned> slot)
    {
        RouterOptions ropts;
        ropts.unixPath = socketPath(kBackends);
        ropts.logLifecycle = false;
        // Affinity first: a memo request must land on the shard that
        // memoized its shape, so only failover may move a key.
        ropts.loadFactor = 8.0;
        for (unsigned i = 0; i < kBackends; ++i) {
            ServeOptions sopts;
            sopts.unixPath = socketPath(i);
            sopts.maxInflight = 1;
            sopts.logLifecycle = false;
            backends_.push_back(std::make_unique<Server>(sopts));
            {
                std::optional<PinToCpu> pinned;
                if (slot)
                    pinned.emplace(*slot + i);
                backends_.back()->start();
            }
            Endpoint endpoint;
            endpoint.unixPath = sopts.unixPath;
            ropts.backends.push_back(endpoint);
        }
        router_ = std::make_unique<Router>(std::move(ropts));
        {
            std::optional<PinToCpu> pinned;
            if (slot)
                pinned.emplace(*slot + kBackends);
            router_->start();
        }
        Client client = Client::connectUnix(socketPath(kBackends));
        if (!client.ping().ok)
            throw std::runtime_error("fleet: routed ping failed");
    }
    ~Fleet()
    {
        router_->requestShutdown();
        router_->waitForShutdown();
        for (auto &backend : backends_) {
            backend->requestShutdown();
            backend->waitForShutdown();
        }
    }
    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    Router &router() { return *router_; }

  private:
    std::vector<std::unique_ptr<Server>> backends_;
    std::unique_ptr<Router> router_;
};

/** Counters summed over repetitions from the fleet's stats. */
struct FleetCounters
{
    double routerHits = 0, routerMisses = 0, coalesced = 0;
    double memoHits = 0, memoMisses = 0;
    double reroutes = 0, rejected = 0;
    std::vector<double> coldPerBackend = std::vector<double>(kBackends);
};

void
addFleetStats(const JsonValue &stats, FleetCounters &c)
{
    const JsonValue &router = stats.at("router");
    const JsonValue &cache = router.at("responseCache");
    c.routerHits += cache.getU64("hits", 0);
    c.routerMisses += cache.getU64("misses", 0);
    c.coalesced += cache.getU64("coalesced", 0);
    c.reroutes += router.getU64("reroutes", 0);
    c.rejected += router.getU64("rejectedSaturated", 0) +
                  router.getU64("rejectedDraining", 0);
    const JsonValue &backends = stats.at("backends");
    for (std::size_t i = 0; i < backends.array.size() && i < kBackends;
         ++i) {
        const JsonValue *s = backends.array[i].find("stats");
        if (s == nullptr)
            continue;
        const JsonValue &memo = s->at("layerMemo");
        c.memoHits += memo.getU64("hits", 0);
        c.memoMisses += memo.getU64("misses", 0);
        c.coldPerBackend[i] += memo.getU64("misses", 0);
        const JsonValue &req = s->at("requests");
        c.rejected += req.getU64("rejectedSaturated", 0) +
                      req.getU64("rejectedDraining", 0);
        c.coalesced += s->at("responseCache").getU64("coalesced", 0);
    }
}

/** One replay's client-side view. */
struct Replay
{
    std::vector<double> latencyMs;  ///< per request, trace order
    std::vector<std::string> raw;   ///< response lines, trace order
    std::vector<char> transportOk;  ///< no exception on the call
};

/** Replay @p trace through the router, each client thread pinned to
 *  CPU @p slot (the router's). */
Replay
replayTrace(const ServeTrace &trace, const std::vector<std::string> &lines,
            unsigned slot, Tracer &tracer, std::int64_t parent)
{
    const std::size_t n = trace.requests.size();
    Replay out;
    out.latencyMs.assign(n, 0.0);
    out.raw.assign(n, {});
    out.transportOk.assign(n, 0);
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < trace.shape.clients; ++c)
        clients.emplace_back([&, c] {
            const PinToCpu pin(slot);
            std::unique_ptr<Client> client;
            for (std::size_t i = c; i < n; i += trace.shape.clients) {
                const TraceRequest &tr = trace.requests[i];
                const std::uint64_t t0 = nowNs();
                try {
                    if (!client)
                        client = std::make_unique<Client>(
                            Client::connectUnix(socketPath(kBackends)));
                    Scope span(tracer,
                               std::string("Client::call.") +
                                   className(tr.cls),
                               parent, i);
                    out.raw[i] = client->callRaw(lines[i]);
                    out.transportOk[i] = 1;
                } catch (const std::exception &) {
                    client.reset(); // reconnect on the next request
                }
                out.latencyMs[i] =
                    static_cast<double>(nowNs() - t0) * 1e-6;
            }
        });
    for (std::thread &t : clients)
        t.join();
    return out;
}

/** The response's network EDP, or a negative value when it failed. */
double
responseEdp(const std::string &raw)
{
    try {
        const JsonValue v = parseJson(raw);
        if (v.getU64("code", kCodeInternal) != kCodeOk)
            return -1.0;
        return v.at("net").at("edp").asDouble();
    } catch (const std::exception &) {
        return -1.0;
    }
}

/** What the same request answers offline, as a wire line. */
std::string
offlineResponse(const Request &req)
{
    const NetworkOutcome net = searchNetwork(
        req.layers, archByName(req.arch), req.preset, req.variant,
        req.search, req.pad);
    JsonValue out = makeResponse("result", req.id,
                                 net.allFound ? kCodeOk : kCodePartial);
    out.set("net", networkOutcomeToJson(net));
    return writeJson(out);
}

/**
 * @p line re-encoded with every `cacheEvictions` counter zeroed. A
 * daemon reports the eviction delta of the eval cache it shares across
 * requests (SearchOptions::sharedEvalCache), which depends on what it
 * served before; every other byte must match the offline answer.
 */
std::string
evictionFree(const std::string &line)
{
    JsonValue v = parseJson(line);
    const std::function<void(JsonValue &)> scrub = [&](JsonValue &node) {
        for (auto &[key, child] : node.object) {
            if (key == "cacheEvictions")
                child = JsonValue::makeU64(0);
            else
                scrub(child);
        }
        for (JsonValue &child : node.array)
            scrub(child);
    };
    scrub(v);
    return writeJson(v);
}

} // namespace

RunReport
runServeFleet(const RunConfig &config)
{
    RunReport report;
    const TraceShape shape;
    const ServeTrace trace = makeServeTrace(config.seed, shape);
    std::vector<std::string> lines;
    for (const TraceRequest &tr : trace.requests)
        lines.push_back(writeJson(encodeRequest(tr.request)));
    {
        std::ostringstream line;
        line << "trace: " << trace.requests.size() << " single-layer net "
             << "requests (random, ruby-s, " << shape.evaluations
             << " evaluations, 1 thread, eyeriss and simba), "
             << shape.clients << " closed-loop clients, " << kBackends
             << " single-slot daemons behind a router; class shares hot "
             << shape.share(RequestClass::Hot) << " memo "
             << shape.share(RequestClass::Memo) << " cold "
             << shape.share(RequestClass::Cold) << " (counts "
             << trace.count(RequestClass::Hot) << "/"
             << trace.count(RequestClass::Memo) << "/"
             << trace.count(RequestClass::Cold) << ")";
        report.note(line.str());
    }

    EndToEnd e2e;
    // Set-up: daemons and router up until a routed ping is answered.
    // A sample's fleet runs wholly on the sample's CPU; it only starts.
    const auto sampleSetups = [&](std::size_t samples) {
        std::unique_ptr<Fleet> probe;
        timeSetups(
            e2e.setupSeconds, samples, 4,
            [&] { probe = std::make_unique<Fleet>(std::nullopt); },
            [&] { probe.reset(); }, true);
    };
    sampleSetups(kSetupSamples);

    // Every repetition starts a fresh fleet (cold caches), its pins
    // rotated by one CPU.
    Tracer tracer(config.trace);
    std::unique_ptr<Fleet> fleet;
    std::vector<double> untraced, traced, latencyMs;
    std::vector<std::vector<double>> classLatency(kRequestClasses);
    std::vector<double> firstEdp;
    Replay kept;
    FleetCounters counters;
    const CpuJiffies hostBefore = readCpuJiffies();
    const double cpuBefore = processCpuSeconds();
    const std::uint64_t start = nowNs();
    for (unsigned rep = 0;
         rep < (config.trace ? 4u : 3u) ||
         static_cast<double>(nowNs() - start) * 1e-9 < config.seconds;
         ++rep) {
        const bool tracedRep = config.trace && rep % 2 == 1;
        fleet.reset();
        sampleSetups(kSetupSamplesPerRep);
        fleet = std::make_unique<Fleet>(rep);

        Tracer off(false);
        Tracer &t = tracedRep ? tracer : off;
        const std::uint64_t t0 = nowNs();
        Replay replay;
        {
            Scope span(t, "replay", kNoParent, rep);
            replay = replayTrace(trace, lines, rep + kBackends, t, span.id());
        }
        const double seconds = static_cast<double>(nowNs() - t0) * 1e-9;
        (tracedRep ? traced : untraced).push_back(seconds);
        addFleetStats(fleet->router().fleetStatsJson(), counters);

        // Check every answer: transport and code ok, and a hot or memo
        // answer carries its source's EDP.
        std::vector<double> edp(trace.requests.size());
        for (std::size_t i = 0; i < trace.requests.size(); ++i)
            edp[i] = replay.transportOk[i] ? responseEdp(replay.raw[i]) : -1.0;
        for (std::size_t i = 0; i < trace.requests.size(); ++i) {
            const TraceRequest &tr = trace.requests[i];
            bool ok = edp[i] > 0.0;
            if (ok && tr.cls != RequestClass::Cold)
                ok = edp[i] == edp[tr.source];
            if (ok && !firstEdp.empty())
                ok = edp[i] == firstEdp[i];
            report.tally.record(ok);
            classLatency[static_cast<std::size_t>(tr.cls)].push_back(
                replay.latencyMs[i]);
            if (!tracedRep)
                latencyMs.push_back(replay.latencyMs[i]);
        }
        if (firstEdp.empty()) {
            firstEdp = edp;
            kept = std::move(replay);
        }
        // Peak RSS over a fixed amount of work (every run makes at
        // least three replays): each further fleet fragments the heap
        // a little more, so a figure taken at the end of the run would
        // grow with the number of replays the host's speed allowed.
        if (rep == 2)
            e2e.peakRssMb = peakRssMb();
    }
    const double cpuSeconds = processCpuSeconds() - cpuBefore;
    const double steal = stealFraction(hostBefore, readCpuJiffies());
    e2e.answerSeconds = untraced;
    for (std::size_t i = 0; i < trace.requests.size(); ++i)
        if (trace.requests[i].cls == RequestClass::Cold && firstEdp[i] > 0.0)
            e2e.edp += firstEdp[i];

    // Client-side latency over every untraced request, and the rate.
    {
        std::ostringstream line;
        line << "client latency over " << latencyMs.size()
             << " untraced requests: "
             << describe(percentile(latencyMs, 0.5), "ms") << "; "
             << describe(percentile(latencyMs, 0.99), "ms")
             << "; qps " << fmt(ratio(trace.requests.size(), median(untraced)))
             << " (requests per median replay)";
        report.note(line.str());
    }

    // A seeded sample of cold answers must be byte-identical to what
    // the same request answers offline (computed after timing), apart
    // from the shared eval cache's eviction delta (see evictionFree).
    {
        std::vector<std::size_t> cold;
        for (std::size_t i = 0; i < trace.requests.size(); ++i)
            if (trace.requests[i].cls == RequestClass::Cold)
                cold.push_back(i);
        Rng rng(config.seed + 17);
        constexpr std::size_t kSampled = 6;
        std::size_t evictionOnly = 0;
        for (std::size_t k = 0; k < kSampled; ++k) {
            const std::size_t i = cold[rng.below(cold.size())];
            const std::string offline =
                offlineResponse(trace.requests[i].request);
            if (offline == kept.raw[i])
                continue;
            if (evictionFree(offline) == evictionFree(kept.raw[i]))
                ++evictionOnly;
            else
                report.problem("cold response " +
                               trace.requests[i].request.id +
                               " differs from the offline answer");
        }
        report.note("byte-identity: " + std::to_string(kSampled) +
                    " sampled cold responses compared with offline "
                    "searchNetwork; " + std::to_string(evictionOnly) +
                    " differ only in stats.cacheEvictions (the daemon's "
                    "warm shared eval cache)");
    }

    if (!config.trace) {
        fleet.reset();
        reportEndToEnd(report, e2e);
        return report;
    }

    LayerMetrics m;
    const auto &hot = classLatency[0], &memo = classLatency[1],
               &cold = classLatency[2];
    m.set("serve.hot_p50_ms", percentile(hot, 0.5).value);
    m.set("serve.memo_p50_ms", percentile(memo, 0.5).value);
    m.set("serve.cold_p50_ms", percentile(cold, 0.5).value);
    // An unbacked p99 is not reported: it reads 0.
    const Percentile coldTail = percentile(cold, 0.99);
    m.set("serve.cold_p99_ms", coldTail.backed() ? coldTail.value : 0.0);
    report.note("serve.cold_p99_ms: " + describe(coldTail, "ms") +
                " over cold requests of every repetition");
    m.set("serve.router_cache_hit_ratio",
          ratio(counters.routerHits, counters.routerHits + counters.routerMisses));
    m.set("serve.layer_memo_hit_ratio",
          ratio(counters.memoHits, counters.memoHits + counters.memoMisses));
    const auto &per = counters.coldPerBackend;
    const double mean = std::accumulate(per.begin(), per.end(), 0.0) /
                        static_cast<double>(per.size());
    m.set("serve.shard_imbalance",
          ratio(*std::max_element(per.begin(), per.end()), mean));
    m.set("serve.coalesced", counters.coalesced);
    m.set("serve.reroutes", counters.reroutes);
    m.set("serve.rejected", counters.rejected);
    std::vector<double> startupMs;
    for (const double s : e2e.setupSeconds)
        startupMs.push_back(s * 1e3);
    m.set("serve.startup_ms", median(startupMs));
    m.set("mapspace.draws",
          static_cast<double>(trace.count(RequestClass::Cold) *
                              shape.evaluations));
    m.set("search.memo_layers", counters.memoHits);
    {
        EvalStats stats;
        std::uint64_t evaluated = 0;
        for (std::size_t i = 0; i < trace.requests.size(); ++i) {
            if (trace.requests[i].cls != RequestClass::Cold)
                continue;
            const NetworkOutcome net =
                networkOutcomeFromJson(parseJson(kept.raw[i]).at("net"));
            stats += net.stats;
            for (const LayerOutcome &layer : net.layers)
                evaluated += layer.evaluated;
        }
        setModelCounters(m, stats, evaluated);
    }

    // parseJson / writeJson over the trace's own frames.
    {
        std::vector<std::string> frames = lines;
        frames.insert(frames.end(), kept.raw.begin(), kept.raw.end());
        std::vector<JsonValue> parsed;
        parsed.reserve(frames.size());
        std::uint64_t parseNs = 0, writeNs = 0;
        {
            Scope span(tracer, "parseJson");
            const std::uint64_t t0 = nowNs();
            for (const std::string &f : frames)
                parsed.push_back(parseJson(f));
            parseNs = nowNs() - t0;
        }
        std::size_t bytes = 0;
        {
            Scope span(tracer, "writeJson");
            const std::uint64_t t0 = nowNs();
            for (const JsonValue &v : parsed)
                bytes += writeJson(v).size();
            writeNs = nowNs() - t0;
        }
        m.set("serve.json_parse_ns", ratio(parseNs, frames.size()));
        m.set("serve.json_write_ns", ratio(writeNs, frames.size()));
        report.note("json: " + std::to_string(frames.size()) + " frames, " +
                    std::to_string(bytes) + " bytes re-encoded");
    }

    // Router hop: one cached request through the router minus the same
    // request straight to its shard (whose response cache holds it).
    {
        std::size_t probe = 0;
        while (trace.requests[probe].cls != RequestClass::Hot)
            ++probe;
        const Request &req = trace.requests[probe].request;
        const std::size_t shard =
            fleet->router().preferredBackend(Router::routingKey(req));
        Client viaRouter = Client::connectUnix(socketPath(kBackends));
        Client direct =
            Client::connectUnix(socketPath(static_cast<unsigned>(shard)));
        std::vector<double> routed, straight;
        for (int k = 0; k < 400; ++k) {
            Client &c = k % 2 == 0 ? viaRouter : direct;
            Scope span(tracer, k % 2 == 0 ? "hop.router" : "hop.direct");
            const std::uint64_t t0 = nowNs();
            c.callRaw(lines[probe]);
            (k % 2 == 0 ? routed : straight)
                .push_back(static_cast<double>(nowNs() - t0) * 1e-6);
        }
        m.set("serve.router_hop_ms", median(routed) - median(straight));
    }
    fleet.reset();

    // Many small mapspaces with a few draws each, as the cold requests
    // use them: every fifth cold shape, 2,000 draws each.
    ReplayTotals replay;
    std::vector<double> buildMs;
    std::size_t colds = 0;
    for (std::size_t i = 0; i < trace.requests.size(); ++i) {
        const TraceRequest &tr = trace.requests[i];
        if (tr.cls != RequestClass::Cold || colds++ % 5 != 0)
            continue;
        const ArchSpec arch = archByName(tr.request.arch);
        const Problem problem = makeConv(tr.request.layers[0].shape);
        const MappingConstraints cons =
            makeConstraints(tr.request.preset, problem, arch);
        const std::uint64_t t0 = nowNs();
        const Mapspace space(cons, MapspaceVariant::RubyS);
        buildMs.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
        const Evaluator evaluator(problem, arch);
        Scope span(tracer, "replay", kNoParent, i);
        replayLayer(space, evaluator, shape.evaluations, config.seed + i,
                    tracer, span.id(), replay);
    }
    double buildTotal = 0.0;
    for (const double b : buildMs)
        buildTotal += b;
    m.set("mapspace.build_ms", buildTotal);  // of the replayed shapes
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

} // namespace perfbench
