#include "trace_gen.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <tuple>

#include "ruby/common/rng.hpp"
#include "ruby/serve/json.hpp"
#include "ruby/serve/router.hpp"

namespace perfbench
{

using ruby::serve::Request;

namespace
{

constexpr std::uint64_t kColdPoolSeed = 2022;
constexpr std::uint64_t kSearchSeed = 1;

/** A single-layer random-search `net` request for a 3x3 conv. */
Request
coldRequest(std::uint64_t c, std::uint64_t m, std::uint64_t p, bool simba,
            const TraceShape &shape)
{
    Request req;
    req.type = ruby::serve::RequestType::Net;
    req.arch = simba ? "simba" : "eyeriss";
    req.preset = simba ? ruby::ConstraintPreset::Simba
                       : ruby::ConstraintPreset::EyerissRS;
    req.variant = ruby::MapspaceVariant::RubyS;
    ruby::Layer layer;
    layer.shape.c = c;
    layer.shape.m = m;
    layer.shape.p = p;
    layer.shape.q = p;
    layer.shape.r = 3;
    layer.shape.s = 3;
    req.layers = {layer};
    req.search.strategy = ruby::SearchStrategy::Random;
    req.search.maxEvaluations = shape.evaluations;
    req.search.terminationStreak = 0;
    req.search.seed = kSearchSeed;
    req.search.threads = 1;
    return req;
}

} // namespace

std::string
socketPath(unsigned i)
{
    return i == kBackends ? "perfbench-router.sock"
                          : "perfbench-backend-" + std::to_string(i) +
                                ".sock";
}

std::size_t
homeBackend(const Request &request)
{
    static const ruby::serve::ConsistentRing ring = [] {
        std::vector<std::string> names;
        for (unsigned i = 0; i < kBackends; ++i)
            names.push_back("unix:" + socketPath(i));
        return ruby::serve::ConsistentRing(
            std::move(names), ruby::serve::RouterOptions{}.replicas);
    }();
    return ring.walk(ruby::serve::Router::routingKey(request)).front();
}

const char *
className(RequestClass cls)
{
    switch (cls) {
      case RequestClass::Hot:
        return "hot";
      case RequestClass::Memo:
        return "memo";
      case RequestClass::Cold:
        return "cold";
    }
    return "?";
}

double
TraceShape::share(RequestClass cls) const
{
    const std::size_t n = cls == RequestClass::Hot    ? hot
                          : cls == RequestClass::Memo ? memo
                                                      : cold;
    return static_cast<double>(n) / static_cast<double>(perClient());
}

std::size_t
ServeTrace::count(RequestClass cls) const
{
    return static_cast<std::size_t>(
        std::count_if(requests.begin(), requests.end(),
                      [cls](const TraceRequest &r) {
                          return r.cls == cls;
                      }));
}

ServeTrace
makeServeTrace(std::uint64_t seed, const TraceShape &shape)
{
    if (shape.clients != kBackends)
        throw std::invalid_argument("serve trace: one client per backend");
    ServeTrace trace;
    trace.shape = shape;
    ruby::Rng rng(seed ^ 0x5e12e7ace5eedull);

    // Each client's class sequence: a cold request first (nothing to
    // repeat yet), the rest shuffled.
    std::vector<std::vector<RequestClass>> order(shape.clients);
    for (auto &seq : order) {
        seq.assign(shape.hot, RequestClass::Hot);
        seq.insert(seq.end(), shape.memo, RequestClass::Memo);
        seq.insert(seq.end(), shape.cold - 1, RequestClass::Cold);
        for (std::size_t i = seq.size(); i > 1; --i)
            std::swap(seq[i - 1], seq[rng.below(i)]);
        seq.insert(seq.begin(), RequestClass::Cold);
    }

    // The cold shapes are one fixed pool of unique shapes from a narrow
    // size band: client c gets the first ones the ring homes on backend
    // c, in a seeded order. With a fixed search seed too, every seed
    // does the same search work and sums the same EDPs (random search
    // quality at 2,000 evaluations swings the summed EDP by ~20 %
    // between pools); the seed moves order, classes, sources and names.
    std::vector<std::vector<Request>> pool(shape.clients);
    {
        ruby::Rng poolRng(kColdPoolSeed);
        std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                            bool>>
            used;
        std::size_t full = 0;
        while (full < shape.clients) {
            const std::uint64_t c = poolRng.between(24, 40);
            const std::uint64_t m = poolRng.between(24, 40);
            const std::uint64_t p = poolRng.between(10, 14);
            const bool simba = poolRng.below(2) == 1;
            if (!used.emplace(c, m, p, simba).second)
                continue;
            const Request req = coldRequest(c, m, p, simba, shape);
            auto &mine = pool[homeBackend(req)];
            if (mine.size() == shape.cold)
                continue;
            mine.push_back(req);
            full += mine.size() == shape.cold;
        }
        for (auto &mine : pool)
            for (std::size_t i = mine.size(); i > 1; --i)
                std::swap(mine[i - 1], mine[rng.below(i)]);
    }
    std::vector<std::vector<std::size_t>> colds(shape.clients);
    std::vector<std::vector<std::size_t>> answered(shape.clients);
    std::size_t names = 0;
    const std::size_t total = shape.total();
    trace.requests.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        const unsigned client =
            static_cast<unsigned>(i % shape.clients);
        TraceRequest tr;
        tr.client = client;
        tr.cls = order[client][i / shape.clients];
        tr.source = i;
        Request &req = tr.request;
        switch (tr.cls) {
          case RequestClass::Cold: {
            req = pool[client][colds[client].size()];
            colds[client].push_back(i);
            break;
          }
          case RequestClass::Memo: {
            const auto &earlier = colds[client];
            tr.source = earlier[rng.below(earlier.size())];
            req = trace.requests[tr.source].request;
            break;
          }
          case RequestClass::Hot: {
            const auto &earlier = answered[client];
            tr.source = earlier[rng.below(earlier.size())];
            req = trace.requests[tr.source].request;
            break;
          }
        }
        if (tr.cls != RequestClass::Hot) {
            req.layers[0].shape.name = "L" + std::to_string(names++);
            answered[client].push_back(i);
        }
        req.id = "q" + std::to_string(i);
        trace.requests.push_back(std::move(tr));
    }
    return trace;
}

std::string
traceBytes(const ServeTrace &trace)
{
    std::string out;
    for (const TraceRequest &tr : trace.requests) {
        out += ruby::serve::writeJson(
            ruby::serve::encodeRequest(tr.request));
        out += '\n';
    }
    return out;
}

} // namespace perfbench
