/**
 * @file
 * The harness's own self-test:
 *
 *   perfbench_selftest
 *
 * Covers the percentile / sample-count rule, failure accounting,
 * self-time arithmetic on a synthetic span tree, serve-trace
 * determinism and class shares, and that the certified EDPs pinned in
 * certify-optimal equal the exhaustive oracle's optimum. Exits 0 when
 * every check passes.
 */

#include <cmath>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "ruby/search/exhaustive_search.hpp"
#include "ruby/serve/json.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "trace_gen.hpp"
#include "workloads.hpp"

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::cout << "FAIL: " << what << "\n";
    }
}

using namespace perfbench;

void
testPercentiles()
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    const Percentile p99 = percentile(v, 0.99);
    check(p99.value == 990 && p99.samples == 1000 && p99.beyond == 10 &&
              p99.backed(),
          "p99 of 1..1000 is 990 with 10 beyond");
    check(describe(p99, "ms") == "p99 990 ms (1000 samples, 10 beyond it)",
          "a backed p99 is reported with its sample counts");

    v.pop_back(); // 999 samples: only 9 lie beyond rank 990
    const Percentile thin = percentile(v, 0.99);
    check(thin.beyond == 9 && !thin.backed(), "p99 of 999 is not backed");
    check(describe(thin, "ms") ==
              "p99 not reported (999 samples, only 9 beyond it)",
          "an unbacked p99 is not reported");
    check(describe(percentile({1, 2, 3}, 0.5), "ms") ==
              "p50 2 ms (3 samples, 1 beyond it)",
          "a median needs no samples beyond it");

    const Percentile p50 = percentile({3, 1, 2}, 0.5);
    check(p50.value == 2 && p50.beyond == 1, "p50 of 3 samples");
    check(percentile({}, 0.5).samples == 0, "empty percentile");
    check(median({4, 1, 3, 2}) == 2.5 && median({5, 1, 3}) == 3,
          "median midpoint rule");
}

void
testTally()
{
    Tally a;
    a.record(true);
    a.record(false);
    a.record(true);
    a.record(true);
    check(a.attempted == 4 && a.failed == 1, "tally counts");
    check(a.failedFraction() == 0.25, "failed fraction");
    check(Tally{}.failedFraction() == 0.0, "empty tally fraction is 0");
}

void
testSelfTimes()
{
    // root [0,100] with children A [10,40] and B [30,60] (overlapping,
    // as parallel workers do) and C [90,120] (clipped to the parent);
    // A has a child [15,20].
    std::vector<Span> spans(5);
    const auto at = [&](std::size_t i, const char *name, std::uint64_t lo,
                        std::uint64_t hi, std::int64_t parent) {
        spans[i].name = name;
        spans[i].startNs = lo;
        spans[i].endNs = hi;
        spans[i].parent = parent;
    };
    at(0, "root", 0, 100, kNoParent);
    at(1, "work", 10, 40, 0);
    at(2, "work", 30, 60, 0);
    at(3, "tail", 90, 120, 0);
    at(4, "leaf", 15, 20, 1);
    const std::vector<std::uint64_t> self = selfTimes(spans);
    check(self[0] == 40, "root self = 100 - |[10,60] u [90,100]|");
    check(self[1] == 25 && self[2] == 30 && self[3] == 30 &&
              self[4] == 5,
          "child self times");
    const auto totals = totalsByName(spans);
    check(totals.at("work").count == 2 && totals.at("work").totalNs == 60 &&
              totals.at("work").selfNs == 55,
          "totals by name");

    Tracer off(false);
    check(off.begin("x", kNoParent, 0) == kNoParent && off.spans().empty(),
          "a disabled tracer records nothing");
    Tracer on(true);
    {
        Scope outer(on, "outer");
        Scope inner(on, "inner", outer.id(), 7);
    }
    const std::vector<Span> rec = on.spans();
    check(rec.size() == 2 && rec[1].parent == 0 && rec[1].requestId == 7 &&
              rec[0].endNs >= rec[1].endNs,
          "scopes nest and close");
    std::ostringstream chrome;
    writeChromeTrace(chrome, rec);
    const ruby::serve::JsonValue parsed =
        ruby::serve::parseJson(chrome.str());
    check(parsed.at("traceEvents").array.size() == 2,
          "chrome trace parses back");
}

void
testServeTrace()
{
    const TraceShape shape;
    const ServeTrace a = makeServeTrace(5, shape);
    const ServeTrace b = makeServeTrace(5, shape);
    const ServeTrace c = makeServeTrace(6, shape);
    check(traceBytes(a) == traceBytes(b), "same seed, same bytes");
    check(traceBytes(a) != traceBytes(c), "other seed, other bytes");
    check(a.requests.size() == shape.total(), "trace length");
    for (const RequestClass cls :
         {RequestClass::Hot, RequestClass::Memo, RequestClass::Cold})
        check(std::fabs(static_cast<double>(a.count(cls)) /
                            static_cast<double>(a.requests.size()) -
                        shape.share(cls)) < 1e-12,
              std::string("declared share of ") + className(cls));
    check(shape.share(RequestClass::Hot) > 0.5 &&
              shape.share(RequestClass::Cold) > 0.02,
          "p50 inside hot, p99 inside cold");

    using ruby::serve::encodeRequest;
    using ruby::serve::writeJson;
    std::set<std::tuple<std::string, std::uint64_t, std::uint64_t,
                        std::uint64_t>>
        coldShapes;
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        const TraceRequest &tr = a.requests[i];
        check(tr.client == i % shape.clients, "client assignment");
        check(homeBackend(tr.request) == tr.client,
              "every request is routed to its client's own backend");
        const auto &sh = tr.request.layers.at(0).shape;
        if (tr.cls == RequestClass::Cold) {
            check(tr.source == i, "cold is its own source");
            check(coldShapes.emplace(tr.request.arch, sh.c, sh.m, sh.p).second,
                  "cold shapes are unique");
            continue;
        }
        const TraceRequest &src = a.requests[tr.source];
        check(tr.source < i && src.client == tr.client,
              "repeats refer to an earlier request of the same client");
        ruby::serve::Request same = tr.request;
        same.id = src.request.id;
        if (tr.cls == RequestClass::Hot) {
            check(writeJson(encodeRequest(same)) ==
                      writeJson(encodeRequest(src.request)),
                  "hot is an exact repeat");
        } else {
            check(src.cls == RequestClass::Cold, "memo reuses a cold shape");
            check(sh.name != src.request.layers[0].shape.name,
                  "memo renames the layer");
            same.layers[0].shape.name = src.request.layers[0].shape.name;
            check(writeJson(encodeRequest(same)) ==
                      writeJson(encodeRequest(src.request)),
                  "memo differs only in the layer name");
        }
    }
}

void
testCertifiedEdps()
{
    for (const CertifyCase &c : certifyCases()) {
        const ruby::Problem problem = ruby::makeConv(c.shape);
        const ruby::MappingConstraints cons =
            ruby::makeConstraints(c.preset, problem, c.arch);
        const ruby::Mapspace space(cons, ruby::MapspaceVariant::RubyS);
        const ruby::Evaluator evaluator(problem, c.arch);
        ruby::ExhaustiveOptions opts;
        opts.threads = hostThreads();
        opts.maxEvaluations = 0;
        const ruby::ExhaustiveResult res =
            ruby::exhaustiveSearch(space, evaluator, opts);
        std::cout << "oracle " << c.label << ": EDP " << fmt(res.bestResult.edp)
                  << " (pinned " << fmt(c.certifiedEdp) << ")\n";
        check(res.best.has_value() && res.bestResult.edp == c.certifiedEdp,
              "pinned certified EDP of " + c.label + " equals the oracle");
    }
}

} // namespace

int
main()
{
    testPercentiles();
    testTally();
    testSelfTimes();
    testServeTrace();
    testCertifiedEdps();
    std::cout << (failures == 0 ? "selftest: all checks passed\n"
                                : "selftest: " + std::to_string(failures) +
                                      " checks failed\n");
    return failures == 0 ? 0 : 1;
}
