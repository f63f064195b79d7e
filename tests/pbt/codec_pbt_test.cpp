/**
 * @file
 * Codec properties: the NDJSON writer/parser pair is a fixpoint
 * (write after parse after write is the identity on wire bytes), the
 * protocol request codec round-trips every field exactly, and the
 * domain codecs (EvalStats, ConvShape, SearchOptions) are lossless —
 * the remote path must be indistinguishable from the offline path.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "generators.hpp"
#include "pbt.hpp"
#include "ruby/common/error.hpp"
#include "ruby/serve/json.hpp"
#include "ruby/serve/protocol.hpp"

namespace
{

using namespace ruby;
using serve::JsonValue;

/**
 * Property 7 — NDJSON fixpoint: for any document the generator can
 * produce, one write/parse cycle reaches a fixpoint: the bytes of
 * writeJson(parseJson(bytes)) equal the bytes that went in. (The
 * first write canonicalizes non-finite doubles — inf to +-1e999, nan
 * to null — which is why the property quantifies over written bytes,
 * not over trees.)
 */
std::optional<std::string>
jsonWriteParseFixpoint(const JsonValue &doc)
{
    const std::string once = serve::writeJson(doc);
    JsonValue reparsed;
    try {
        reparsed = serve::parseJson(once);
    } catch (const Error &e) {
        return "writer produced unparseable bytes: " +
               std::string(e.what()) + "\n  bytes: " + once;
    }
    const std::string twice = serve::writeJson(reparsed);
    if (twice != once)
        return "not a fixpoint:\n  once:  " + once +
               "\n  twice: " + twice;
    return std::nullopt;
}

TEST(CodecPbt, JsonWriteParseWriteIsFixpoint)
{
    ruby::pbt::check(
        "jsonFixpoint", 0x15D7u,
        [](Rng &rng) { return pbt::genJson(rng); },
        jsonWriteParseFixpoint, nullptr,
        [](const JsonValue &doc) { return serve::writeJson(doc); },
        300);
}

std::string
describeRequest(const serve::Request &req)
{
    return serve::writeJson(serve::encodeRequest(req));
}

/**
 * Property 8 — protocol request round trip: encode, serialize,
 * reparse, decode; every field the request type carries must come
 * back exactly (ids, YAML payloads with arbitrary bytes, inline
 * layer lists, search options including the chrono budgets).
 */
std::optional<std::string>
requestRoundTrips(const serve::Request &req)
{
    const std::string line =
        serve::writeJson(serve::encodeRequest(req));
    serve::Request back;
    try {
        back = serve::parseRequest(serve::parseJson(line));
    } catch (const Error &e) {
        return "round trip rejected a valid request: " +
               std::string(e.what()) + "\n  line: " + line;
    }

    const auto fail = [&](const std::string &what) {
        return "field '" + what + "' did not round-trip\n  line: " +
               line;
    };
    if (back.type != req.type)
        return fail("type");
    if (back.id != req.id)
        return fail("id");
    if (req.type == serve::RequestType::Map &&
        back.configText != req.configText)
        return fail("configText");
    if (req.type == serve::RequestType::Net) {
        if (back.arch != req.arch)
            return fail("arch");
        if (back.suite != req.suite)
            return fail("suite");
        if (back.layers.size() != req.layers.size())
            return fail("layers.size");
        for (std::size_t i = 0; i < req.layers.size(); ++i) {
            const Layer &a = req.layers[i];
            const Layer &b = back.layers[i];
            const ConvShape &as = a.shape;
            const ConvShape &bs = b.shape;
            if (as.name != bs.name || as.n != bs.n || as.c != bs.c ||
                as.m != bs.m || as.p != bs.p || as.q != bs.q ||
                as.r != bs.r || as.s != bs.s ||
                as.strideH != bs.strideH || as.strideW != bs.strideW ||
                as.dilationH != bs.dilationH ||
                as.dilationW != bs.dilationW)
                return fail("layers[" + std::to_string(i) + "].shape");
            if (a.count != b.count || a.group != b.group)
                return fail("layers[" + std::to_string(i) + "]");
        }
    }
    if (req.type == serve::RequestType::Map ||
        req.type == serve::RequestType::Net) {
        if (back.variant != req.variant)
            return fail("variant");
        if (back.preset != req.preset)
            return fail("preset");
        if (back.pad != req.pad)
            return fail("pad");
        const SearchOptions &a = req.search;
        const SearchOptions &b = back.search;
        if (a.objective != b.objective)
            return fail("search.objective");
        if (a.strategy != b.strategy)
            return fail("search.strategy");
        if (a.terminationStreak != b.terminationStreak)
            return fail("search.terminationStreak");
        if (a.maxEvaluations != b.maxEvaluations)
            return fail("search.maxEvaluations");
        if (a.seed != b.seed)
            return fail("search.seed");
        if (a.threads != b.threads)
            return fail("search.threads");
        if (a.restarts != b.restarts)
            return fail("search.restarts");
        if (a.timeBudget != b.timeBudget)
            return fail("search.timeBudget");
        if (a.networkTimeBudget != b.networkTimeBudget)
            return fail("search.networkTimeBudget");
        if (a.recordTrajectory != b.recordTrajectory)
            return fail("search.recordTrajectory");
        if (a.refineSteps != b.refineSteps)
            return fail("search.refineSteps");
        if (a.islands != b.islands)
            return fail("search.islands");
        if (a.networkThreads != b.networkThreads)
            return fail("search.networkThreads");
        if (a.layerMemo != b.layerMemo)
            return fail("search.layerMemo");
    }
    return std::nullopt;
}

TEST(CodecPbt, ProtocolRequestRoundTrips)
{
    ruby::pbt::check("requestRoundTrip", 0x9E90u, pbt::genRequest,
                     requestRoundTrips, nullptr, describeRequest, 200);
}

/** Bonus: the EvalStats codec is lossless on arbitrary counters. */
std::optional<std::string>
evalStatsRoundTrips(const EvalStats &stats)
{
    const EvalStats back = serve::evalStatsFromJson(
        serve::parseJson(serve::writeJson(
            serve::evalStatsToJson(stats))));
    if (back.invalid != stats.invalid ||
        back.prunedBound != stats.prunedBound ||
        back.modeled != stats.modeled ||
        back.deltaAttempts != stats.deltaAttempts ||
        back.deltaHits != stats.deltaHits ||
        back.deltaFallbacks != stats.deltaFallbacks ||
        back.deltaRebases != stats.deltaRebases ||
        back.batchCalls != stats.batchCalls ||
        back.batchedEvals != stats.batchedEvals ||
        back.batchRejects != stats.batchRejects) {
        std::ostringstream os;
        os << "EvalStats did not round-trip: "
           << serve::writeJson(serve::evalStatsToJson(stats));
        return os.str();
    }
    return std::nullopt;
}

TEST(CodecPbt, EvalStatsCodecRoundTrips)
{
    auto gen = [](Rng &rng) {
        EvalStats s;
        s.invalid = rng.next() >> rng.below(64);
        s.prunedBound = rng.next() >> rng.below(64);
        s.modeled = rng.next() >> rng.below(64);
        s.deltaAttempts = rng.next() >> rng.below(64);
        s.deltaHits = rng.next() >> rng.below(64);
        s.deltaFallbacks = rng.next() >> rng.below(64);
        s.deltaRebases = rng.next() >> rng.below(64);
        s.batchCalls = rng.next() >> rng.below(64);
        s.batchedEvals = rng.next() >> rng.below(64);
        s.batchRejects = rng.next() >> rng.below(64);
        return s;
    };
    ruby::pbt::check("evalStatsRoundTrip", 0x57A7u, gen,
                     evalStatsRoundTrips, nullptr, nullptr, 200);
}

} // namespace
