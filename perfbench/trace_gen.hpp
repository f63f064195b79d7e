/**
 * @file
 * Seeded request trace for the serve-fleet workload: single-layer
 * `net` requests in three classes with fixed shares,
 *
 *   hot  — an exact repeat of an earlier request (router cache hit),
 *   memo — an earlier cold shape under a new layer name (misses the
 *          router cache, hits the shard's layer memo),
 *   cold — a shape unique in the trace (a full search).
 *
 * The cold shapes are the same fixed pool for every seed, dealt out
 * in a seeded order, and every request uses the same search seed, so
 * all seeds do the same search work; the seed moves the order, the
 * class sequence, which earlier requests are repeated and the names.
 *
 * Request i belongs to closed-loop client i % clients, and a hot or
 * memo request only refers back to an earlier request of the same
 * client. A closed-loop client waits for each answer, so the request
 * referred to has always completed (and been cached or memoized)
 * before its repeat is sent: the classes are exact, not statistical.
 *
 * The fleet has one single-slot backend per client, and client c's
 * cold shapes are those the router's hash ring sends to backend c. So
 * no two clients ever queue for one search slot, and a replay's time
 * does not depend on how the clients' requests happen to interleave.
 */

#ifndef PERFBENCH_TRACE_GEN_HPP
#define PERFBENCH_TRACE_GEN_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ruby/serve/protocol.hpp"

namespace perfbench
{

enum class RequestClass
{
    Hot,
    Memo,
    Cold,
};

constexpr std::size_t kRequestClasses = 3;

/** Backends in the fleet, one per client. */
constexpr unsigned kBackends = 3;

/** Unix socket of backend @p i, or of the router for i == kBackends,
 *  relative to the working directory. The router's hash ring is keyed
 *  on backend addresses, so fixed names fix every request's shard. */
std::string socketPath(unsigned i);

/** The backend the fleet's router sends @p request to while every
 *  backend is healthy and none is over its load bound. */
std::size_t homeBackend(const ruby::serve::Request &request);

/** Stable lower-case label ("hot", "memo", "cold"). */
const char *className(RequestClass cls);

/** Per-client class counts; shares are count / kPerClient. */
struct TraceShape
{
    unsigned clients = kBackends;
    std::size_t hot = 320; ///< 80 %
    std::size_t memo = 40; ///< 10 %
    std::size_t cold = 40; ///< 10 %
    /** Random-strategy evaluation cap of every request. */
    std::uint64_t evaluations = 2'000;

    std::size_t perClient() const { return hot + memo + cold; }
    std::size_t total() const { return perClient() * clients; }
    double share(RequestClass cls) const;
};

struct TraceRequest
{
    RequestClass cls = RequestClass::Cold;
    unsigned client = 0;
    /** Index of the request this one repeats (hot) or reuses the
     *  shape of (memo); its own index for cold requests. */
    std::size_t source = 0;
    ruby::serve::Request request;
};

struct ServeTrace
{
    TraceShape shape;
    std::vector<TraceRequest> requests;

    /** Requests of @p cls in the trace. */
    std::size_t count(RequestClass cls) const;
};

/** Build the trace for @p seed; identical seeds give identical bytes. */
ServeTrace makeServeTrace(std::uint64_t seed, const TraceShape &shape = {});

/** Every request's wire line, newline-separated (for byte checks). */
std::string traceBytes(const ServeTrace &trace);

} // namespace perfbench

#endif // PERFBENCH_TRACE_GEN_HPP
