/**
 * @file
 * The ruby-served wire protocol (version 1).
 *
 * Framing: newline-delimited JSON (NDJSON) — one request object per
 * line, one response object per line, in order, over a Unix-domain or
 * TCP stream socket. Lines are capped (see Server) and must be valid
 * UTF-8 JSON.
 *
 * Every request carries {"v":1,"type":...,"id":...}. Types:
 *
 *   ping      liveness probe                       -> {"type":"pong"}
 *   map       search one layer                     -> {"type":"result"}
 *   net       search a whole network               -> {"type":"result"}
 *   stats     daemon counters + cache hit rates    -> {"type":"stats"}
 *   shutdown  begin graceful drain                 -> {"type":"shutdown-ack"}
 *
 * map payload: {"config": "<ruby YAML text>"} for the problem and
 * architecture, plus the explicit mapspace/search settings below (the
 * client resolves its flags first, so the daemon never re-interprets
 * CLI defaults). net payload: {"arch":"eyeriss"|"simba"} and either
 * {"suite":"resnet50"|...} or {"layers":[{shape...},...]}, plus the
 * same settings. Shared settings: {"variant","preset","pad","search"}.
 *
 * Every response carries {"v":1,"type":...,"id":...,"code":N} where
 * code mirrors the ruby-map exit codes: 0 ok, 1 user error, 2 bad
 * request, 3 no mapping, 4 deadline, 5 partial network, 6 internal,
 * plus 7 = rejected by admission control (the "kind" field then says
 * "saturated" or "draining"). Errors use {"type":"error","kind":...,
 * "message":...}.
 *
 * Bit-identity contract: numbers are serialized exactly (integers
 * verbatim, doubles in shortest round-trip form — see json.hpp), and
 * result decoding restores every field the reports read. Search
 * outcomes — best mapping, per-layer results, energy/cycles/EDP —
 * are always bit-identical to the same offline run; the fast-path
 * cache-occupancy counters (hits/evictions) describe the daemon's
 * shared warm cache rather than offline's private per-search caches
 * and may differ once the cache holds other work's entries.
 */

#ifndef RUBY_SERVE_PROTOCOL_HPP
#define RUBY_SERVE_PROTOCOL_HPP

#include <string>
#include <vector>

#include "ruby/search/driver.hpp"
#include "ruby/serve/json.hpp"
#include "ruby/workload/conv.hpp"

namespace ruby
{
namespace serve
{

/** Wire protocol version this build speaks. */
constexpr int kProtocolVersion = 1;

/** Response codes (mirroring the ruby-map exit codes, plus 7). */
constexpr int kCodeOk = 0;
constexpr int kCodeUserError = 1;
constexpr int kCodeBadRequest = 2;
constexpr int kCodeNoMapping = 3;
constexpr int kCodeDeadline = 4;
constexpr int kCodePartial = 5;
constexpr int kCodeInternal = 6;
constexpr int kCodeRejected = 7;

/** Request kinds. */
enum class RequestType
{
    Ping,
    Map,
    Net,
    Stats,
    Shutdown,
};

/** One decoded request. */
struct Request
{
    RequestType type = RequestType::Ping;
    std::string id; ///< echoed verbatim in the response

    // map / net payload ------------------------------------------------
    std::string configText; ///< map: the ruby YAML config document
    std::string arch;       ///< net: "eyeriss" | "simba"
    std::string suite;      ///< net: suite name (empty = inline layers)
    std::vector<Layer> layers; ///< net: inline layers when suite == ""
    MapspaceVariant variant = MapspaceVariant::RubyS;
    ConstraintPreset preset = ConstraintPreset::None;
    bool pad = false;
    SearchOptions search;
};

/**
 * Decode one request line. Throws ruby::Error on an unknown type, a
 * version mismatch, or a malformed payload — the session layer turns
 * that into a {"type":"error","code":2} response.
 */
Request parseRequest(const JsonValue &root);

/** Encode a request (the client side of parseRequest). */
JsonValue encodeRequest(const Request &request);

// -- responses ----------------------------------------------------------

/** Envelope with v/type/id/code preset; callers append payload. */
JsonValue makeResponse(const std::string &type, const std::string &id,
                       int code);

/** {"type":"error","kind":...,"message":...} with @p code. */
JsonValue makeErrorResponse(const std::string &id, int code,
                            const std::string &kind,
                            const std::string &message);

// -- health reports ------------------------------------------------------

/**
 * Deep liveness report carried by every pong: enough for a client's
 * retry logic (back off while saturated, fail fast while draining)
 * and for a router's health checks (spare capacity, warm-state
 * footprint) without a separate stats round trip.
 */
struct Health
{
    bool ok = false;       ///< pong arrived with code 0
    bool draining = false; ///< shutdown drain has begun
    std::uint64_t inflight = 0;      ///< searches running now
    std::uint64_t queued = 0;        ///< requests waiting for a slot
    std::uint64_t maxInflight = 0;   ///< concurrent search slots
    std::uint64_t queueCapacity = 0; ///< admission queue bound
    std::uint64_t uptimeMs = 0;      ///< daemon uptime
    std::uint64_t layerMemoEntries = 0; ///< memoized layer results

    // Response-cache + single-flight gauges (absent on the wire from
    // pre-cache daemons; the codec defaults them to zero).
    std::uint64_t responseCacheEntries = 0; ///< cached response lines
    double responseCacheHitRate = 0.0;      ///< hits / probes
    std::uint64_t coalescedInflight = 0;    ///< followers waiting now

    // Latency observability (from the daemon's wall-time histogram,
    // latency_histogram.hpp): search requests served and their
    // current quantiles, so operators and routers read p99 from the
    // server itself rather than measuring from the client side.
    std::uint64_t requestCount = 0; ///< searches in the histogram
    double p50Ms = 0.0;             ///< median search wall time
    double p99Ms = 0.0;             ///< tail search wall time

    /** Spare capacity heuristic for routers: can this daemon accept
     *  a request right now without queueing? */
    bool hasFreeSlot() const
    {
        return ok && !draining && inflight < maxInflight;
    }
};

JsonValue healthToJson(const Health &health);
Health healthFromJson(const JsonValue &v);

// -- domain codecs (exact round trips) ----------------------------------

JsonValue evalStatsToJson(const EvalStats &stats);
EvalStats evalStatsFromJson(const JsonValue &v);

JsonValue evalResultToJson(const EvalResult &result);
EvalResult evalResultFromJson(const JsonValue &v);

JsonValue layerOutcomeToJson(const LayerOutcome &outcome);
LayerOutcome layerOutcomeFromJson(const JsonValue &v);

JsonValue networkOutcomeToJson(const NetworkOutcome &net);
NetworkOutcome networkOutcomeFromJson(const JsonValue &v);

JsonValue searchOptionsToJson(const SearchOptions &options);
/** Starts from defaults; absent keys keep their default values and
 *  unknown keys (e.g. the retired eval-cache and engine switches
 *  older peers still send) are ignored. */
SearchOptions searchOptionsFromJson(const JsonValue &v);

JsonValue convShapeToJson(const ConvShape &shape);
ConvShape convShapeFromJson(const JsonValue &v);

// -- enum spellings (shared with the CLI/loaders vocabulary) ------------

const char *variantWireName(MapspaceVariant variant);
const char *presetWireName(ConstraintPreset preset);
const char *objectiveWireName(Objective objective);
const char *strategyWireName(SearchStrategy strategy);
SearchStrategy parseStrategy(const std::string &name);

/** Exit/response code for a failed layer or mapper outcome. */
int failureCode(FailureKind kind);
/** Inverse of failureKindName(); throws on an unknown label. */
FailureKind failureKindFromName(const std::string &name);

/** Layers of a built-in suite; throws ruby::Error on unknown names. */
std::vector<Layer> suiteLayers(const std::string &name);

/** Preset architecture by wire name; throws on unknown names. */
ArchSpec archByName(const std::string &name);

} // namespace serve
} // namespace ruby

#endif // RUBY_SERVE_PROTOCOL_HPP
