#include "ruby/serve/protocol.hpp"

#include "ruby/arch/presets.hpp"
#include "ruby/common/error.hpp"
#include "ruby/io/loaders.hpp"
#include "ruby/workload/suites/suites.hpp"

namespace ruby
{
namespace serve
{

namespace
{

JsonValue
doubleMatrixToJson(const std::vector<std::vector<double>> &m)
{
    JsonValue out = JsonValue::makeArray();
    for (const std::vector<double> &row : m) {
        JsonValue jrow = JsonValue::makeArray();
        for (const double v : row)
            jrow.push(JsonValue::makeDouble(v));
        out.push(std::move(jrow));
    }
    return out;
}

std::vector<std::vector<double>>
doubleMatrixFromJson(const JsonValue &v)
{
    RUBY_CHECK(v.type == JsonType::Array,
               "protocol: expected an array of arrays");
    std::vector<std::vector<double>> out;
    out.reserve(v.array.size());
    for (const JsonValue &jrow : v.array) {
        RUBY_CHECK(jrow.type == JsonType::Array,
                   "protocol: expected an array of arrays");
        std::vector<double> row;
        row.reserve(jrow.array.size());
        for (const JsonValue &e : jrow.array)
            row.push_back(e.asDouble());
        out.push_back(std::move(row));
    }
    return out;
}

JsonValue
doubleVectorToJson(const std::vector<double> &vec)
{
    JsonValue out = JsonValue::makeArray();
    for (const double v : vec)
        out.push(JsonValue::makeDouble(v));
    return out;
}

std::vector<double>
doubleVectorFromJson(const JsonValue &v)
{
    RUBY_CHECK(v.type == JsonType::Array,
               "protocol: expected an array of numbers");
    std::vector<double> out;
    out.reserve(v.array.size());
    for (const JsonValue &e : v.array)
        out.push_back(e.asDouble());
    return out;
}

RequestType
requestTypeFromName(const std::string &name)
{
    if (name == "ping")
        return RequestType::Ping;
    if (name == "map")
        return RequestType::Map;
    if (name == "net")
        return RequestType::Net;
    if (name == "stats")
        return RequestType::Stats;
    if (name == "shutdown")
        return RequestType::Shutdown;
    RUBY_FATAL("protocol: unknown request type '", name,
               "' (ping | map | net | stats | shutdown)");
}

const char *
requestTypeName(RequestType type)
{
    switch (type) {
      case RequestType::Ping:     return "ping";
      case RequestType::Map:      return "map";
      case RequestType::Net:      return "net";
      case RequestType::Stats:    return "stats";
      case RequestType::Shutdown: return "shutdown";
    }
    return "?";
}

} // namespace

const char *
variantWireName(MapspaceVariant variant)
{
    switch (variant) {
      case MapspaceVariant::PFM:   return "pfm";
      case MapspaceVariant::Ruby:  return "ruby";
      case MapspaceVariant::RubyS: return "ruby-s";
      case MapspaceVariant::RubyT: return "ruby-t";
    }
    return "?";
}

const char *
presetWireName(ConstraintPreset preset)
{
    switch (preset) {
      case ConstraintPreset::None:      return "none";
      case ConstraintPreset::EyerissRS: return "eyeriss-rs";
      case ConstraintPreset::Simba:     return "simba";
      case ConstraintPreset::ToyCM:     return "toy-cm";
    }
    return "?";
}

const char *
objectiveWireName(Objective objective)
{
    switch (objective) {
      case Objective::EDP:    return "edp";
      case Objective::Energy: return "energy";
      case Objective::Delay:  return "delay";
    }
    return "?";
}

const char *
strategyWireName(SearchStrategy strategy)
{
    switch (strategy) {
      case SearchStrategy::Random:     return "random";
      case SearchStrategy::Exhaustive: return "exhaustive";
      case SearchStrategy::Genetic:    return "genetic";
      case SearchStrategy::Local:      return "local";
      case SearchStrategy::Optimal:    return "optimal";
    }
    return "?";
}

SearchStrategy
parseStrategy(const std::string &name)
{
    if (name == "random")
        return SearchStrategy::Random;
    if (name == "exhaustive")
        return SearchStrategy::Exhaustive;
    if (name == "genetic")
        return SearchStrategy::Genetic;
    if (name == "local")
        return SearchStrategy::Local;
    if (name == "optimal")
        return SearchStrategy::Optimal;
    RUBY_FATAL("protocol: unknown strategy '", name,
               "' (random | exhaustive | genetic | local | optimal)");
}

int
failureCode(FailureKind kind)
{
    switch (kind) {
      case FailureKind::None:
        return kCodeOk;
      case FailureKind::InvalidConfig:
        return kCodeUserError;
      case FailureKind::NoValidMapping:
        return kCodeNoMapping;
      case FailureKind::DeadlineExceeded:
        return kCodeDeadline;
      case FailureKind::InternalError:
        return kCodeInternal;
    }
    return kCodeInternal;
}

FailureKind
failureKindFromName(const std::string &name)
{
    if (name == "none")
        return FailureKind::None;
    if (name == "invalid-config")
        return FailureKind::InvalidConfig;
    if (name == "no-valid-mapping")
        return FailureKind::NoValidMapping;
    if (name == "deadline-exceeded")
        return FailureKind::DeadlineExceeded;
    if (name == "internal-error")
        return FailureKind::InternalError;
    RUBY_FATAL("protocol: unknown failure kind '", name, "'");
}

std::vector<Layer>
suiteLayers(const std::string &name)
{
    if (name == "resnet50")
        return resnet50Layers();
    if (name == "deepbench")
        return deepbenchLayers();
    if (name == "alexnet")
        return alexnetLayers();
    RUBY_FATAL("unknown suite '", name,
               "' (expected resnet50 | deepbench | alexnet)");
}

ArchSpec
archByName(const std::string &name)
{
    if (name == "eyeriss")
        return makeEyeriss();
    if (name == "simba")
        return makeSimba();
    RUBY_FATAL("unknown arch '", name,
               "' (expected eyeriss | simba)");
}

JsonValue
convShapeToJson(const ConvShape &shape)
{
    JsonValue out = JsonValue::makeObject();
    out.set("name", JsonValue::makeString(shape.name));
    out.set("n", JsonValue::makeU64(shape.n));
    out.set("c", JsonValue::makeU64(shape.c));
    out.set("m", JsonValue::makeU64(shape.m));
    out.set("p", JsonValue::makeU64(shape.p));
    out.set("q", JsonValue::makeU64(shape.q));
    out.set("r", JsonValue::makeU64(shape.r));
    out.set("s", JsonValue::makeU64(shape.s));
    out.set("strideH", JsonValue::makeU64(shape.strideH));
    out.set("strideW", JsonValue::makeU64(shape.strideW));
    out.set("dilationH", JsonValue::makeU64(shape.dilationH));
    out.set("dilationW", JsonValue::makeU64(shape.dilationW));
    return out;
}

ConvShape
convShapeFromJson(const JsonValue &v)
{
    RUBY_CHECK(v.type == JsonType::Object,
               "protocol: layer shape must be an object");
    ConvShape shape;
    shape.name = v.getString("name", "");
    shape.n = v.getU64("n", 1);
    shape.c = v.getU64("c", 1);
    shape.m = v.getU64("m", 1);
    shape.p = v.getU64("p", 1);
    shape.q = v.getU64("q", 1);
    shape.r = v.getU64("r", 1);
    shape.s = v.getU64("s", 1);
    shape.strideH = v.getU64("strideH", 1);
    shape.strideW = v.getU64("strideW", 1);
    shape.dilationH = v.getU64("dilationH", 1);
    shape.dilationW = v.getU64("dilationW", 1);
    return shape;
}

JsonValue
searchOptionsToJson(const SearchOptions &options)
{
    JsonValue out = JsonValue::makeObject();
    out.set("objective", JsonValue::makeString(
                             objectiveWireName(options.objective)));
    out.set("strategy", JsonValue::makeString(
                            strategyWireName(options.strategy)));
    out.set("terminationStreak",
            JsonValue::makeU64(options.terminationStreak));
    out.set("maxEvaluations",
            JsonValue::makeU64(options.maxEvaluations));
    out.set("seed", JsonValue::makeU64(options.seed));
    out.set("threads", JsonValue::makeU64(options.threads));
    out.set("restarts", JsonValue::makeU64(options.restarts));
    out.set("timeBudgetMs",
            JsonValue::makeU64(static_cast<std::uint64_t>(
                options.timeBudget.count())));
    out.set("networkTimeBudgetMs",
            JsonValue::makeU64(static_cast<std::uint64_t>(
                options.networkTimeBudget.count())));
    out.set("recordTrajectory",
            JsonValue::makeBool(options.recordTrajectory));
    out.set("refineSteps", JsonValue::makeU64(options.refineSteps));
    out.set("islands", JsonValue::makeU64(options.islands));
    out.set("networkThreads",
            JsonValue::makeU64(options.networkThreads));
    out.set("layerMemo", JsonValue::makeBool(options.layerMemo));
    return out;
}

SearchOptions
searchOptionsFromJson(const JsonValue &v)
{
    RUBY_CHECK(v.type == JsonType::Object,
               "protocol: search options must be an object");
    SearchOptions o;
    if (const JsonValue *obj = v.find("objective"))
        o.objective = parseObjective(obj->asString(), "objective");
    if (const JsonValue *s = v.find("strategy"))
        o.strategy = parseStrategy(s->asString());
    o.terminationStreak =
        v.getU64("terminationStreak", o.terminationStreak);
    o.maxEvaluations = v.getU64("maxEvaluations", o.maxEvaluations);
    o.seed = v.getU64("seed", o.seed);
    o.threads =
        static_cast<unsigned>(v.getU64("threads", o.threads));
    o.restarts =
        static_cast<unsigned>(v.getU64("restarts", o.restarts));
    o.timeBudget = std::chrono::milliseconds(
        v.getU64("timeBudgetMs",
                 static_cast<std::uint64_t>(o.timeBudget.count())));
    o.networkTimeBudget = std::chrono::milliseconds(v.getU64(
        "networkTimeBudgetMs",
        static_cast<std::uint64_t>(o.networkTimeBudget.count())));
    o.recordTrajectory =
        v.getBool("recordTrajectory", o.recordTrajectory);
    o.refineSteps = static_cast<unsigned>(
        v.getU64("refineSteps", o.refineSteps));
    o.islands =
        static_cast<unsigned>(v.getU64("islands", o.islands));
    o.networkThreads = static_cast<unsigned>(
        v.getU64("networkThreads", o.networkThreads));
    o.layerMemo = v.getBool("layerMemo", o.layerMemo);
    return o;
}

JsonValue
healthToJson(const Health &health)
{
    JsonValue out = JsonValue::makeObject();
    out.set("ok", JsonValue::makeBool(health.ok));
    out.set("draining", JsonValue::makeBool(health.draining));
    out.set("inflight", JsonValue::makeU64(health.inflight));
    out.set("queued", JsonValue::makeU64(health.queued));
    out.set("maxInflight", JsonValue::makeU64(health.maxInflight));
    out.set("queueCapacity",
            JsonValue::makeU64(health.queueCapacity));
    out.set("uptimeMs", JsonValue::makeU64(health.uptimeMs));
    out.set("layerMemoEntries",
            JsonValue::makeU64(health.layerMemoEntries));
    out.set("requestCount",
            JsonValue::makeU64(health.requestCount));
    out.set("p50Ms", JsonValue::makeDouble(health.p50Ms));
    out.set("p99Ms", JsonValue::makeDouble(health.p99Ms));
    out.set("responseCacheEntries",
            JsonValue::makeU64(health.responseCacheEntries));
    out.set("responseCacheHitRate",
            JsonValue::makeDouble(health.responseCacheHitRate));
    out.set("coalescedInflight",
            JsonValue::makeU64(health.coalescedInflight));
    return out;
}

Health
healthFromJson(const JsonValue &v)
{
    RUBY_CHECK(v.type == JsonType::Object,
               "protocol: health must be an object");
    Health health;
    health.ok = v.getBool("ok", false);
    health.draining = v.getBool("draining", false);
    health.inflight = v.getU64("inflight", 0);
    health.queued = v.getU64("queued", 0);
    health.maxInflight = v.getU64("maxInflight", 0);
    health.queueCapacity = v.getU64("queueCapacity", 0);
    health.uptimeMs = v.getU64("uptimeMs", 0);
    health.layerMemoEntries = v.getU64("layerMemoEntries", 0);
    health.requestCount = v.getU64("requestCount", 0);
    const JsonValue *p50 = v.find("p50Ms");
    if (p50 != nullptr)
        health.p50Ms = p50->asDouble();
    const JsonValue *p99 = v.find("p99Ms");
    if (p99 != nullptr)
        health.p99Ms = p99->asDouble();
    // Graceful defaults: pre-cache peers omit the response-cache
    // gauges entirely.
    health.responseCacheEntries = v.getU64("responseCacheEntries", 0);
    const JsonValue *rcRate = v.find("responseCacheHitRate");
    if (rcRate != nullptr)
        health.responseCacheHitRate = rcRate->asDouble();
    health.coalescedInflight = v.getU64("coalescedInflight", 0);
    return health;
}

JsonValue
evalStatsToJson(const EvalStats &stats)
{
    JsonValue out = JsonValue::makeObject();
    out.set("invalid", JsonValue::makeU64(stats.invalid));
    out.set("prunedBound", JsonValue::makeU64(stats.prunedBound));
    out.set("modeled", JsonValue::makeU64(stats.modeled));
    out.set("deltaAttempts", JsonValue::makeU64(stats.deltaAttempts));
    out.set("deltaHits", JsonValue::makeU64(stats.deltaHits));
    out.set("deltaFallbacks",
            JsonValue::makeU64(stats.deltaFallbacks));
    out.set("deltaRebases", JsonValue::makeU64(stats.deltaRebases));
    out.set("batchCalls", JsonValue::makeU64(stats.batchCalls));
    out.set("batchedEvals", JsonValue::makeU64(stats.batchedEvals));
    out.set("batchRejects", JsonValue::makeU64(stats.batchRejects));
    return out;
}

EvalStats
evalStatsFromJson(const JsonValue &v)
{
    RUBY_CHECK(v.type == JsonType::Object,
               "protocol: eval stats must be an object");
    EvalStats stats;
    stats.invalid = v.getU64("invalid", 0);
    stats.prunedBound = v.getU64("prunedBound", 0);
    stats.modeled = v.getU64("modeled", 0);
    // Absent on the wire from pre-engine peers: default to zero, the
    // "no incremental engine ran" reading.
    stats.deltaAttempts = v.getU64("deltaAttempts", 0);
    stats.deltaHits = v.getU64("deltaHits", 0);
    stats.deltaFallbacks = v.getU64("deltaFallbacks", 0);
    stats.deltaRebases = v.getU64("deltaRebases", 0);
    // Likewise absent from pre-batch-engine peers: zero means "no
    // batched evaluation ran".
    stats.batchCalls = v.getU64("batchCalls", 0);
    stats.batchedEvals = v.getU64("batchedEvals", 0);
    stats.batchRejects = v.getU64("batchRejects", 0);
    return stats;
}

JsonValue
evalResultToJson(const EvalResult &result)
{
    JsonValue out = JsonValue::makeObject();
    out.set("valid", JsonValue::makeBool(result.valid));
    if (!result.invalidReason.empty())
        out.set("invalidReason",
                JsonValue::makeString(result.invalidReason));
    out.set("ops", JsonValue::makeU64(result.ops));
    out.set("energy", JsonValue::makeDouble(result.energy));
    out.set("cycles", JsonValue::makeDouble(result.cycles));
    out.set("edp", JsonValue::makeDouble(result.edp));
    out.set("utilization",
            JsonValue::makeDouble(result.utilization));
    out.set("levelEnergy", doubleVectorToJson(result.levelEnergy));
    out.set("macEnergy", JsonValue::makeDouble(result.macEnergy));
    out.set("networkEnergy",
            JsonValue::makeDouble(result.networkEnergy));

    JsonValue accesses = JsonValue::makeObject();
    accesses.set("reads", doubleMatrixToJson(result.accesses.reads));
    accesses.set("writes",
                 doubleMatrixToJson(result.accesses.writes));
    accesses.set("networkWords",
                 JsonValue::makeDouble(result.accesses.networkWords));
    out.set("accesses", std::move(accesses));

    JsonValue latency = JsonValue::makeObject();
    latency.set("computeCycles",
                JsonValue::makeDouble(result.latency.computeCycles));
    latency.set("bandwidthCycles",
                doubleVectorToJson(result.latency.bandwidthCycles));
    latency.set("cycles",
                JsonValue::makeDouble(result.latency.cycles));
    latency.set("utilization",
                JsonValue::makeDouble(result.latency.utilization));
    out.set("latency", std::move(latency));
    return out;
}

EvalResult
evalResultFromJson(const JsonValue &v)
{
    RUBY_CHECK(v.type == JsonType::Object,
               "protocol: eval result must be an object");
    EvalResult r;
    r.valid = v.at("valid").asBool();
    r.invalidReason = v.getString("invalidReason", "");
    r.ops = v.getU64("ops", 0);
    r.energy = v.at("energy").asDouble();
    r.cycles = v.at("cycles").asDouble();
    r.edp = v.at("edp").asDouble();
    r.utilization = v.at("utilization").asDouble();
    r.levelEnergy = doubleVectorFromJson(v.at("levelEnergy"));
    r.macEnergy = v.at("macEnergy").asDouble();
    r.networkEnergy = v.at("networkEnergy").asDouble();

    const JsonValue &accesses = v.at("accesses");
    r.accesses.reads = doubleMatrixFromJson(accesses.at("reads"));
    r.accesses.writes = doubleMatrixFromJson(accesses.at("writes"));
    r.accesses.networkWords = accesses.at("networkWords").asDouble();

    const JsonValue &latency = v.at("latency");
    r.latency.computeCycles = latency.at("computeCycles").asDouble();
    r.latency.bandwidthCycles =
        doubleVectorFromJson(latency.at("bandwidthCycles"));
    r.latency.cycles = latency.at("cycles").asDouble();
    r.latency.utilization = latency.at("utilization").asDouble();
    return r;
}

JsonValue
layerOutcomeToJson(const LayerOutcome &outcome)
{
    JsonValue out = JsonValue::makeObject();
    out.set("name", JsonValue::makeString(outcome.name));
    out.set("group", JsonValue::makeString(outcome.group));
    out.set("count", JsonValue::makeI64(outcome.count));
    out.set("found", JsonValue::makeBool(outcome.found));
    if (outcome.found)
        out.set("result", evalResultToJson(outcome.result));
    out.set("evaluated", JsonValue::makeU64(outcome.evaluated));
    out.set("stats", evalStatsToJson(outcome.stats));
    if (!outcome.bestMapping.empty())
        out.set("bestMapping",
                JsonValue::makeString(outcome.bestMapping));
    out.set("failure", JsonValue::makeString(
                           failureKindName(outcome.failure)));
    if (!outcome.diagnostic.empty())
        out.set("diagnostic",
                JsonValue::makeString(outcome.diagnostic));
    out.set("timedOut", JsonValue::makeBool(outcome.timedOut));
    out.set("memoized", JsonValue::makeBool(outcome.memoized));
    out.set("certified", JsonValue::makeBool(outcome.certified));
    out.set("gapPercent",
            JsonValue::makeDouble(outcome.gapPercent));
    if (!outcome.statsNote.empty())
        out.set("statsNote",
                JsonValue::makeString(outcome.statsNote));
    return out;
}

LayerOutcome
layerOutcomeFromJson(const JsonValue &v)
{
    RUBY_CHECK(v.type == JsonType::Object,
               "protocol: layer outcome must be an object");
    LayerOutcome o;
    o.name = v.getString("name", "");
    o.group = v.getString("group", "");
    o.count = static_cast<int>(v.at("count").asI64());
    o.found = v.at("found").asBool();
    if (o.found)
        o.result = evalResultFromJson(v.at("result"));
    o.evaluated = v.getU64("evaluated", 0);
    o.stats = evalStatsFromJson(v.at("stats"));
    o.bestMapping = v.getString("bestMapping", "");
    o.failure = failureKindFromName(v.at("failure").asString());
    o.diagnostic = v.getString("diagnostic", "");
    o.timedOut = v.getBool("timedOut", false);
    o.memoized = v.getBool("memoized", false);
    // Absent on the wire from pre-optimal peers: default to the
    // "not tracked" sentinels.
    o.certified = v.getBool("certified", false);
    o.gapPercent = v.find("gapPercent") != nullptr
                       ? v.at("gapPercent").asDouble()
                       : -1.0;
    o.statsNote = v.getString("statsNote", "");
    return o;
}

JsonValue
networkOutcomeToJson(const NetworkOutcome &net)
{
    JsonValue out = JsonValue::makeObject();
    JsonValue layers = JsonValue::makeArray();
    for (const LayerOutcome &layer : net.layers)
        layers.push(layerOutcomeToJson(layer));
    out.set("layers", std::move(layers));
    out.set("totalEnergy", JsonValue::makeDouble(net.totalEnergy));
    out.set("totalCycles", JsonValue::makeDouble(net.totalCycles));
    out.set("edp", JsonValue::makeDouble(net.edp));
    out.set("allFound", JsonValue::makeBool(net.allFound));
    out.set("failedLayers", JsonValue::makeI64(net.failedLayers));
    out.set("memoizedLayers",
            JsonValue::makeI64(net.memoizedLayers));
    out.set("stats", evalStatsToJson(net.stats));
    return out;
}

NetworkOutcome
networkOutcomeFromJson(const JsonValue &v)
{
    RUBY_CHECK(v.type == JsonType::Object,
               "protocol: network outcome must be an object");
    NetworkOutcome net;
    const JsonValue &layers = v.at("layers");
    RUBY_CHECK(layers.type == JsonType::Array,
               "protocol: layers must be an array");
    for (const JsonValue &layer : layers.array)
        net.layers.push_back(layerOutcomeFromJson(layer));
    net.totalEnergy = v.at("totalEnergy").asDouble();
    net.totalCycles = v.at("totalCycles").asDouble();
    net.edp = v.at("edp").asDouble();
    net.allFound = v.at("allFound").asBool();
    net.failedLayers = static_cast<int>(v.at("failedLayers").asI64());
    net.memoizedLayers =
        static_cast<int>(v.at("memoizedLayers").asI64());
    net.stats = evalStatsFromJson(v.at("stats"));
    return net;
}

Request
parseRequest(const JsonValue &root)
{
    RUBY_CHECK(root.type == JsonType::Object,
               "protocol: a request must be a JSON object");
    const std::uint64_t version = root.getU64("v", 0);
    RUBY_CHECK(version == kProtocolVersion,
               "protocol: unsupported version ", version,
               " (this daemon speaks v", kProtocolVersion, ")");
    Request req;
    req.type = requestTypeFromName(root.at("type").asString());
    req.id = root.getString("id", "");

    if (req.type != RequestType::Map && req.type != RequestType::Net)
        return req;

    if (req.type == RequestType::Map) {
        req.configText = root.at("config").asString();
    } else {
        req.arch = root.getString("arch", "eyeriss");
        if (const JsonValue *suite = root.find("suite")) {
            req.suite = suite->asString();
            RUBY_CHECK(root.find("layers") == nullptr,
                       "protocol: give either 'suite' or 'layers', "
                       "not both");
        } else {
            const JsonValue &layers = root.at("layers");
            RUBY_CHECK(layers.type == JsonType::Array,
                       "protocol: layers must be an array");
            RUBY_CHECK(!layers.array.empty(),
                       "protocol: layers must be non-empty");
            for (const JsonValue &jlayer : layers.array) {
                Layer layer;
                layer.shape = convShapeFromJson(jlayer);
                layer.count = static_cast<int>(
                    jlayer.getU64("count", 1));
                layer.group = jlayer.getString("group", "");
                RUBY_CHECK(layer.count >= 1,
                           "protocol: layer count must be >= 1");
                req.layers.push_back(std::move(layer));
            }
        }
    }
    req.variant = parseVariant(root.getString("variant", "ruby-s"),
                               "variant");
    req.preset =
        parsePreset(root.getString("preset", "none"), "preset");
    req.pad = root.getBool("pad", false);
    if (const JsonValue *search = root.find("search"))
        req.search = searchOptionsFromJson(*search);
    return req;
}

JsonValue
encodeRequest(const Request &request)
{
    JsonValue out = JsonValue::makeObject();
    out.set("v", JsonValue::makeU64(kProtocolVersion));
    out.set("type",
            JsonValue::makeString(requestTypeName(request.type)));
    if (!request.id.empty())
        out.set("id", JsonValue::makeString(request.id));
    if (request.type != RequestType::Map &&
        request.type != RequestType::Net)
        return out;

    if (request.type == RequestType::Map) {
        out.set("config", JsonValue::makeString(request.configText));
    } else {
        out.set("arch", JsonValue::makeString(request.arch));
        if (!request.suite.empty()) {
            out.set("suite", JsonValue::makeString(request.suite));
        } else {
            JsonValue layers = JsonValue::makeArray();
            for (const Layer &layer : request.layers) {
                JsonValue jlayer = convShapeToJson(layer.shape);
                jlayer.set("count",
                           JsonValue::makeU64(static_cast<
                               std::uint64_t>(layer.count)));
                jlayer.set("group",
                           JsonValue::makeString(layer.group));
                layers.push(std::move(jlayer));
            }
            out.set("layers", std::move(layers));
        }
    }
    out.set("variant", JsonValue::makeString(
                           variantWireName(request.variant)));
    out.set("preset",
            JsonValue::makeString(presetWireName(request.preset)));
    out.set("pad", JsonValue::makeBool(request.pad));
    out.set("search", searchOptionsToJson(request.search));
    return out;
}

JsonValue
makeResponse(const std::string &type, const std::string &id, int code)
{
    JsonValue out = JsonValue::makeObject();
    out.set("v", JsonValue::makeU64(kProtocolVersion));
    out.set("type", JsonValue::makeString(type));
    if (!id.empty())
        out.set("id", JsonValue::makeString(id));
    out.set("code", JsonValue::makeI64(code));
    return out;
}

JsonValue
makeErrorResponse(const std::string &id, int code,
                  const std::string &kind, const std::string &message)
{
    JsonValue out = makeResponse("error", id, code);
    out.set("kind", JsonValue::makeString(kind));
    out.set("message", JsonValue::makeString(message));
    return out;
}

} // namespace serve
} // namespace ruby
