#include "ruby/io/loaders.hpp"

#include <chrono>

#include "ruby/arch/area_model.hpp"
#include "ruby/arch/energy_model.hpp"
#include "ruby/common/error.hpp"
#include "ruby/workload/conv.hpp"
#include "ruby/workload/gemm.hpp"

namespace ruby
{

namespace
{

/** "": no prefix; otherwise "context: " for error messages. */
std::string
errorPrefix(const std::string &context)
{
    return context.empty() ? std::string() : context + ": ";
}

/** A named-enum key of the mapper section, read through @p parse. */
template <typename T>
T
parseNamed(const JsonValue &mapper, const char *key, const char *fallback,
           T (*parse)(const std::string &, const std::string &))
{
    const JsonValue *v = mapper.find(key);
    return v == nullptr ? parse(fallback, "")
                        : parse(v->asString(), v->where());
}

StorageLevelSpec
loadLevel(const JsonValue &node, bool is_last)
{
    StorageLevelSpec lvl;
    lvl.name = node.at("name").asString();
    const bool backing = node.getBool("backing_store", is_last);
    RUBY_CHECK(backing == is_last, node.where(),
               ": only the outermost level may be the backing store");

    lvl.capacityWords =
        backing ? 0 : node.getU64("capacity_words", 0);
    if (const JsonValue *per = node.find("per_tensor_capacity")) {
        RUBY_CHECK(per->type == JsonType::Array, per->where(),
                   ": expected a sequence");
        for (const JsonValue &words : per->array)
            lvl.perTensorCapacity.push_back(words.asU64());
    }
    lvl.bandwidthWordsPerCycle = node.getDouble("bandwidth", 0.0);
    lvl.fanoutX = node.getU64("fanout_x", 1);
    lvl.fanoutY = node.getU64("fanout_y", 1);

    // Energy/area: explicit values win; otherwise derived from the
    // capacity via the analytic models (DRAM for the backing store).
    std::uint64_t sizing_words = lvl.capacityWords;
    for (auto w : lvl.perTensorCapacity)
        sizing_words += w;
    double default_energy, default_area;
    if (backing) {
        default_energy = EnergyModel::dramAccess();
        default_area = 0.0;
    } else if (sizing_words <= 8) {
        default_energy = EnergyModel::registerAccess();
        default_area = static_cast<double>(sizing_words) *
                       AreaModel::registerWord();
    } else {
        default_energy = EnergyModel::sramAccess(sizing_words);
        default_area = AreaModel::sram(sizing_words);
    }
    lvl.readEnergy = node.getDouble("read_energy", default_energy);
    lvl.writeEnergy = node.getDouble("write_energy", default_energy);
    lvl.area = node.getDouble("area", default_area);
    return lvl;
}

} // namespace

ArchSpec
loadArchSpec(const JsonValue &root)
{
    const JsonValue &arch = root.at("architecture");
    const JsonValue &levels = arch.at("levels");
    RUBY_CHECK(levels.type == JsonType::Array && !levels.array.empty(),
               levels.where(), ": expected a sequence of levels");

    std::vector<StorageLevelSpec> specs;
    for (std::size_t i = 0; i < levels.array.size(); ++i)
        specs.push_back(
            loadLevel(levels.array[i], i + 1 == levels.array.size()));

    const std::uint64_t word_bits = arch.getU64("word_bits", 16);
    return ArchSpec(arch.getString("name", "custom"),
                    std::move(specs),
                    arch.getDouble("mac_energy",
                                   EnergyModel::macOp(word_bits)),
                    arch.getDouble("mac_area",
                                   AreaModel::mac(word_bits)),
                    word_bits);
}

Problem
loadProblem(const JsonValue &root)
{
    const JsonValue &wl = root.at("workload");
    const std::string type = wl.at("type").asString();
    const std::string name = wl.getString("name", type);

    if (type == "conv") {
        ConvShape sh;
        sh.name = name;
        sh.n = wl.getU64("n", 1);
        sh.c = wl.getU64("c", 1);
        sh.m = wl.getU64("m", 1);
        sh.p = wl.getU64("p", 1);
        sh.q = wl.getU64("q", 1);
        sh.r = wl.getU64("r", 1);
        sh.s = wl.getU64("s", 1);
        if (const JsonValue *stride = wl.find("stride")) {
            RUBY_CHECK(stride->array.size() == 2, stride->where(),
                       ": stride must be [h, w]");
            sh.strideH = stride->array[0].asU64();
            sh.strideW = stride->array[1].asU64();
        }
        if (const JsonValue *dilation = wl.find("dilation")) {
            RUBY_CHECK(dilation->array.size() == 2, dilation->where(),
                       ": dilation must be [h, w]");
            sh.dilationH = dilation->array[0].asU64();
            sh.dilationW = dilation->array[1].asU64();
        }
        return makeConv(sh);
    }
    if (type == "gemm") {
        return makeGemm(wl.at("m").asU64(), wl.at("n").asU64(),
                        wl.at("k").asU64(), name);
    }
    if (type == "vector") {
        return makeVector1D(wl.at("d").asU64(), name);
    }
    RUBY_FATAL(wl.at("type").where(), ": unknown workload type '", type,
               "' (expected conv | gemm | vector)");
}

MapspaceVariant
parseVariant(const std::string &name, const std::string &context)
{
    if (name == "pfm")
        return MapspaceVariant::PFM;
    if (name == "ruby")
        return MapspaceVariant::Ruby;
    if (name == "ruby-s")
        return MapspaceVariant::RubyS;
    if (name == "ruby-t")
        return MapspaceVariant::RubyT;
    RUBY_FATAL(errorPrefix(context), "unknown mapspace '", name,
               "' (expected pfm | ruby | ruby-s | ruby-t)");
}

Objective
parseObjective(const std::string &name, const std::string &context)
{
    if (name == "edp")
        return Objective::EDP;
    if (name == "energy")
        return Objective::Energy;
    if (name == "delay")
        return Objective::Delay;
    RUBY_FATAL(errorPrefix(context), "unknown objective '", name,
               "' (expected edp | energy | delay)");
}

ConstraintPreset
parsePreset(const std::string &name, const std::string &context)
{
    if (name == "none")
        return ConstraintPreset::None;
    if (name == "eyeriss-rs")
        return ConstraintPreset::EyerissRS;
    if (name == "simba")
        return ConstraintPreset::Simba;
    if (name == "toy-cm")
        return ConstraintPreset::ToyCM;
    RUBY_FATAL(errorPrefix(context), "unknown constraint preset '",
               name, "' (expected none | eyeriss-rs | simba | toy-cm)");
}

MapperConfig
loadMapperConfig(const JsonValue &root)
{
    MapperConfig config;
    const JsonValue *mapper = root.find("mapper");
    if (mapper == nullptr)
        return config;
    RUBY_CHECK(mapper->type == JsonType::Object, mapper->where(),
               ": expected a map");
    config.variant =
        parseNamed(*mapper, "mapspace", "ruby-s", parseVariant);
    config.preset =
        parseNamed(*mapper, "constraints", "none", parsePreset);
    config.pad = mapper->getBool("pad", false);
    config.search.objective =
        parseNamed(*mapper, "objective", "edp", parseObjective);
    config.search.terminationStreak =
        mapper->getU64("termination_streak", 3000);
    config.search.maxEvaluations =
        mapper->getU64("max_evaluations", 0);
    config.search.seed = mapper->getU64("seed", 42);
    const std::uint64_t threads = mapper->getU64("threads", 1);
    RUBY_CHECK(threads <= 4096, mapper->at("threads").where(),
               ": threads ", threads, " exceeds the cap of 4096");
    config.search.threads = static_cast<unsigned>(threads);
    const std::uint64_t restarts = mapper->getU64("restarts", 1);
    RUBY_CHECK(restarts >= 1 && restarts <= 4096,
               mapper->at("restarts").where(),
               ": restarts must be in [1, 4096], got ", restarts);
    config.search.restarts = static_cast<unsigned>(restarts);
    config.search.timeBudget = std::chrono::milliseconds(
        mapper->getU64("time_budget_ms", 0));
    config.search.networkTimeBudget = std::chrono::milliseconds(
        mapper->getU64("network_time_budget_ms", 0));
    return config;
}

Mapper
loadMapper(const std::string &text)
{
    const JsonValue root = parseYaml(text);
    return Mapper(loadProblem(root), loadArchSpec(root),
                  loadMapperConfig(root));
}

} // namespace ruby
