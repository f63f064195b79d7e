#include "ruby/io/loaders.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "ruby/arch/presets.hpp"
#include "ruby/common/error.hpp"
#include "ruby/io/report.hpp"
#include "ruby/workload/conv.hpp"

namespace ruby
{
namespace
{

const char *kEyerissDoc = R"(
architecture:
  name: eyeriss-from-config
  word_bits: 16
  levels:
    - name: PEspad
      per_tensor_capacity: [224, 12, 16]
      bandwidth: 6
    - name: GLB
      capacity_words: 65536
      bandwidth: 16
      fanout_x: 14
      fanout_y: 12
    - name: DRAM
      backing_store: true
      bandwidth: 16
)";

TEST(Loaders, ArchitectureMatchesPreset)
{
    const JsonValue root = parseYaml(kEyerissDoc);
    const ArchSpec arch = loadArchSpec(root);
    const ArchSpec preset = makeEyeriss();
    EXPECT_EQ(arch.name(), "eyeriss-from-config");
    EXPECT_EQ(arch.numLevels(), preset.numLevels());
    EXPECT_EQ(arch.totalMacs(), preset.totalMacs());
    EXPECT_EQ(arch.level(1).capacityWords,
              preset.level(1).capacityWords);
    EXPECT_EQ(arch.level(0).perTensorCapacity,
              preset.level(0).perTensorCapacity);
    // Derived energy matches the analytic model used by presets.
    EXPECT_NEAR(arch.level(1).readEnergy, preset.level(1).readEnergy,
                1e-9);
}

TEST(Loaders, ConvWorkload)
{
    const JsonValue root = parseYaml(R"(
workload:
  type: conv
  name: test_layer
  c: 32
  m: 64
  p: 14
  q: 14
  r: 3
  s: 3
  stride: [2, 2]
)");
    const Problem prob = loadProblem(root);
    EXPECT_EQ(prob.name(), "test_layer");
    EXPECT_EQ(prob.dimSize(CONV_C), 32u);
    EXPECT_EQ(prob.dimSize(CONV_P), 14u);
    // Stride shows up in the input halo: H = 2*13 + 2 + 1 = 29.
    EXPECT_EQ(prob.tensorSize(CONV_INPUTS), 1u * 32 * 29 * 29);
}

TEST(Loaders, GemmAndVectorWorkloads)
{
    const Problem gemm = loadProblem(parseYaml(
        "workload:\n  type: gemm\n  m: 8\n  n: 9\n  k: 10\n"));
    EXPECT_EQ(gemm.totalOperations(), 720u);
    const Problem vec = loadProblem(parseYaml(
        "workload:\n  type: vector\n  d: 127\n"));
    EXPECT_EQ(vec.totalOperations(), 127u);
}

TEST(Loaders, MapperConfigDefaultsAndOverrides)
{
    const MapperConfig dflt =
        loadMapperConfig(parseYaml("a: 1\n"));
    EXPECT_EQ(dflt.variant, MapspaceVariant::RubyS);
    EXPECT_EQ(dflt.preset, ConstraintPreset::None);

    const MapperConfig cfg = loadMapperConfig(parseYaml(R"(
mapper:
  mapspace: ruby-t
  objective: delay
  constraints: eyeriss-rs
  termination_streak: 77
  max_evaluations: 123
  seed: 9
  pad: true
)"));
    EXPECT_EQ(cfg.variant, MapspaceVariant::RubyT);
    EXPECT_EQ(cfg.search.objective, Objective::Delay);
    EXPECT_EQ(cfg.preset, ConstraintPreset::EyerissRS);
    EXPECT_EQ(cfg.search.terminationStreak, 77u);
    EXPECT_EQ(cfg.search.maxEvaluations, 123u);
    EXPECT_EQ(cfg.search.seed, 9u);
    EXPECT_TRUE(cfg.pad);
}

TEST(Loaders, EndToEndMapperFromText)
{
    std::string doc = kEyerissDoc;
    doc += R"(
workload:
  type: conv
  name: pointwise
  c: 64
  m: 256
  p: 14
  q: 14
mapper:
  mapspace: ruby-s
  constraints: eyeriss-rs
  termination_streak: 400
  max_evaluations: 8000
)";
    Mapper mapper = loadMapper(doc);
    const MapperResult res = mapper.run();
    ASSERT_TRUE(res.found);
    EXPECT_TRUE(res.eval.valid);
}

TEST(Loaders, RejectsBadDocuments)
{
    // Backing store not last.
    EXPECT_THROW(loadArchSpec(parseYaml(R"(
architecture:
  levels:
    - name: DRAM
      backing_store: true
    - name: GLB
      capacity_words: 64
)")),
                 Error);
    // Unknown workload type.
    EXPECT_THROW(loadProblem(parseYaml(
                     "workload:\n  type: fft\n")),
                 Error);
    // Unknown enum values.
    EXPECT_THROW(parseVariant("rubyx"), Error);
    EXPECT_THROW(parseObjective("speed"), Error);
    EXPECT_THROW(parsePreset("tpu"), Error);
    // Missing required sections.
    EXPECT_THROW(loadMapper("mapper:\n  mapspace: pfm\n"), Error);
}

TEST(Loaders, OptionalSectionsMustHaveTheirShape)
{
    // A mapper section that is not a map (a scalar, a list, or a bare
    // key whose settings lost their indentation) must not fall back to
    // every default.
    for (const char *doc :
         {"mapper: ruby-t\n", "mapper: [a]\n", "mapper:\nseed: 7\n"}) {
        try {
            loadMapperConfig(parseYaml(doc));
            ADD_FAILURE() << "accepted: " << doc;
        } catch (const Error &e) {
            EXPECT_STREQ(e.what(), "config line 1: expected a map") << doc;
        }
    }
    try {
        loadArchSpec(parseYaml(R"(
architecture:
  levels:
    - name: RF
      per_tensor_capacity: 64
    - name: DRAM
)"));
        ADD_FAILURE() << "accepted a scalar per_tensor_capacity";
    } catch (const Error &e) {
        EXPECT_STREQ(e.what(), "config line 5: expected a sequence");
    }
}

TEST(Report, YamlRoundTripsThroughParser)
{
    const Problem prob = makeVector1D(100);
    const ArchSpec arch = makeToyGlb(6);
    const Evaluator eval(prob, arch);
    std::vector<std::vector<std::uint64_t>> steady{
        {1, 1, 5, 20, 1, 1}};
    std::vector<std::vector<DimId>> perms(3, std::vector<DimId>{0});
    std::vector<std::vector<char>> keep(3, std::vector<char>(2, 1));
    const Mapping m(prob, arch, steady, perms, keep);
    const EvalResult res = eval.evaluate(m);
    ASSERT_TRUE(res.valid);

    std::ostringstream oss;
    writeResultYaml(oss, prob, arch, res);
    const JsonValue parsed = parseYaml(oss.str());
    const JsonValue &r = parsed.at("result");
    EXPECT_EQ(r.at("macs").asU64(), 100u);
    EXPECT_TRUE(r.at("valid").asBool());
    EXPECT_EQ(r.at("levels").array.size(), 3u);
    EXPECT_EQ(r.at("levels").array[0].at("tensors").array.size(), 2u);
    EXPECT_NEAR(r.at("edp").asDouble(), res.edp, 1e-6 * res.edp);
    // Every metric parses back as a Number node, not a string.
    for (const char *metric :
         {"macs", "energy_pj", "cycles", "edp", "utilization"})
        EXPECT_EQ(r.at(metric).type, JsonType::Number) << metric;
    for (const JsonValue &level : r.at("levels").array) {
        EXPECT_EQ(level.at("energy_pj").type, JsonType::Number);
        for (const JsonValue &tensor : level.at("tensors").array) {
            EXPECT_EQ(tensor.at("reads").type, JsonType::Number);
            EXPECT_EQ(tensor.at("writes").type, JsonType::Number);
        }
    }
}

TEST(Report, HumanReadableReportMentionsEverything)
{
    const Problem prob = makeVector1D(100);
    const ArchSpec arch = makeToyGlb(6);
    const Evaluator eval(prob, arch);
    std::vector<std::vector<std::uint64_t>> steady{
        {1, 1, 6, 17, 1, 1}};
    std::vector<std::vector<DimId>> perms(3, std::vector<DimId>{0});
    std::vector<std::vector<char>> keep(3, std::vector<char>(2, 1));
    const Mapping m(prob, arch, steady, perms, keep);
    const EvalResult res = eval.evaluate(m);

    std::ostringstream oss;
    printReport(oss, prob, arch, res);
    const std::string s = oss.str();
    EXPECT_NE(s.find("GLB"), std::string::npos);
    EXPECT_NE(s.find("utilization"), std::string::npos);
    EXPECT_NE(s.find("EDP"), std::string::npos);

    // Invalid results report the reason instead.
    const EvalResult bad = eval.evaluate(Mapping(
        prob, arch, {{1, 1, 10, 10, 1, 1}}, perms, keep));
    std::ostringstream oss2;
    printReport(oss2, prob, arch, bad);
    EXPECT_NE(oss2.str().find("INVALID"), std::string::npos);
}

} // namespace
} // namespace ruby
