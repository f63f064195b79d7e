/**
 * @file
 * Tests for parseYaml, the configuration front end of the value tree:
 * the YAML subset, its scalar typing, its line-numbered errors, its
 * nesting limit, and parity with parseJson on the shipped configs.
 */

#include "ruby/io/json.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>

#include "ruby/common/error.hpp"

#ifndef RUBY_CONFIGS_DIR
#error "RUBY_CONFIGS_DIR must point at tools/configs"
#endif

namespace ruby
{
namespace
{

/** The message of the ruby::Error @p fn throws ("" if none). */
template <typename Fn>
std::string
errorOf(Fn &&fn)
{
    try {
        fn();
    } catch (const Error &e) {
        return e.what();
    }
    return "";
}

TEST(Yaml, ScalarsAndTypes)
{
    const JsonValue root = parseYaml(
        "count: 42\n"
        "ratio: 2.5\n"
        "flag: true\n"
        "off: no\n"
        "name: hello world\n"
        "quoted: \"a: b # c\"\n");
    EXPECT_EQ(root.at("count").asU64(), 42u);
    EXPECT_DOUBLE_EQ(root.at("ratio").asDouble(), 2.5);
    EXPECT_TRUE(root.at("flag").asBool());
    EXPECT_FALSE(root.at("off").asBool());
    EXPECT_EQ(root.at("name").asString(), "hello world");
    EXPECT_EQ(root.at("quoted").asString(), "a: b # c");
}

TEST(Yaml, NestedMaps)
{
    const JsonValue root = parseYaml(
        "outer:\n"
        "  inner:\n"
        "    leaf: 7\n"
        "  sibling: x\n");
    EXPECT_EQ(root.at("outer").at("inner").at("leaf").asU64(), 7u);
    EXPECT_EQ(root.at("outer").at("sibling").asString(), "x");
    const JsonValue &outer = root.at("outer");
    ASSERT_EQ(outer.object.size(), 2u);
    EXPECT_EQ(outer.object[0].first, "inner");
    EXPECT_EQ(outer.object[1].first, "sibling");
}

TEST(Yaml, BlockSequences)
{
    const JsonValue root = parseYaml(
        "items:\n"
        "  - 1\n"
        "  - 2\n"
        "  - 3\n");
    const JsonValue &items = root.at("items");
    ASSERT_EQ(items.type, JsonType::Array);
    ASSERT_EQ(items.array.size(), 3u);
    EXPECT_EQ(items.array[0].asU64(), 1u);
    EXPECT_EQ(items.array[2].asU64(), 3u);
}

TEST(Yaml, SequenceOfMaps)
{
    const JsonValue root = parseYaml(
        "levels:\n"
        "  - name: spad\n"
        "    capacity: 224\n"
        "  - name: dram\n");
    const JsonValue &levels = root.at("levels");
    ASSERT_EQ(levels.array.size(), 2u);
    EXPECT_EQ(levels.array[0].at("name").asString(), "spad");
    EXPECT_EQ(levels.array[0].at("capacity").asU64(), 224u);
    EXPECT_EQ(levels.array[1].at("name").asString(), "dram");
    EXPECT_EQ(levels.array[1].find("capacity"), nullptr);
}

TEST(Yaml, FlowSequences)
{
    const JsonValue root = parseYaml(
        "caps: [224, 12, 16]\n"
        "empty: []\n");
    const JsonValue &caps = root.at("caps");
    ASSERT_EQ(caps.array.size(), 3u);
    EXPECT_EQ(caps.array[1].asU64(), 12u);
    EXPECT_EQ(root.at("empty").type, JsonType::Array);
    EXPECT_EQ(root.at("empty").array.size(), 0u);
}

TEST(Yaml, CommentsAndBlankLines)
{
    const JsonValue root = parseYaml(
        "# full-line comment\n"
        "\n"
        "a: 1  # trailing comment\n"
        "\n"
        "b: 2\n");
    EXPECT_EQ(root.at("a").asU64(), 1u);
    EXPECT_EQ(root.at("b").asU64(), 2u);
}

TEST(Yaml, GettersWithDefaults)
{
    const JsonValue root = parseYaml("present: 5\n");
    EXPECT_EQ(root.getU64("present", 9), 5u);
    EXPECT_EQ(root.getU64("absent", 9), 9u);
    EXPECT_DOUBLE_EQ(root.getDouble("present", 1.5), 5.0);
    EXPECT_DOUBLE_EQ(root.getDouble("absent", 1.5), 1.5);
    EXPECT_TRUE(root.getBool("absent", true));
    EXPECT_EQ(root.getString("absent", "dflt"), "dflt");
}

TEST(Yaml, ErrorsNameTheLine)
{
    // A node's line is the line of the key or dash that introduced it.
    const JsonValue root = parseYaml("a:\n  b: x\n");
    EXPECT_EQ(errorOf([&] { root.at("a").at("missing"); }),
              "config line 1: missing required key 'missing'");
    EXPECT_EQ(errorOf([&] { root.at("a").at("b").asU64(); }),
              "config line 2: expected number, got string");
    EXPECT_EQ(errorOf([&] { parseYaml("\n\nn: -1\n").at("n").asU64(); }),
              "config line 3: '-1' is not an unsigned 64-bit integer");
    // Values that built with parseJson keep the wire's prefix.
    EXPECT_EQ(errorOf([] { parseJson("{\"b\":\"x\"}").at("b").asU64(); }),
              "json: expected number, got string");
}

TEST(Yaml, RejectsMalformedInput)
{
    EXPECT_THROW(parseYaml("a: 1\n\tb: 2\n"), Error); // tab
    EXPECT_THROW(parseYaml("justtext\n"), Error);
    EXPECT_THROW(parseYaml("a: 1\na: 2\n"), Error); // dup
    EXPECT_THROW(parseYaml("a: [1, 2\n"), Error);   // open flow
    EXPECT_THROW(parseYaml("a: 1\n    stray: 2\n"), Error);
}

TEST(Yaml, EmptyDocumentIsNull)
{
    const JsonValue root = parseYaml("# nothing here\n");
    EXPECT_TRUE(root.isNull());
}

TEST(Yaml, NullValuesForBareKeys)
{
    const JsonValue root = parseYaml("a:\nb: 1\n");
    EXPECT_TRUE(root.at("a").isNull());
    EXPECT_EQ(root.at("b").asU64(), 1u);
}

/** The type and raw token parseYaml gives the plain scalar @p text. */
JsonValue
scalar(const std::string &text)
{
    return parseYaml("v: " + text + "\n").at("v");
}

TEST(Yaml, ScalarTyping)
{
    // Quoting forces a string; a plain number token is a Number.
    EXPECT_EQ(scalar("64").type, JsonType::Number);
    EXPECT_EQ(scalar("64").asU64(), 64u);
    EXPECT_EQ(scalar("\"64\"").type, JsonType::String);
    EXPECT_EQ(scalar("\"64\"").asString(), "64");
    EXPECT_EQ(scalar("'64'").asString(), "64");
    EXPECT_THROW(scalar("\"64\"").asU64(), Error);

    // Exactly the words true|yes|on and false|no|off are Bool.
    for (const char *word : {"true", "yes", "on"})
        EXPECT_TRUE(scalar(word).asBool()) << word;
    for (const char *word : {"false", "no", "off"})
        EXPECT_FALSE(scalar(word).asBool()) << word;
    EXPECT_EQ(scalar("True").type, JsonType::String);
    EXPECT_EQ(scalar("\"yes\"").type, JsonType::String);

    // Negative numbers are Numbers that no unsigned getter accepts.
    EXPECT_EQ(scalar("-1").type, JsonType::Number);
    EXPECT_EQ(scalar("-1").asI64(), -1);
    EXPECT_THROW(scalar("-1").asU64(), Error);
    EXPECT_THROW(scalar("18446744073709551616").asU64(), Error);
    EXPECT_EQ(scalar("18446744073709551615").asU64(),
              18446744073709551615u);

    // Outside the JSON number grammar: strings, so no number getter.
    for (const char *text : {"+5", ".5", "0x10", "inf", "nan", "1."}) {
        EXPECT_EQ(scalar(text).type, JsonType::String) << text;
        EXPECT_THROW(scalar(text).asDouble(), Error) << text;
    }

    // The grammar tolerates leading zeros, exactly like parseJson.
    EXPECT_EQ(scalar("007").type, JsonType::Number);
    EXPECT_EQ(scalar("007").number, "007");
    EXPECT_EQ(scalar("007").asU64(), 7u);

    // An exponent is a Number, but not an integer.
    EXPECT_EQ(scalar("1e3").type, JsonType::Number);
    EXPECT_DOUBLE_EQ(scalar("1e3").asDouble(), 1000.0);
    EXPECT_THROW(scalar("1e3").asU64(), Error);

    // Flow-sequence items follow the same rule.
    const JsonValue flow = scalar("[1, \"2\", x, yes]");
    EXPECT_EQ(flow.array[0].type, JsonType::Number);
    EXPECT_EQ(flow.array[1].type, JsonType::String);
    EXPECT_EQ(flow.array[2].type, JsonType::String);
    EXPECT_EQ(flow.array[3].type, JsonType::Bool);
}

/** A YAML document of @p depth nested single-key maps. */
std::string
nestedYaml(int depth)
{
    std::string doc;
    for (int d = 0; d < depth; ++d)
        doc += std::string(static_cast<std::size_t>(2 * d), ' ') +
               (d + 1 < depth ? "a:\n" : "a: 1\n");
    return doc;
}

/** The same shape as JSON: {"a":{"a":...{"a":1}}}. */
std::string
nestedJson(int depth)
{
    std::string doc;
    for (int d = 0; d < depth; ++d)
        doc += "{\"a\":";
    doc += "1";
    for (int d = 0; d < depth; ++d)
        doc += "}";
    return doc;
}

TEST(Yaml, NestingLimitMatchesJson)
{
    EXPECT_NO_THROW(parseYaml(nestedYaml(kMaxJsonDepth)));
    EXPECT_NO_THROW(parseJson(nestedJson(kMaxJsonDepth)));
    EXPECT_EQ(errorOf([] { parseYaml(nestedYaml(kMaxJsonDepth + 1)); }),
              "config line 65: nesting too deep");
    EXPECT_THROW(parseJson(nestedJson(kMaxJsonDepth + 1)), Error);

    // Sequences count too.
    std::string seq;
    for (int d = 0; d <= kMaxJsonDepth; ++d)
        seq += std::string(static_cast<std::size_t>(2 * d), ' ') +
               "- \n";
    EXPECT_THROW(parseYaml(seq), Error);
}

TEST(Yaml, WideMapsParseInLinearTime)
{
    // Both parsers check each key against the ones before it; a scan
    // of the object per key made this 60,000-key map take seconds.
    constexpr int kKeys = 60000;
    std::string yaml, json = "{";
    for (int i = 0; i < kKeys; ++i) {
        yaml += "k" + std::to_string(i) + ": 1\n";
        json += (i == 0 ? "\"k" : ",\"k") + std::to_string(i) + "\":1";
    }
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(parseYaml(yaml).object.size(), std::size_t{kKeys});
    EXPECT_EQ(parseJson(json + "}").object.size(), std::size_t{kKeys});
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(3));
    // The last key repeating the first is still caught.
    EXPECT_EQ(errorOf([&] { parseYaml(yaml + "k0: 2\n"); }),
              "config line " + std::to_string(kKeys + 1) +
                  ": duplicate key 'k0'");
    EXPECT_THROW(parseJson(json + ",\"k0\":2}"), Error);
}

#if defined(__x86_64__)
TEST(Yaml, SourceLinesDoNotGrowTheNode)
{
    // A one-byte JsonType leaves room for the 32-bit line in padding.
    EXPECT_LE(sizeof(JsonValue), 120u);
}
#endif

std::string
readConfig(const std::string &name)
{
    std::ifstream in(std::string(RUBY_CONFIGS_DIR) + "/" + name);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(Yaml, ShippedConfigsMatchTheirJsonSpelling)
{
    const std::pair<const char *, const char *> cases[] = {
        {"tutorial.yaml", R"({
"architecture":{"name":"tutorial-12pe","word_bits":16,"levels":[
  {"name":"RegFile","capacity_words":64,"bandwidth":8},
  {"name":"GLB","capacity_words":65536,"bandwidth":48,
   "fanout_x":4,"fanout_y":3},
  {"name":"DRAM","backing_store":true,"bandwidth":16}]},
"workload":{"type":"conv","name":"pointwise_100x200",
  "c":100,"m":200,"p":13,"q":13},
"mapper":{"mapspace":"ruby-s","objective":"edp",
  "termination_streak":800,"max_evaluations":30000,"seed":7}})"},
        {"simba.yaml", R"({
"architecture":{"name":"simba-15pe","word_bits":16,"levels":[
  {"name":"PEbuf","per_tensor_capacity":[16384,4096,1536],
   "bandwidth":96,"fanout_x":4,"fanout_y":4},
  {"name":"GLB","capacity_words":32768,"bandwidth":16,
   "fanout_x":15,"fanout_y":1},
  {"name":"DRAM","backing_store":true,"bandwidth":16}]},
"workload":{"type":"conv","name":"resnet50_conv3_1",
  "c":256,"m":128,"p":28,"q":28,"r":1,"s":1},
"mapper":{"mapspace":"ruby-s","constraints":"simba","objective":"edp",
  "termination_streak":1000,"max_evaluations":30000,"seed":11}})"},
    };
    for (const auto &[file, json] : cases) {
        const std::string text = readConfig(file);
        ASSERT_FALSE(text.empty()) << file;
        EXPECT_EQ(writeJson(parseYaml(text)),
                  writeJson(parseJson(json)))
            << file;
    }
}

} // namespace
} // namespace ruby
