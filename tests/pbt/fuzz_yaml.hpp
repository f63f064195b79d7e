/**
 * @file
 * Config-text generation and mutation for the YAML front-end fuzzer.
 *
 * The daemon parses the YAML config of every map request it admits,
 * so parseYaml and the loaders face remote input. Cases come from two
 * sources: the shipped tools/configs texts, mutated line- and
 * byte-wise (indentation shifts, spliced and duplicated lines,
 * pathological scalars, damaged bytes), and random block/flow trees
 * with random indentation, sometimes nested past the depth limit.
 */

#ifndef RUBY_TESTS_PBT_FUZZ_YAML_HPP
#define RUBY_TESTS_PBT_FUZZ_YAML_HPP

#include <algorithm>
#include <string>
#include <vector>

#include "ruby/common/rng.hpp"

namespace ruby
{
namespace pbt
{

namespace detail
{

/** Scalars that probe the typing and integer rules. */
inline const char *
edgeScalar(Rng &rng)
{
    static const char *kScalars[] = {
        "-1", "18446744073709551616", "18446744073709551615", "1e999",
        "-0", "007", "+5", ".5", "1.", "0x10", "nan", "inf", "\"64\"",
        "'x'", "\"", "yes", "off", "True", "", "[", "]", "[]", "[1,,2]",
        "[1, [2]]", "a: b", "- x", "#", "4294967297", "0", "99999999999",
        "\"a # b\"", "ruby-s", "eyeriss-rs", "conv", "gemm", "vector",
    };
    return kScalars[rng.below(sizeof(kScalars) / sizeof(kScalars[0]))];
}

inline std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string line;
    for (const char c : text) {
        if (c == '\n') {
            lines.push_back(line);
            line.clear();
        } else {
            line.push_back(c);
        }
    }
    lines.push_back(line);
    return lines;
}

inline std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &line : lines)
        out += line + "\n";
    return out;
}

} // namespace detail

/** Mutate a config text; @p other feeds the splicing mutators. */
inline std::string
mutateConfig(Rng &rng, const std::string &text, const std::string &other)
{
    std::vector<std::string> lines = detail::splitLines(text);
    const std::vector<std::string> donor = detail::splitLines(other);
    auto pick = [&]() -> std::string & {
        return lines[rng.below(lines.size())];
    };
    switch (rng.below(8)) {
      case 0: { // shift one line's indentation
        std::string &line = pick();
        const std::size_t shift = rng.between(1, 6);
        if (rng.below(2) == 0)
            line.insert(0, shift, ' ');
        else
            line.erase(0, std::min(shift, line.size()));
        break;
      }
      case 1: { // replace a value with an edge-case scalar
        std::string &line = pick();
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos)
            line = line.substr(0, colon + 1) + " " +
                   detail::edgeScalar(rng);
        else
            line += detail::edgeScalar(rng);
        break;
      }
      case 2: { // splice in a line of the other config
        const std::size_t at = rng.below(lines.size() + 1);
        lines.insert(lines.begin() + static_cast<long>(at),
                     donor[rng.below(donor.size())]);
        break;
      }
      case 3: { // duplicate or delete a line
        const std::size_t at = rng.below(lines.size());
        if (rng.below(2) == 0)
            lines.insert(lines.begin() + static_cast<long>(at),
                         lines[at]);
        else if (lines.size() > 1)
            lines.erase(lines.begin() + static_cast<long>(at));
        break;
      }
      case 4: { // damage bytes, favouring YAML syntax characters
        static const char kSyntax[] = ":-[],\"'# \t\r";
        std::string out = detail::joinLines(lines);
        const std::uint64_t hits = rng.between(1, 8);
        for (std::uint64_t i = 0; i < hits && !out.empty(); ++i)
            out[rng.below(out.size())] =
                rng.below(2) == 0
                    ? kSyntax[rng.below(sizeof(kSyntax) - 1)]
                    : static_cast<char>(rng.below(256));
        return out;
      }
      case 5: { // truncate
        std::string out = detail::joinLines(lines);
        out.resize(rng.below(out.size() + 1));
        return out;
      }
      case 6: { // turn a line into a sequence item
        std::string &line = pick();
        const std::size_t indent = line.find_first_not_of(' ');
        line.insert(indent == std::string::npos ? 0 : indent, "- ");
        break;
      }
      default: { // stacked mutations
        std::string out = mutateConfig(rng, text, other);
        return mutateConfig(rng, out, other);
      }
    }
    return detail::joinLines(lines);
}

namespace detail
{

/** Emit one block node; @p budget caps the entries of the tree. */
inline void
genNode(Rng &rng, std::string &out, int indent, int depth, int maxDepth,
        int &budget)
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    const std::uint64_t entries = rng.between(1, 3);
    const bool sequence = rng.below(2) == 0;
    for (std::uint64_t e = 0; e < entries && budget > 0; ++e) {
        --budget;
        out += pad;
        out += sequence ? "- " : "k" + std::to_string(rng.below(4)) + ": ";
        // Past the nesting limit, the first entry always nests.
        const bool chain = maxDepth > 64 && e == 0 && depth < maxDepth;
        const std::uint64_t kind =
            chain ? 2 : depth >= maxDepth ? rng.below(2) : rng.below(4);
        if (kind == 0) {
            out += edgeScalar(rng);
            out += "\n";
        } else if (kind == 1) {
            out += "[";
            const std::uint64_t items = rng.below(4);
            for (std::uint64_t i = 0; i < items; ++i)
                out += (i > 0 ? ", " : "") + std::string(edgeScalar(rng));
            out += "]\n";
        } else {
            // A nested block, usually indented further, sometimes not.
            out += "\n";
            const int step = static_cast<int>(rng.below(5)) - 1;
            genNode(rng, out, std::max(0, indent + step), depth + 1,
                    maxDepth, budget);
        }
    }
}

} // namespace detail

/**
 * A random block/flow tree. The depth cap sometimes exceeds the
 * parsers' nesting limit so the limit itself is exercised.
 */
inline std::string
genYamlTree(Rng &rng)
{
    std::string out;
    const int maxDepth = rng.below(8) == 0 ? 80 : 6;
    int budget = 200;
    detail::genNode(rng, out, static_cast<int>(rng.below(3)), 0,
                    maxDepth, budget);
    return out;
}

} // namespace pbt
} // namespace ruby

#endif // RUBY_TESTS_PBT_FUZZ_YAML_HPP
