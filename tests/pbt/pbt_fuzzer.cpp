/**
 * @file
 * ruby-pbt-fuzz: the standalone fuzz driver for the CI fuzz job.
 *
 * Modes:
 *   codec    — NDJSON parser/writer: mutated byte strings must either
 *              parse or throw ruby::Error; parsed documents must
 *              reach a write/parse fixpoint. Nothing else may escape.
 *   protocol — mutated wire frames through parseJson + parseRequest:
 *              same contract (ruby::Error or success, never a crash).
 *   wire     — the in-process server storm of wire_fuzz.hpp under a
 *              wall-clock budget, including the admission-slot leak
 *              check.
 *   yaml     — mutated tools/configs texts and random block/flow
 *              trees through parseYaml and the loaders (the daemon's
 *              path for a map request's config): each must load or
 *              throw ruby::Error, parse to a tree that writes valid
 *              JSON, and finish promptly.
 *
 * Usage: ruby-pbt-fuzz --mode codec|protocol|wire|yaml
 *                      [--budget-ms N] [--seed S] [--replay FILE]
 *
 * Every failure prints the case seed; rerunning with --seed <that
 * seed> --budget-ms 0 replays exactly one case. --replay feeds one
 * corpus file (raw frame bytes, newline-stripped) through the codec
 * and protocol stacks instead of generating cases.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz_frames.hpp"
#include "fuzz_yaml.hpp"
#include "pbt.hpp"
#include "ruby/common/error.hpp"
#include "ruby/io/loaders.hpp"
#include "ruby/serve/json.hpp"
#include "ruby/serve/protocol.hpp"
#include "wire_fuzz.hpp"

#ifndef RUBY_CONFIGS_DIR
#error "RUBY_CONFIGS_DIR must point at tools/configs"
#endif

namespace
{

using namespace ruby;

struct FuzzArgs
{
    std::string mode;
    int budgetMs = 20'000;
    std::uint64_t seed = 1;
    bool seedPinned = false; ///< --seed given: replay one case
    std::string replayFile;
    bool fleet = false; ///< wire mode: storm a router-fronted fleet
};

int
usage()
{
    std::cerr << "usage: ruby-pbt-fuzz --mode codec|protocol|wire|yaml "
                 "[--budget-ms N] [--seed S] [--replay FILE] "
                 "[--fleet]\n";
    return 2;
}

/**
 * One codec case: a valid frame, mutated, thrown at the parser. Only
 * ruby::Error may escape; a successful parse must be a fixpoint
 * under write/parse/write.
 */
std::optional<std::string>
codecCase(std::uint64_t caseSeed)
{
    Rng rng(caseSeed);
    const std::string seedFrame = pbt::genFuzzSeedFrame(rng);
    const std::string other = pbt::genFuzzSeedFrame(rng);
    const std::string mutated =
        pbt::mutateFrame(rng, seedFrame, other, 4096);
    try {
        const serve::JsonValue parsed = serve::parseJson(mutated);
        const std::string once = serve::writeJson(parsed);
        const std::string twice =
            serve::writeJson(serve::parseJson(once));
        if (twice != once)
            return "write/parse fixpoint broken:\n  once:  " + once +
                   "\n  twice: " + twice;
    } catch (const Error &) {
        // Structured rejection is the expected path.
    }
    return std::nullopt;
}

/** One protocol case: mutated frame through parseJson+parseRequest. */
std::optional<std::string>
protocolCase(std::uint64_t caseSeed)
{
    Rng rng(caseSeed);
    const std::string seedFrame = pbt::genFuzzSeedFrame(rng);
    const std::string other = pbt::genFuzzSeedFrame(rng);
    const std::string mutated =
        pbt::mutateFrame(rng, seedFrame, other, 4096);
    try {
        const serve::JsonValue parsed = serve::parseJson(mutated);
        (void)serve::parseRequest(parsed);
    } catch (const Error &) {
        // Structured rejection is the expected path.
    }
    return std::nullopt;
}

/** The shipped example configs: the YAML mode's mutation seeds. */
const std::vector<std::string> &
shippedConfigs()
{
    static const std::vector<std::string> texts = [] {
        std::vector<std::string> out;
        for (const char *name : {"tutorial.yaml", "simba.yaml"}) {
            std::ifstream in(std::string(RUBY_CONFIGS_DIR) + "/" + name);
            std::ostringstream text;
            text << in.rdbuf();
            out.push_back(text.str());
        }
        return out;
    }();
    return texts;
}

/**
 * One YAML case: a mutated shipped config or a random tree, through
 * parseYaml and loadMapper. Only ruby::Error may escape; a parsed
 * tree must write JSON that parseJson reads back to the same bytes
 * (so every YAML Number holds a valid number token); no case may
 * take more than a few seconds.
 */
std::optional<std::string>
yamlCase(std::uint64_t caseSeed)
{
    Rng rng(caseSeed);
    const std::vector<std::string> &configs = shippedConfigs();
    const std::string &seed = configs[rng.below(configs.size())];
    const std::string &other = configs[rng.below(configs.size())];
    const std::string text = rng.below(4) == 0
                                 ? pbt::genYamlTree(rng)
                                 : pbt::mutateConfig(rng, seed, other);
    const auto start = std::chrono::steady_clock::now();
    try {
        const std::string once = writeJson(parseYaml(text));
        const std::string twice = writeJson(parseJson(once));
        if (twice != once)
            return "YAML tree does not round-trip through JSON:\n  "
                   "once:  " +
                   once + "\n  twice: " + twice;
        (void)loadMapper(text);
    } catch (const Error &) {
        // Structured rejection is the expected path.
    }
    if (std::chrono::steady_clock::now() - start >
        std::chrono::seconds(5))
        return "case took over 5 s (hang?) on:\n" + text;
    return std::nullopt;
}

int
runGenerated(const FuzzArgs &args)
{
    auto runCase = args.mode == "codec"      ? codecCase
                   : args.mode == "protocol" ? protocolCase
                                             : yamlCase;
    const auto startedAt = std::chrono::steady_clock::now();
    std::uint64_t cases = 0;
    for (std::uint64_t i = 0;; ++i) {
        const std::uint64_t caseSeed =
            args.seedPinned && args.budgetMs == 0
                ? args.seed
                : pbt::scramble(args.seed + i);
        std::optional<std::string> failure;
        try {
            failure = runCase(caseSeed);
        } catch (const std::exception &e) {
            failure = std::string("unexpected exception escaped: ") +
                      e.what();
        }
        ++cases;
        if (failure) {
            std::cerr << args.mode << " fuzzer failed at case seed "
                      << caseSeed << ":\n  " << *failure
                      << "\n  replay: ruby-pbt-fuzz --mode "
                      << args.mode << " --seed " << caseSeed
                      << " --budget-ms 0\n";
            return 1;
        }
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - startedAt)
                .count();
        if (args.budgetMs == 0 || elapsed >= args.budgetMs)
            break;
    }
    std::cout << args.mode << " fuzzer: " << cases
              << " cases, no failures (base seed " << args.seed
              << ")\n";
    return 0;
}

int
runWire(const FuzzArgs &args)
{
    pbt::WireFuzzConfig config;
    config.seed = args.seed;
    config.connections = args.budgetMs == 0 ? 1 : 0;
    config.budgetMs = args.budgetMs;
    config.fleet = args.fleet;
    const std::optional<std::string> failure =
        pbt::runWireFuzz(config);
    if (failure) {
        std::cerr << "wire fuzzer failed:\n  " << *failure << "\n";
        return 1;
    }
    std::cout << (args.fleet ? "fleet " : "") << "wire fuzzer: survived "
              << (args.budgetMs == 0
                      ? std::string("1 connection")
                      : std::to_string(args.budgetMs) + " ms")
              << " (base seed " << args.seed << ")\n";
    return 0;
}

/** Replay one corpus file through the codec + protocol stacks. */
int
runReplay(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "cannot read corpus file: " << path << "\n";
        return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string frame = buffer.str();
    while (!frame.empty() &&
           (frame.back() == '\n' || frame.back() == '\r'))
        frame.pop_back();
    try {
        const serve::JsonValue parsed = serve::parseJson(frame);
        (void)serve::parseRequest(parsed);
    } catch (const Error &) {
        // Structured rejection is a pass.
    } catch (const std::exception &e) {
        std::cerr << "corpus case " << path
                  << " escaped the error contract: " << e.what()
                  << "\n";
        return 1;
    }
    std::cout << "corpus case " << path << " ok\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--mode") {
            const char *v = value();
            if (v == nullptr)
                return usage();
            args.mode = v;
        } else if (arg == "--budget-ms") {
            const char *v = value();
            if (v == nullptr)
                return usage();
            args.budgetMs = std::atoi(v);
        } else if (arg == "--seed") {
            const char *v = value();
            if (v == nullptr)
                return usage();
            args.seed = std::strtoull(v, nullptr, 10);
            args.seedPinned = true;
        } else if (arg == "--replay") {
            const char *v = value();
            if (v == nullptr)
                return usage();
            args.replayFile = v;
        } else if (arg == "--fleet") {
            args.fleet = true;
        } else {
            return usage();
        }
    }
    if (!args.replayFile.empty())
        return runReplay(args.replayFile);
    if (args.mode == "codec" || args.mode == "protocol" ||
        args.mode == "yaml")
        return runGenerated(args);
    if (args.mode == "wire")
        return runWire(args);
    return usage();
}
