/**
 * @file
 * Seeded case generators for the property-based tests.
 *
 * The schema is deliberately small — one- to seven-dimensional
 * workloads, two- or three-level architectures, a handful of PEs —
 * so cross-feature interactions (ragged chains x bypass x spatial
 * axes x admission) show up within tens of cases rather than
 * thousands. Cases are plain data: a case describes *how to build*
 * the problem/arch/mapping rather than holding built objects, which
 * keeps cases copyable (Mapping borrows its Problem), shrinkable and
 * printable.
 */

#ifndef RUBY_TESTS_PBT_GENERATORS_HPP
#define RUBY_TESTS_PBT_GENERATORS_HPP

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ruby/arch/presets.hpp"
#include "ruby/common/math_util.hpp"
#include "ruby/common/rng.hpp"
#include "ruby/mapping/mapping.hpp"
#include "ruby/mapspace/mapspace.hpp"
#include "ruby/serve/json.hpp"
#include "ruby/serve/protocol.hpp"
#include "ruby/workload/conv.hpp"
#include "ruby/workload/gemm.hpp"
#include "ruby/workload/problem.hpp"

namespace ruby
{
namespace pbt
{

// ---------------------------------------------------------------------
// Workload cases: (problem, arch, mapspace variant, sample stream)
// ---------------------------------------------------------------------

/** How a case's Problem is built. */
enum class WorkloadKind
{
    Vector1D,
    Gemm,
    Conv,
};

/** How a case's ArchSpec is built. */
enum class ArchKind
{
    ToyLinear,
    ToyGlb,
    SmallEyeriss,
};

/**
 * A complete generated scenario. problem() and arch() build fresh
 * value objects; keep them alive in the property for as long as any
 * Mapping derived from them is used.
 */
struct WorkloadCase
{
    WorkloadKind kind = WorkloadKind::Vector1D;
    std::uint64_t d = 8;                ///< Vector1D size
    std::uint64_t m = 4, n = 4, k = 4;  ///< Gemm sizes
    ConvShape conv;                     ///< Conv shape

    ArchKind archKind = ArchKind::ToyLinear;
    std::uint64_t pes = 4;      ///< toy-arch PE count
    std::uint64_t glbWords = 256;
    std::uint64_t arrayX = 3, arrayY = 2; ///< small-Eyeriss grid

    MapspaceVariant variant = MapspaceVariant::Ruby;
    std::uint64_t sampleSeed = 1; ///< stream for mapping samples

    Problem problem() const
    {
        switch (kind) {
          case WorkloadKind::Vector1D:
            return makeVector1D(d);
          case WorkloadKind::Gemm:
            return makeGemm(m, n, k);
          case WorkloadKind::Conv:
            return makeConv(conv);
        }
        return makeVector1D(d);
    }

    ArchSpec arch() const
    {
        switch (archKind) {
          case ArchKind::ToyLinear:
            return makeToyLinear(pes);
          case ArchKind::ToyGlb:
            return makeToyGlb(pes, glbWords);
          case ArchKind::SmallEyeriss:
            return makeEyeriss(arrayX, arrayY, 8);
        }
        return makeToyLinear(pes);
    }

    std::string describe() const
    {
        std::ostringstream os;
        switch (kind) {
          case WorkloadKind::Vector1D:
            os << "vector1d d=" << d;
            break;
          case WorkloadKind::Gemm:
            os << "gemm " << m << "x" << n << "x" << k;
            break;
          case WorkloadKind::Conv:
            os << "conv c=" << conv.c << " m=" << conv.m
               << " p=" << conv.p << " q=" << conv.q
               << " r=" << conv.r << " s=" << conv.s;
            break;
        }
        switch (archKind) {
          case ArchKind::ToyLinear:
            os << " | toy-linear pes=" << pes;
            break;
          case ArchKind::ToyGlb:
            os << " | toy-glb pes=" << pes
               << " glbWords=" << glbWords;
            break;
          case ArchKind::SmallEyeriss:
            os << " | eyeriss " << arrayX << "x" << arrayY;
            break;
        }
        os << " | " << variantName(variant)
           << " | sampleSeed=" << sampleSeed;
        return os.str();
    }
};

inline MapspaceVariant
genVariant(Rng &rng)
{
    static constexpr MapspaceVariant kAll[] = {
        MapspaceVariant::PFM, MapspaceVariant::Ruby,
        MapspaceVariant::RubyS, MapspaceVariant::RubyT};
    return kAll[rng.below(4)];
}

/** A small conv shape (sizes chosen to keep exhaustive work tiny). */
inline ConvShape
genConvShape(Rng &rng)
{
    ConvShape sh;
    sh.name = "pbt_conv";
    sh.n = 1;
    sh.c = rng.between(1, 8);
    sh.m = rng.between(1, 8);
    sh.p = rng.between(1, 6);
    sh.q = rng.between(1, 6);
    sh.r = rng.between(1, 3);
    sh.s = rng.between(1, 3);
    sh.strideH = rng.between(1, 2);
    sh.strideW = rng.between(1, 2);
    sh.dilationH = 1;
    sh.dilationW = 1;
    return sh;
}

/**
 * Draw a workload case. Realistic per-tensor partitions (the Eyeriss
 * preset) assume conv-form problems, so non-conv workloads stick to
 * the toy architectures.
 */
inline WorkloadCase
genWorkload(Rng &rng)
{
    WorkloadCase c;
    switch (rng.below(3)) {
      case 0:
        c.kind = WorkloadKind::Vector1D;
        c.d = rng.between(1, 200);
        break;
      case 1:
        c.kind = WorkloadKind::Gemm;
        c.m = rng.between(1, 12);
        c.n = rng.between(1, 12);
        c.k = rng.between(1, 12);
        break;
      default:
        c.kind = WorkloadKind::Conv;
        c.conv = genConvShape(rng);
        break;
    }
    const int archChoices = c.kind == WorkloadKind::Conv ? 3 : 2;
    switch (rng.below(static_cast<std::uint64_t>(archChoices))) {
      case 0:
        c.archKind = ArchKind::ToyLinear;
        c.pes = rng.between(2, 12);
        break;
      case 1:
        c.archKind = ArchKind::ToyGlb;
        c.pes = rng.between(2, 12);
        c.glbWords = 128ull << rng.below(3); // 128/256/512
        break;
      default:
        c.archKind = ArchKind::SmallEyeriss;
        c.arrayX = rng.between(2, 4);
        c.arrayY = rng.between(2, 3);
        break;
    }
    c.variant = genVariant(rng);
    c.sampleSeed = rng.next();
    return c;
}

/**
 * Like genWorkload but with sizes small enough that an exhaustive
 * enumeration (without permutations) completes within a few thousand
 * evaluations — the containment and parity properties need complete,
 * untruncated sweeps to be meaningful.
 */
inline WorkloadCase
genTinyWorkload(Rng &rng)
{
    WorkloadCase c;
    switch (rng.below(3)) {
      case 0:
        c.kind = WorkloadKind::Vector1D;
        c.d = rng.between(1, 24);
        break;
      case 1:
        c.kind = WorkloadKind::Gemm;
        c.m = rng.between(1, 4);
        c.n = rng.between(1, 4);
        c.k = rng.between(1, 4);
        break;
      default:
        c.kind = WorkloadKind::Conv;
        c.conv = genConvShape(rng);
        c.conv.c = rng.between(1, 3);
        c.conv.m = rng.between(1, 3);
        c.conv.p = rng.between(1, 3);
        c.conv.q = rng.between(1, 2);
        c.conv.r = 1;
        c.conv.s = 1;
        break;
    }
    if (rng.below(2) == 0) {
        c.archKind = ArchKind::ToyLinear;
        c.pes = rng.between(2, 6);
    } else {
        c.archKind = ArchKind::ToyGlb;
        c.pes = rng.between(2, 6);
        c.glbWords = 128ull << rng.below(3);
    }
    c.variant = genVariant(rng);
    c.sampleSeed = rng.next();
    return c;
}

/**
 * Generic size-halving shrinker: propose every single-field
 * reduction of the case (problem dimensions, PE counts). Variant and
 * seed are left alone — they are identity, not size.
 */
inline std::vector<WorkloadCase>
shrinkWorkload(const WorkloadCase &c)
{
    std::vector<WorkloadCase> out;
    auto shrunkTo = [&](auto field, std::uint64_t lo) {
        WorkloadCase next = c;
        std::uint64_t &v = next.*field;
        if (v > lo) {
            v = std::max<std::uint64_t>(lo, v / 2);
            out.push_back(next);
        }
    };
    switch (c.kind) {
      case WorkloadKind::Vector1D:
        shrunkTo(&WorkloadCase::d, 1);
        break;
      case WorkloadKind::Gemm:
        shrunkTo(&WorkloadCase::m, 1);
        shrunkTo(&WorkloadCase::n, 1);
        shrunkTo(&WorkloadCase::k, 1);
        break;
      case WorkloadKind::Conv: {
        auto shrinkConv = [&](std::uint64_t ConvShape::*field) {
            WorkloadCase next = c;
            std::uint64_t &v = next.conv.*field;
            if (v > 1) {
                v = std::max<std::uint64_t>(1, v / 2);
                out.push_back(next);
            }
        };
        shrinkConv(&ConvShape::c);
        shrinkConv(&ConvShape::m);
        shrinkConv(&ConvShape::p);
        shrinkConv(&ConvShape::q);
        shrinkConv(&ConvShape::r);
        shrinkConv(&ConvShape::s);
        break;
      }
    }
    if (c.archKind != ArchKind::SmallEyeriss)
        shrunkTo(&WorkloadCase::pes, 2);
    return out;
}

// ---------------------------------------------------------------------
// Factor chains (mixed-radix identity cases)
// ---------------------------------------------------------------------

/** A dimension plus a steady chain with prod(steady) >= dim. */
struct ChainCase
{
    std::uint64_t dim = 1;
    std::vector<std::uint64_t> steady;

    std::string describe() const
    {
        std::ostringstream os;
        os << "dim=" << dim << " steady=[";
        for (std::size_t i = 0; i < steady.size(); ++i)
            os << (i ? "," : "") << steady[i];
        os << "]";
        return os.str();
    }
};

/**
 * Random chain over 1..6 slots. Walks the remaining tile count m the
 * way the sampler does: each slot draws a bound in [1, min(m, 12)]
 * (occasionally oversampling past m to exercise prod > dim), the
 * last slot absorbs whatever remains.
 */
inline ChainCase
genChain(Rng &rng)
{
    ChainCase c;
    c.dim = rng.between(1, 1'000'000);
    const int slots = static_cast<int>(rng.between(1, 6));
    std::uint64_t m = c.dim;
    for (int s = 0; s < slots - 1; ++s) {
        std::uint64_t bound =
            rng.between(1, std::min<std::uint64_t>(m, 12));
        if (rng.below(8) == 0) // occasionally overshoot the need
            bound += rng.between(1, 3);
        c.steady.push_back(bound);
        m = ceilDiv(m, bound);
    }
    // Final slot: cover the rest, sometimes with slack.
    std::uint64_t last = m;
    if (rng.below(4) == 0)
        last += rng.between(1, 5);
    c.steady.push_back(last);
    return c;
}

inline std::vector<ChainCase>
shrinkChain(const ChainCase &c)
{
    std::vector<ChainCase> out;
    if (c.dim > 1) {
        // Halving dim keeps prod(steady) >= dim.
        ChainCase next = c;
        next.dim = c.dim / 2;
        out.push_back(next);
    }
    if (c.steady.size() > 1) {
        // Drop the innermost slot and re-absorb in the new last slot.
        ChainCase next = c;
        next.steady.erase(next.steady.begin());
        std::uint64_t prod = 1;
        bool overflow = false;
        for (const std::uint64_t p : next.steady) {
            if (p != 0 && prod > 2'000'000ull / p)
                overflow = true;
            prod *= p;
        }
        if (!overflow && prod < next.dim)
            next.steady.back() *= ceilDiv(next.dim, prod);
        out.push_back(next);
    }
    return out;
}

// ---------------------------------------------------------------------
// JSON documents (NDJSON codec round trips + fuzz seeds)
// ---------------------------------------------------------------------

/** Random string mixing ASCII, escapes and multi-byte UTF-8. */
inline std::string
genJsonString(Rng &rng)
{
    static const char *kAtoms[] = {
        "a",    "Z",  "0",    " ",      "\"",   "\\",
        "\n",   "\t", "/",    "{",      "}",    "λ",
        "→",    "☃",  "\x01", "\x7f",   "key",  "-",
        "\r",   "é",  "𝄞",    " ", "null", "1e9",
    };
    std::string out;
    const std::uint64_t len = rng.below(9);
    for (std::uint64_t i = 0; i < len; ++i)
        out += kAtoms[rng.below(sizeof(kAtoms) /
                                sizeof(kAtoms[0]))];
    return out;
}

/** Random JSON value tree of bounded depth. */
inline serve::JsonValue
genJson(Rng &rng, int depth = 4)
{
    using serve::JsonValue;
    const std::uint64_t scalarKinds = 6;
    const std::uint64_t kinds = depth > 0 ? scalarKinds + 2
                                          : scalarKinds;
    switch (rng.below(kinds)) {
      case 0:
        return JsonValue::makeNull();
      case 1:
        return JsonValue::makeBool(rng.below(2) == 1);
      case 2:
        return JsonValue::makeU64(rng.next()); // full 64-bit range
      case 3:
        return JsonValue::makeI64(
            -static_cast<std::int64_t>(rng.below(1ull << 62)));
      case 4: {
        // Doubles across magnitudes, including non-finite values
        // (writer maps inf to +-1e999 and nan to null; both survive
        // a write -> parse -> write fixpoint).
        switch (rng.below(6)) {
          case 0:
            return JsonValue::makeDouble(rng.uniform());
          case 1:
            return JsonValue::makeDouble(-rng.uniform() * 1e300);
          case 2:
            return JsonValue::makeDouble(
                static_cast<double>(rng.next()) * 1e-30);
          case 3:
            return JsonValue::makeDouble(0.0);
          case 4:
            return JsonValue::makeDouble(
                std::numeric_limits<double>::infinity());
          default:
            return JsonValue::makeDouble(
                std::numeric_limits<double>::quiet_NaN());
        }
      }
      case 5:
        return JsonValue::makeString(genJsonString(rng));
      case 6: {
        JsonValue arr = JsonValue::makeArray();
        const std::uint64_t len = rng.below(5);
        for (std::uint64_t i = 0; i < len; ++i)
            arr.push(genJson(rng, depth - 1));
        return arr;
      }
      default: {
        JsonValue obj = JsonValue::makeObject();
        const std::uint64_t len = rng.below(5);
        for (std::uint64_t i = 0; i < len; ++i) {
            // Distinct keys by construction (writer trusts callers;
            // the parser enforces uniqueness).
            obj.set("k" + std::to_string(i) + genJsonString(rng),
                    genJson(rng, depth - 1));
        }
        return obj;
      }
    }
}

// ---------------------------------------------------------------------
// Protocol requests (codec round trips + wire-fuzz seeds)
// ---------------------------------------------------------------------

inline SearchOptions
genSearchOptions(Rng &rng)
{
    SearchOptions o;
    static constexpr Objective kObjectives[] = {
        Objective::EDP, Objective::Energy, Objective::Delay};
    static constexpr SearchStrategy kStrategies[] = {
        SearchStrategy::Random, SearchStrategy::Exhaustive,
        SearchStrategy::Genetic, SearchStrategy::Local};
    o.objective = kObjectives[rng.below(3)];
    o.strategy = kStrategies[rng.below(4)];
    o.terminationStreak = rng.below(5000);
    o.maxEvaluations = rng.below(100'000);
    o.seed = rng.next();
    o.threads = static_cast<unsigned>(rng.between(1, 8));
    o.restarts = static_cast<unsigned>(rng.between(1, 4));
    o.timeBudget = std::chrono::milliseconds(rng.below(100'000));
    o.networkTimeBudget =
        std::chrono::milliseconds(rng.below(100'000));
    o.recordTrajectory = rng.below(2) == 1;
    o.refineSteps = static_cast<unsigned>(rng.below(64));
    o.islands = static_cast<unsigned>(rng.between(1, 6));
    o.networkThreads = static_cast<unsigned>(rng.between(1, 4));
    o.layerMemo = rng.below(2) == 1;
    return o;
}

/** Random well-formed protocol request of any type. */
inline serve::Request
genRequest(Rng &rng)
{
    using serve::Request;
    using serve::RequestType;
    Request req;
    static constexpr RequestType kTypes[] = {
        RequestType::Ping, RequestType::Map, RequestType::Net,
        RequestType::Stats, RequestType::Shutdown};
    req.type = kTypes[rng.below(5)];
    req.id = "req-" + std::to_string(rng.below(1'000'000)) +
             genJsonString(rng);
    if (req.type == RequestType::Map) {
        req.configText = "workload:\n  d: " +
                         std::to_string(rng.between(1, 64)) + "\n" +
                         genJsonString(rng);
    } else if (req.type == RequestType::Net) {
        req.arch = rng.below(2) == 0 ? "eyeriss" : "simba";
        switch (rng.below(4)) {
          case 0:
            req.suite = "resnet50";
            break;
          case 1:
            req.suite = "deepbench";
            break;
          case 2:
            req.suite = "alexnet";
            break;
          default: {
            const std::uint64_t count = rng.between(1, 3);
            for (std::uint64_t i = 0; i < count; ++i) {
                Layer layer;
                layer.shape = genConvShape(rng);
                layer.shape.name = "l" + std::to_string(i);
                layer.count = static_cast<int>(rng.between(1, 4));
                layer.group = rng.below(2) == 0 ? "conv" : "fc";
                req.layers.push_back(std::move(layer));
            }
            break;
          }
        }
    }
    req.variant = genVariant(rng);
    static constexpr ConstraintPreset kPresets[] = {
        ConstraintPreset::None, ConstraintPreset::EyerissRS,
        ConstraintPreset::Simba, ConstraintPreset::ToyCM};
    req.preset = kPresets[rng.below(4)];
    req.pad = rng.below(2) == 1;
    req.search = genSearchOptions(rng);
    return req;
}

} // namespace pbt
} // namespace ruby

#endif // RUBY_TESTS_PBT_GENERATORS_HPP
