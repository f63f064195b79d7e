#include "ruby/search/genome.hpp"

#include <algorithm>

#include "ruby/common/error.hpp"
#include "ruby/common/math_util.hpp"

namespace ruby
{

Mapping
MappingGenome::materialize(const Problem &problem,
                           const ArchSpec &arch) const
{
    return Mapping(problem, arch, steady, perms, keep, axes);
}

MappingGenome
extractGenome(const Mapping &mapping)
{
    const Problem &prob = mapping.problem();
    const ArchSpec &arch = mapping.arch();
    const int nd = prob.numDims();
    const int nl = arch.numLevels();
    const int nt = prob.numTensors();

    MappingGenome g;
    g.steady.resize(static_cast<std::size_t>(nd));
    for (DimId d = 0; d < nd; ++d) {
        auto &chain = g.steady[static_cast<std::size_t>(d)];
        chain.resize(static_cast<std::size_t>(mapping.numSlots()));
        for (int k = 0; k < mapping.numSlots(); ++k)
            chain[static_cast<std::size_t>(k)] =
                mapping.factor(d, k).steady;
    }
    g.perms.resize(static_cast<std::size_t>(nl));
    g.keep.resize(static_cast<std::size_t>(nl));
    g.axes.resize(static_cast<std::size_t>(nl));
    for (int l = 0; l < nl; ++l) {
        g.perms[static_cast<std::size_t>(l)] = mapping.permutation(l);
        auto &keep = g.keep[static_cast<std::size_t>(l)];
        keep.resize(static_cast<std::size_t>(nt));
        for (int t = 0; t < nt; ++t)
            keep[static_cast<std::size_t>(t)] =
                mapping.keeps(l, t) ? 1 : 0;
        auto &axes = g.axes[static_cast<std::size_t>(l)];
        axes.resize(static_cast<std::size_t>(nd));
        for (DimId d = 0; d < nd; ++d)
            axes[static_cast<std::size_t>(d)] =
                mapping.spatialAxis(l, d);
    }
    return g;
}

void
mutateChain(MappingGenome &genome, const Mapspace &space, DimId d,
            Rng &rng)
{
    const Problem &prob = space.problem();
    const int slots = 2 * space.arch().numLevels();
    auto &chain = genome.steady[static_cast<std::size_t>(d)];
    RUBY_ASSERT(static_cast<int>(chain.size()) == slots);

    std::uint64_t m = prob.dimSize(d);
    for (int k = 0; k < slots; ++k) {
        const std::uint64_t cap = space.slotCap(d, k);
        std::uint64_t choice = 1;
        if (k == slots - 1) {
            choice = m;
        } else if (cap == 1 || m == 1) {
            choice = 1;
        } else if (space.slotImperfect(k)) {
            const std::uint64_t hi =
                std::min<std::uint64_t>(cap == 0 ? m : cap, m);
            choice = rng.between(1, hi);
        } else {
            const auto divs = divisors(m);
            std::size_t usable = divs.size();
            if (cap != 0) {
                usable = 0;
                while (usable < divs.size() && divs[usable] <= cap)
                    ++usable;
            }
            choice = divs[rng.below(usable)];
        }
        chain[static_cast<std::size_t>(k)] = choice;
        m = ceilDiv(m, choice);
    }
}

void
mutate(MappingGenome &genome, const Mapspace &space, Rng &rng,
       MutationUndo *undo)
{
    const Problem &prob = space.problem();
    const ArchSpec &arch = space.arch();
    const int nd = prob.numDims();
    const int nl = arch.numLevels();
    const int nt = prob.numTensors();

    // A draw that ends up changing nothing (rejected flip, too-short
    // permutation) records Kind::None so undoMutation() is a no-op.
    if (undo != nullptr)
        undo->kind = MutationUndo::Kind::None;

    switch (rng.below(4)) {
      case 0: { // resample one dimension's chain
        const DimId d = static_cast<DimId>(
            rng.below(static_cast<std::uint64_t>(nd)));
        if (undo != nullptr) {
            undo->kind = MutationUndo::Kind::Chain;
            undo->row = static_cast<std::size_t>(d);
            undo->chain = genome.steady[static_cast<std::size_t>(d)];
        }
        mutateChain(genome, space, d, rng);
        break;
      }
      case 1: { // swap two loops in one level's permutation
        const auto l = rng.below(static_cast<std::uint64_t>(nl));
        auto &perm = genome.perms[l];
        if (perm.size() >= 2) {
            const auto i = rng.below(perm.size());
            const auto j = rng.below(perm.size());
            std::swap(perm[i], perm[j]);
            if (undo != nullptr) {
                undo->kind = MutationUndo::Kind::PermSwap;
                undo->row = static_cast<std::size_t>(l);
                undo->i = i;
                undo->j = j;
            }
        }
        break;
      }
      case 2: { // flip a residency bit on an intermediate level
        if (nl <= 2)
            break;
        const int l = 1 + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(nl - 2)));
        const int t = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(nt)));
        if (space.constraints().bypassForced(l, t))
            break;
        auto &flag = genome.keep[static_cast<std::size_t>(l)]
                                [static_cast<std::size_t>(t)];
        flag = flag ? 0 : 1;
        if (undo != nullptr) {
            undo->kind = MutationUndo::Kind::Keep;
            undo->row = static_cast<std::size_t>(l);
            undo->i = static_cast<std::size_t>(t);
        }
        break;
      }
      default: { // flip a spatial mesh-axis assignment
        const int l = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(nl)));
        const DimId d = static_cast<DimId>(
            rng.below(static_cast<std::uint64_t>(nd)));
        auto &axis = genome.axes[static_cast<std::size_t>(l)]
                                [static_cast<std::size_t>(d)];
        const SpatialAxis flipped = axis == SpatialAxis::X
                                        ? SpatialAxis::Y
                                        : SpatialAxis::X;
        if (space.constraints().spatialAllowed(l, d, flipped)) {
            axis = flipped;
            if (undo != nullptr) {
                undo->kind = MutationUndo::Kind::Axis;
                undo->row = static_cast<std::size_t>(l);
                undo->i = static_cast<std::size_t>(d);
            }
        }
        break;
      }
    }
}

void
undoMutation(MappingGenome &genome, MutationUndo &undo)
{
    switch (undo.kind) {
      case MutationUndo::Kind::None:
        break;
      case MutationUndo::Kind::Chain:
        // Swap, not copy: the displaced (mutated) row is dead and the
        // undo buffer keeps its capacity for the next record.
        genome.steady[undo.row].swap(undo.chain);
        break;
      case MutationUndo::Kind::PermSwap:
        std::swap(genome.perms[undo.row][undo.i],
                  genome.perms[undo.row][undo.j]);
        break;
      case MutationUndo::Kind::Keep: {
        auto &flag = genome.keep[undo.row][undo.i];
        flag = flag ? 0 : 1;
        break;
      }
      case MutationUndo::Kind::Axis: {
        auto &axis = genome.axes[undo.row][undo.i];
        axis = axis == SpatialAxis::X ? SpatialAxis::Y
                                      : SpatialAxis::X;
        break;
      }
    }
}

void
crossover(MappingGenome &child, const MappingGenome &other, Rng &rng)
{
    RUBY_ASSERT(child.steady.size() == other.steady.size() &&
                child.perms.size() == other.perms.size());
    for (std::size_t d = 0; d < child.steady.size(); ++d)
        if (rng.below(2))
            child.steady[d] = other.steady[d];
    for (std::size_t l = 0; l < child.perms.size(); ++l) {
        if (rng.below(2))
            child.perms[l] = other.perms[l];
        if (rng.below(2))
            child.keep[l] = other.keep[l];
        if (rng.below(2))
            child.axes[l] = other.axes[l];
    }
}

} // namespace ruby
