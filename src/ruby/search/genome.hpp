/**
 * @file
 * Mutable mapping genome for neighbourhood/evolutionary search.
 *
 * A genome is the raw decision vector behind a Mapping: per-dimension
 * steady chains, per-level loop orders, residency flags and mesh-axis
 * assignments. Local and genetic search mutate genomes and
 * materialize them back into (immutable) mappings; structural chain
 * validity is preserved by construction, while fanout/capacity
 * violations are left to the evaluator's filter, mirroring the
 * generate-then-filter flow of the random sampler.
 */

#ifndef RUBY_SEARCH_GENOME_HPP
#define RUBY_SEARCH_GENOME_HPP

#include <cstdint>
#include <vector>

#include "ruby/common/rng.hpp"
#include "ruby/mapspace/mapspace.hpp"

namespace ruby
{

/** The decision vector of one mapping. */
struct MappingGenome
{
    /** steady[d][slot]. */
    std::vector<std::vector<std::uint64_t>> steady;
    /** perms[level] = temporal order, outermost first. */
    std::vector<std::vector<DimId>> perms;
    /** keep[level][tensor]. */
    std::vector<std::vector<char>> keep;
    /** axes[level][dim]. */
    std::vector<std::vector<SpatialAxis>> axes;

    /** Rebuild the immutable mapping (throws on broken chains). */
    Mapping materialize(const Problem &problem,
                        const ArchSpec &arch) const;
};

/** Extract the genome of an existing mapping. */
MappingGenome extractGenome(const Mapping &mapping);

/**
 * Resample one dimension's chain under @p space's variant rules
 * (divisors at perfect slots, free bounds at imperfect ones; the
 * outermost slot absorbs the residual). Other dimensions untouched.
 */
void mutateChain(MappingGenome &genome, const Mapspace &space,
                 DimId d, Rng &rng);

/**
 * Inverse record of one mutate() application: which row moved and
 * what it held before. Reusing one instance across calls keeps the
 * hot loop allocation-free (the chain buffer retains its capacity).
 */
struct MutationUndo
{
    enum class Kind { None, Chain, PermSwap, Keep, Axis };
    Kind kind = Kind::None;
    std::size_t row = 0; ///< dimension (Chain) or level (others)
    std::size_t i = 0;   ///< swapped position / flipped column
    std::size_t j = 0;   ///< second swapped position (PermSwap)
    std::vector<std::uint64_t> chain; ///< previous chain row (Chain)
};

/**
 * Apply one random mutation: resample a chain, swap two loops in a
 * permutation, flip a residency bit, or flip a mesh axis. Honours
 * forced bypasses and spatial-dim constraints. When @p undo is
 * non-null it records how to revert the mutation, letting
 * neighbourhood search mutate one genome in place instead of copying
 * it per candidate.
 */
void mutate(MappingGenome &genome, const Mapspace &space, Rng &rng,
            MutationUndo *undo = nullptr);

/**
 * Revert the mutation @p undo describes (exact inverse). Consumes the
 * record: the chain buffer is swapped back rather than copied, so the
 * same MutationUndo can be reused for the next mutate() call.
 */
void undoMutation(MappingGenome &genome, MutationUndo &undo);

/**
 * Uniform crossover in place: @p child (a copy of the first parent)
 * takes each dimension's chain, each level's permutation and each
 * residency/axis row from @p other with probability 1/2. Rows are
 * copied into existing storage, so a recycled child allocates
 * nothing.
 */
void crossover(MappingGenome &child, const MappingGenome &other,
               Rng &rng);

} // namespace ruby

#endif // RUBY_SEARCH_GENOME_HPP
