/**
 * @file
 * Linear indexing of the exhaustive enumeration space: every
 * combination of per-dimension chain picks and per-level permutation
 * picks maps to one index in [0, size()). Sharded exhaustive search
 * partitions this range into work-stealing chunks; decode() recovers
 * the odometer state for any index, so shards can start anywhere
 * without replaying the walk.
 *
 * The index order matches the serial odometer exactly — permutation
 * picks vary fastest (level 0 innermost), then chain picks (dimension
 * 0 innermost) — so "the first N mappings" means the same thing for
 * the serial and sharded searches, and truncation by maxEvaluations
 * stays bit-identical across thread counts.
 *
 * candidateBuffer() and refillCandidate() turn decoded picks into a
 * Mapping that a worker rewrites in place for every candidate.
 */

#ifndef RUBY_MAPSPACE_INDEX_SPACE_HPP
#define RUBY_MAPSPACE_INDEX_SPACE_HPP

#include <cstdint>
#include <vector>

#include "ruby/mapping/mapping.hpp"

namespace ruby
{

/** Mixed-radix index over chain picks x permutation picks. */
class ExhaustiveIndexSpace
{
  public:
    /**
     * @param chain_counts Number of enumerated chains per dimension
     *                     (every entry >= 1).
     * @param perm_count   Number of permutations in the shared set.
     * @param levels       Number of levels picking a permutation.
     */
    ExhaustiveIndexSpace(std::vector<std::uint64_t> chain_counts,
                         std::uint64_t perm_count, int levels);

    /**
     * Total combinations, saturated at uint64 max when the true
     * product overflows (the searches always cap evaluations far
     * below that).
     */
    std::uint64_t size() const { return size_; }

    /** True when size() is the saturated value, not the true count. */
    bool saturated() const { return saturated_; }

    /**
     * Decode @p index (< size()) into the odometer state: pick[d] is
     * the chain index of dimension d, perm_pick[l] the permutation
     * index of level l. The vectors are resized as needed.
     */
    void decode(std::uint64_t index, std::vector<std::size_t> &pick,
                std::vector<std::size_t> &perm_pick) const;

    /**
     * Work-stealing chunk size for splitting @p limit indices over
     * @p threads workers: small enough that pruning imbalance is
     * smoothed (several chunks per thread), large enough that the
     * atomic claim is amortized.
     */
    static std::uint64_t chunkSizeFor(std::uint64_t limit,
                                      unsigned threads);

  private:
    std::vector<std::uint64_t> chain_counts_;
    std::uint64_t perm_count_;
    int levels_;
    std::uint64_t size_ = 0;
    bool saturated_ = false;
};

/** Enumerated steady chains: chains[d][c] is chain c of dimension d. */
using ChainTable = std::vector<std::vector<std::vector<std::uint64_t>>>;

/**
 * A candidate mapping for refillCandidate() to rewrite: chain 0 of
 * every dimension and permutation 0 at every level, with @p keep
 * residency and every spatial factor on the X axis. A complete search
 * builds one per worker, so no candidate constructs a Mapping.
 */
Mapping candidateBuffer(const Problem &problem, const ArchSpec &arch,
                        const ChainTable &chains,
                        const std::vector<std::vector<DimId>> &perm_set,
                        const std::vector<std::vector<char>> &keep);

/**
 * Rewrite @p mapping as the candidate decode() returned as @p pick
 * and @p perm_pick. Allocation-free; keep and axes are untouched.
 */
void refillCandidate(const ChainTable &chains,
                     const std::vector<std::vector<DimId>> &perm_set,
                     const std::vector<std::size_t> &pick,
                     const std::vector<std::size_t> &perm_pick,
                     Mapping &mapping);

} // namespace ruby

#endif // RUBY_MAPSPACE_INDEX_SPACE_HPP
