/**
 * @file
 * Mapspace definition and random sampling for the four spaces the
 * paper studies.
 *
 * A mapspace variant fixes, per tiling slot, whether factors must be
 * perfect (divide the remaining tile count) or may be imperfect (any
 * bound; the tail pass covers the remainder). Sampling walks each
 * dimension's slots inner to outer maintaining the remaining tile
 * count m: a perfect slot draws a divisor of m, an imperfect slot
 * draws any bound in [1, min(cap, m)] and continues with ceil(m / P);
 * the outermost temporal slot absorbs what remains. By construction
 * (see math_util.hpp) the derived tails are perfect exactly at the
 * perfect slots, so Ruby-S chains carry remainders only at spatial
 * slots, Ruby-T only at temporal ones.
 *
 * There is one sampling routine. A search draws with it into a
 * Mapping it already owns, through a per-thread SampleScratch that
 * holds the draw buffers and the divisors of every tile count met so
 * far; once warm, a draw touches no heap. sample(rng) is the same
 * routine behind a fresh scratch and a freshly built Mapping, for
 * one-off draws. Both consume the same random stream.
 */

#ifndef RUBY_MAPSPACE_MAPSPACE_HPP
#define RUBY_MAPSPACE_MAPSPACE_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ruby/common/rng.hpp"
#include "ruby/mapping/constraints.hpp"
#include "ruby/mapping/mapping.hpp"

namespace ruby
{

/** The four mapspaces of the paper (Sec. III-A). */
enum class MapspaceVariant
{
    PFM,   ///< perfect factorization only (the Timeloop baseline)
    Ruby,  ///< imperfect factors at every slot
    RubyS, ///< imperfect factors at spatial slots only
    RubyT, ///< imperfect factors at temporal slots only
};

/** Short display name ("PFM", "Ruby", "Ruby-S", "Ruby-T"). */
std::string variantName(MapspaceVariant variant);

/** Does @p variant allow imperfect factors at spatial slots? */
bool imperfectSpatial(MapspaceVariant variant);

/** Does @p variant allow imperfect factors at temporal slots? */
bool imperfectTemporal(MapspaceVariant variant);

/**
 * Working state of Mapspace::sample() for one thread of one search:
 * the draw buffers and a table of the divisors of each remaining tile
 * count met so far. A dimension of size D only ever has ceil(D / k)
 * tiles remaining (ceilDiv chains compose), at most about 2 sqrt(D)
 * distinct counts, so the table stays small. It is keyed by count —
 * never indexed densely by it, since GEMM dimensions can be large —
 * and filled lazily: a scratch costs nothing until its first draw and
 * its memory goes with it. Once the draws have met every count they
 * will meet, a draw performs no heap allocation. Reusable across
 * mapspaces; not thread-safe.
 */
class SampleScratch
{
  private:
    friend class Mapspace;

    /** Size the draw buffers for one mapspace shape (no-op when
     *  already sized). */
    void shape(int dims, int levels, int tensors);

    /** Ascending divisors of @p m; valid until the next call. */
    std::span<const std::uint64_t> divisorsOf(std::uint64_t m);

    /** One divisor-table slot; m == 0 marks a free slot. */
    struct Entry
    {
        std::uint64_t m = 0;
        std::uint32_t offset = 0; ///< first divisor in divisors_
        std::uint32_t count = 0;
    };

    /** First table_ slot to probe for @p m. */
    std::size_t home(std::uint64_t m) const;

    /** Insert @p e into table_ without growing it. */
    void place(const Entry &e);

    /** Open-addressed, power-of-two sized, at most half full. */
    std::vector<Entry> table_;
    std::size_t entries_ = 0;
    /** Every entry's divisors, concatenated. */
    std::vector<std::uint64_t> divisors_;

    std::vector<std::vector<std::uint64_t>> steady_; ///< [dim][slot]
    std::vector<std::uint64_t> remaining_;           ///< [dim]
    std::vector<DimId> order_;                       ///< dim visit order
    std::vector<std::vector<SpatialAxis>> axes_;     ///< [level][dim]
    std::vector<std::vector<DimId>> perms_;          ///< [level]
    std::vector<std::vector<char>> keep_;            ///< [level][tensor]
};

/**
 * A mapspace over one (problem, architecture, constraints) triple.
 * The constraints object (and the problem/arch it references) must
 * outlive the mapspace.
 */
class Mapspace
{
  public:
    Mapspace(const MappingConstraints &constraints,
             MapspaceVariant variant);

    const Problem &problem() const { return constraints_->problem(); }
    const ArchSpec &arch() const { return constraints_->arch(); }
    const MappingConstraints &constraints() const
    {
        return *constraints_;
    }
    MapspaceVariant variant() const { return variant_; }

    /**
     * Draw a random mapping into @p out, which must map this
     * mapspace's problem onto its architecture; whatever it held is
     * overwritten. Factor chains and spatial fanout usage are valid
     * by construction; capacity may still be violated (the evaluator
     * filters, mirroring Timeloop's generate-then-filter flow). The
     * refill runs every check of the Mapping constructor.
     */
    void sample(Rng &rng, Mapping &out, SampleScratch &scratch) const;

    /**
     * Draw a fresh random mapping: the routine above with a
     * throwaway scratch, for one-off draws. Consumes the same stream.
     */
    Mapping sample(Rng &rng) const;

    /**
     * Per-slot factor cap for dimension d at slot k: the level
     * fanout at allowed spatial slots, 1 at disallowed spatial
     * slots, unbounded (0) at temporal slots.
     */
    std::uint64_t slotCap(DimId d, int slot) const;

    /** Is slot k allowed to carry a remainder under this variant? */
    bool slotImperfect(int slot) const;

  private:
    /** The sampling routine: draw one mapping into @p scratch's
     *  tables. */
    void draw(Rng &rng, SampleScratch &scratch) const;

    const MappingConstraints *constraints_;
    MapspaceVariant variant_;
};

} // namespace ruby

#endif // RUBY_MAPSPACE_MAPSPACE_HPP
