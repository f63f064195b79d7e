/**
 * @file
 * Mapping constraints: per-level restrictions the mapspace generator
 * honours, mirroring Timeloop's constraint files (the paper's Sec.
 * IV-A constrains the Eyeriss mapspace to row-stationary-compatible
 * access patterns, and Sec. III constrains the toy conv to C/M-only
 * PE parallelism).
 */

#ifndef RUBY_MAPPING_CONSTRAINTS_HPP
#define RUBY_MAPPING_CONSTRAINTS_HPP

#include <string>
#include <vector>

#include "ruby/arch/arch_spec.hpp"
#include "ruby/common/error.hpp"
#include "ruby/mapping/mapping.hpp"
#include "ruby/workload/problem.hpp"

namespace ruby
{

/**
 * Constraints applied to every mapping of one (problem, arch) pair.
 */
class MappingConstraints
{
  public:
    /** Unconstrained mapspace for the pair. */
    MappingConstraints(const Problem &problem, const ArchSpec &arch);

    /** The constrained problem. */
    const Problem &problem() const { return *problem_; }

    /** The constrained architecture. */
    const ArchSpec &arch() const { return *arch_; }

    /**
     * Restrict level @p level's spatial slot (both mesh axes) to the
     * named dimensions (dimension names absent from the problem are
     * ignored, so one factory serves conv and GEMM workloads alike).
     */
    void allowSpatialOnly(int level,
                          const std::vector<std::string> &dim_names);

    /**
     * Restrict one mesh axis of level @p level to the named
     * dimensions (e.g. Eyeriss row-stationary: output columns on X,
     * filter rows and channel replication on Y).
     */
    void allowSpatialOnly(int level, SpatialAxis axis,
                          const std::vector<std::string> &dim_names);

    /** Force tensor @p tensor to bypass level @p level. */
    void forceBypass(int level, int tensor);

    /** May dimension d use level l's spatial slot on any axis? */
    bool spatialAllowed(int level, DimId d) const;

    /** May dimension d use axis @p axis of level l's fanout? Inline:
     *  the sampler asks it per dimension and spatial slot. */
    bool spatialAllowed(int level, DimId d, SpatialAxis axis) const
    {
        RUBY_ASSERT(level >= 0 && level < arch_->numLevels());
        RUBY_ASSERT(d >= 0 && d < problem_->numDims());
        const auto &allowed = spatial_allowed_[static_cast<int>(axis)]
                                              [static_cast<std::size_t>(
                                                  level)];
        return allowed.empty() ||
               allowed[static_cast<std::size_t>(d)] != 0;
    }

    /** Must tensor t bypass level l? */
    bool bypassForced(int level, int tensor) const
    {
        RUBY_ASSERT(level >= 0 && level < arch_->numLevels());
        RUBY_ASSERT(tensor >= 0 && tensor < problem_->numTensors());
        return forced_bypass_[static_cast<std::size_t>(level)]
                             [static_cast<std::size_t>(tensor)] != 0;
    }

    /** True iff @p mapping obeys every constraint. */
    bool admits(const Mapping &mapping) const;

    /**
     * Eyeriss row-stationary flavour: output columns (Q) strip-mined
     * across the array's X axis; filter rows (R) and channel
     * replication (M, C) down the Y axis; weights stream past the
     * GLB straight into PE buffers. Assumes the 3-level Eyeriss
     * preset and conv tensor order.
     */
    static MappingConstraints eyerissRowStationary(const Problem &problem,
                                                   const ArchSpec &arch);

    /**
     * Simba flavour: PE- and vector-MAC-level parallelism across
     * input/output channels only (C, M); weights bypass the GLB.
     */
    static MappingConstraints simba(const Problem &problem,
                                    const ArchSpec &arch);

    /**
     * Toy constraint of Figs. 7(c)/(d): only C and M may be mapped
     * spatially onto the PEs.
     */
    static MappingConstraints toySpatialCM(const Problem &problem,
                                           const ArchSpec &arch);

  private:
    const Problem *problem_;
    const ArchSpec *arch_;
    /** spatial_allowed_[axis][l][d]; empty inner vector = all. */
    std::vector<std::vector<char>> spatial_allowed_[2];
    /** forced_bypass_[l][t]. */
    std::vector<std::vector<char>> forced_bypass_;
};

} // namespace ruby

#endif // RUBY_MAPPING_CONSTRAINTS_HPP
