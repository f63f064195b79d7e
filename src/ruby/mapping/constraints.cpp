#include "ruby/mapping/constraints.hpp"

#include <algorithm>

#include "ruby/common/error.hpp"
#include "ruby/workload/conv.hpp"

namespace ruby
{

MappingConstraints::MappingConstraints(const Problem &problem,
                                       const ArchSpec &arch)
    : problem_(&problem), arch_(&arch)
{
    for (auto &axis : spatial_allowed_)
        axis.resize(static_cast<std::size_t>(arch.numLevels()));
    forced_bypass_.assign(
        static_cast<std::size_t>(arch.numLevels()),
        std::vector<char>(static_cast<std::size_t>(problem.numTensors()),
                          0));
}

void
MappingConstraints::allowSpatialOnly(
    int level, const std::vector<std::string> &dim_names)
{
    allowSpatialOnly(level, SpatialAxis::X, dim_names);
    allowSpatialOnly(level, SpatialAxis::Y, dim_names);
}

void
MappingConstraints::allowSpatialOnly(
    int level, SpatialAxis axis,
    const std::vector<std::string> &dim_names)
{
    RUBY_CHECK(level >= 0 && level < arch_->numLevels(),
               "constraint on invalid level ", level);
    std::vector<char> allowed(
        static_cast<std::size_t>(problem_->numDims()), 0);
    for (const auto &name : dim_names) {
        for (DimId d = 0; d < problem_->numDims(); ++d)
            if (problem_->dimName(d) == name)
                allowed[static_cast<std::size_t>(d)] = 1;
    }
    spatial_allowed_[static_cast<int>(axis)]
                    [static_cast<std::size_t>(level)] =
        std::move(allowed);
}

void
MappingConstraints::forceBypass(int level, int tensor)
{
    RUBY_CHECK(level >= 0 && level < arch_->numLevels(),
               "constraint on invalid level ", level);
    RUBY_CHECK(tensor >= 0 && tensor < problem_->numTensors(),
               "constraint on invalid tensor ", tensor);
    RUBY_CHECK(level != 0 && level != arch_->numLevels() - 1,
               "innermost/outermost levels cannot bypass tensors");
    forced_bypass_[static_cast<std::size_t>(level)]
                  [static_cast<std::size_t>(tensor)] = 1;
}

bool
MappingConstraints::spatialAllowed(int level, DimId d) const
{
    return spatialAllowed(level, d, SpatialAxis::X) ||
           spatialAllowed(level, d, SpatialAxis::Y);
}

bool
MappingConstraints::admits(const Mapping &mapping) const
{
    for (int l = 0; l < arch_->numLevels(); ++l) {
        for (DimId d = 0; d < problem_->numDims(); ++d) {
            if (mapping.factor(d, spatialSlot(l)).steady <= 1)
                continue;
            if (!spatialAllowed(l, d, mapping.spatialAxis(l, d)))
                return false;
        }
        for (int t = 0; t < problem_->numTensors(); ++t)
            if (bypassForced(l, t) && mapping.keeps(l, t))
                return false;
    }
    return true;
}

MappingConstraints
MappingConstraints::eyerissRowStationary(const Problem &problem,
                                         const ArchSpec &arch)
{
    MappingConstraints c(problem, arch);
    // Row-stationary array usage: output columns strip across X;
    // filter rows plus output/input-channel replication stack on Y.
    if (arch.numLevels() >= 2) {
        c.allowSpatialOnly(1, SpatialAxis::X, {"Q", "M"});
        c.allowSpatialOnly(1, SpatialAxis::Y, {"R", "M", "C"});
    }
    // No parallelism below the PE (one MAC each) and none above GLB.
    c.allowSpatialOnly(0, {});
    // Weights move DRAM -> PE directly, past the GLB.
    if (arch.numLevels() >= 3 && problem.numTensors() > CONV_WEIGHTS)
        c.forceBypass(1, CONV_WEIGHTS);
    return c;
}

MappingConstraints
MappingConstraints::simba(const Problem &problem, const ArchSpec &arch)
{
    MappingConstraints c(problem, arch);
    // PE-level and vector-MAC-level parallelism across channels only.
    c.allowSpatialOnly(0, {"C", "M"});
    if (arch.numLevels() >= 2)
        c.allowSpatialOnly(1, {"C", "M"});
    if (arch.numLevels() >= 3 && problem.numTensors() > CONV_WEIGHTS)
        c.forceBypass(1, CONV_WEIGHTS);
    return c;
}

MappingConstraints
MappingConstraints::toySpatialCM(const Problem &problem,
                                 const ArchSpec &arch)
{
    MappingConstraints c(problem, arch);
    for (int l = 0; l < arch.numLevels(); ++l)
        if (arch.level(l).fanout() > 1)
            c.allowSpatialOnly(l, {"C", "M"});
    return c;
}

} // namespace ruby
