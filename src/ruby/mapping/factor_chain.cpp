#include "ruby/mapping/factor_chain.hpp"

#include "ruby/common/error.hpp"
#include "ruby/common/math_util.hpp"

namespace ruby
{

FactorChain::FactorChain(std::uint64_t dim,
                         std::vector<std::uint64_t> steady)
    : dim_(dim)
{
    RUBY_ASSERT(dim >= 1, "dimension must be >= 1");
    const auto tails = deriveTails(dim, steady);
    factors_.resize(steady.size());
    for (std::size_t k = 0; k < steady.size(); ++k)
        factors_[k] = FactorPair{steady[k], tails[k]};

    const auto bodies = bodyCounts(steady, tails);
    bodies_.reserve(bodies.size() + 1);
    bodies_.assign(bodies.begin(), bodies.end());
    bodies_.push_back(1);
    RUBY_ASSERT(bodies_.front() == dim,
                "ragged body count must equal the dimension");

    extents_.resize(steady.size() + 1);
    extents_[0] = 1;
    for (std::size_t k = 0; k < steady.size(); ++k)
        extents_[k + 1] = extents_[k] * steady[k];
}

void
FactorChain::assign(const std::vector<std::uint64_t> &steady)
{
    RUBY_ASSERT(steady.size() == factors_.size(),
                "assign must preserve the slot count");
    // Forward pass: tails are the mixed-radix digits of dim-1 in the
    // new radices (deriveTails inlined so no scratch vector is
    // needed); extents are running steady products.
    std::uint64_t q = dim_ - 1;
    std::uint64_t extent = 1;
    for (std::size_t k = 0; k < steady.size(); ++k) {
        RUBY_ASSERT(steady[k] >= 1, "steady bound must be positive");
        // Most slots of a sampled chain are 1: skip their division.
        if (steady[k] == 1) {
            factors_[k] = FactorPair{1, 1};
        } else {
            factors_[k] = FactorPair{steady[k], q % steady[k] + 1};
            q /= steady[k];
        }
        extents_[k] = extent;
        extent *= steady[k];
    }
    extents_[steady.size()] = extent;
    RUBY_ASSERT(q == 0, "product of steady bounds below dim=", dim_,
                " -- caller must guarantee prod(P) >= D");
    // Backward pass: exact ragged body counts (bodyCounts inlined).
    bodies_[steady.size()] = 1;
    std::uint64_t above = 1;
    for (std::size_t k = steady.size(); k-- > 0;) {
        bodies_[k] =
            (above - 1) * factors_[k].steady + factors_[k].tail;
        above = bodies_[k];
    }
    RUBY_ASSERT(bodies_.front() == dim_,
                "ragged body count must equal the dimension");
}

const FactorPair &
FactorChain::at(int slot) const
{
    RUBY_ASSERT(slot >= 0 && slot < numSlots());
    return factors_[static_cast<std::size_t>(slot)];
}

std::uint64_t
FactorChain::bodyCount(int slot) const
{
    RUBY_ASSERT(slot >= 0 && slot <= numSlots());
    return bodies_[static_cast<std::size_t>(slot)];
}

std::uint64_t
FactorChain::steadyExtentBelow(int slot) const
{
    RUBY_ASSERT(slot >= 0 && slot <= numSlots());
    return extents_[static_cast<std::size_t>(slot)];
}

bool
FactorChain::fullyPerfect() const
{
    for (const auto &f : factors_)
        if (!f.perfect())
            return false;
    return true;
}

} // namespace ruby
