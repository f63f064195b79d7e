#include "ruby/mapspace/mapspace.hpp"

#include <algorithm>
#include <numeric>

#include "ruby/common/error.hpp"
#include "ruby/common/math_util.hpp"

namespace ruby
{

std::string
variantName(MapspaceVariant variant)
{
    switch (variant) {
      case MapspaceVariant::PFM:
        return "PFM";
      case MapspaceVariant::Ruby:
        return "Ruby";
      case MapspaceVariant::RubyS:
        return "Ruby-S";
      case MapspaceVariant::RubyT:
        return "Ruby-T";
    }
    RUBY_ASSERT(false, "unknown mapspace variant");
    return {};
}

bool
imperfectSpatial(MapspaceVariant variant)
{
    return variant == MapspaceVariant::Ruby ||
           variant == MapspaceVariant::RubyS;
}

bool
imperfectTemporal(MapspaceVariant variant)
{
    return variant == MapspaceVariant::Ruby ||
           variant == MapspaceVariant::RubyT;
}

Mapspace::Mapspace(const MappingConstraints &constraints,
                   MapspaceVariant variant)
    : constraints_(&constraints), variant_(variant)
{
}

std::uint64_t
Mapspace::slotCap(DimId d, int slot) const
{
    if (!isSpatialSlot(slot))
        return 0; // unbounded
    const int level = slotLevel(slot);
    const auto &lvl = arch().level(level);
    std::uint64_t cap = 1;
    if (constraints_->spatialAllowed(level, d, SpatialAxis::X))
        cap = std::max(cap, lvl.fanoutX);
    if (constraints_->spatialAllowed(level, d, SpatialAxis::Y))
        cap = std::max(cap, lvl.fanoutY);
    return cap;
}

bool
Mapspace::slotImperfect(int slot) const
{
    return isSpatialSlot(slot) ? imperfectSpatial(variant_)
                               : imperfectTemporal(variant_);
}

void
SampleScratch::shape(int dims, int levels, int tensors)
{
    const auto nd = static_cast<std::size_t>(dims);
    const auto nl = static_cast<std::size_t>(levels);
    const auto nt = static_cast<std::size_t>(tensors);
    const std::size_t slots = 2 * nl;
    if (steady_.size() == nd && perms_.size() == nl &&
        (nd == 0 || steady_.front().size() == slots) &&
        (nl == 0 || keep_.front().size() == nt))
        return;
    steady_.assign(nd, std::vector<std::uint64_t>(slots, 1));
    remaining_.assign(nd, 0);
    order_.assign(nd, 0);
    axes_.assign(nl, std::vector<SpatialAxis>(nd, SpatialAxis::X));
    perms_.assign(nl, std::vector<DimId>(nd, 0));
    keep_.assign(nl, std::vector<char>(nt, 1));
}

std::size_t
SampleScratch::home(std::uint64_t m) const
{
    // Fibonacci hashing: the high product bits mix every bit of m.
    return static_cast<std::size_t>((m * 0x9e3779b97f4a7c15ull) >> 32) &
           (table_.size() - 1);
}

void
SampleScratch::place(const Entry &e)
{
    std::size_t i = home(e.m);
    while (table_[i].m != 0)
        i = (i + 1) & (table_.size() - 1);
    table_[i] = e;
}

std::span<const std::uint64_t>
SampleScratch::divisorsOf(std::uint64_t m)
{
    RUBY_ASSERT(m >= 1);
    if (!table_.empty())
        for (std::size_t i = home(m); table_[i].m != 0;
             i = (i + 1) & (table_.size() - 1))
            if (table_[i].m == m)
                return {divisors_.data() + table_[i].offset,
                        table_[i].count};
    // First meeting of m: compute its divisors once, and keep the
    // table at most half full.
    const std::vector<std::uint64_t> divs = divisors(m);
    RUBY_ASSERT(divisors_.size() + divs.size() <= UINT32_MAX);
    const Entry e{m, static_cast<std::uint32_t>(divisors_.size()),
                  static_cast<std::uint32_t>(divs.size())};
    divisors_.insert(divisors_.end(), divs.begin(), divs.end());
    if (2 * (entries_ + 1) > table_.size()) {
        std::vector<Entry> old(
            std::max<std::size_t>(64, 2 * table_.size()));
        old.swap(table_);
        for (const Entry &o : old)
            if (o.m != 0)
                place(o);
    }
    place(e);
    ++entries_;
    return {divisors_.data() + e.offset, e.count};
}

void
Mapspace::draw(Rng &rng, SampleScratch &s) const
{
    const Problem &prob = problem();
    const ArchSpec &arch_spec = arch();
    const int nd = prob.numDims();
    const int nl = arch_spec.numLevels();
    const int nt = prob.numTensors();
    const int slots = 2 * nl;
    s.shape(nd, nl, nt);

    for (DimId d = 0; d < nd; ++d)
        s.remaining_[static_cast<std::size_t>(d)] = prob.dimSize(d);

    // Visit dimensions in random order per slot so no dimension is
    // systematically favoured for the shared spatial budget.
    std::iota(s.order_.begin(), s.order_.end(), 0);

    for (int k = 0; k < slots; ++k) {
        const bool spatial = isSpatialSlot(k);
        const bool imperfect = slotImperfect(k);
        const bool last = k == slots - 1;
        const int level = slotLevel(k);
        auto &axes = s.axes_[static_cast<std::size_t>(level)];
        // Independent mesh-axis budgets at spatial slots.
        std::uint64_t budget_x =
            spatial ? arch_spec.level(level).fanoutX : 0;
        std::uint64_t budget_y =
            spatial ? arch_spec.level(level).fanoutY : 0;

        for (std::size_t i = s.order_.size(); i-- > 0;)
            std::swap(s.order_[i], s.order_[rng.below(i + 1)]);

        for (DimId d : s.order_) {
            auto &m = s.remaining_[static_cast<std::size_t>(d)];
            std::uint64_t cap = 0; // unbounded (temporal)
            if (spatial) {
                // Pick the mesh axis: among the axes this dimension
                // may occupy, prefer ones with remaining room.
                const bool may_x = constraints_->spatialAllowed(
                    level, d, SpatialAxis::X);
                const bool may_y = constraints_->spatialAllowed(
                    level, d, SpatialAxis::Y);
                const std::uint64_t cap_x = may_x ? budget_x : 0;
                const std::uint64_t cap_y = may_y ? budget_y : 0;
                SpatialAxis axis = SpatialAxis::X;
                if (cap_x > 1 && cap_y > 1)
                    axis = rng.below(2) == 0 ? SpatialAxis::X
                                             : SpatialAxis::Y;
                else if (cap_y > cap_x)
                    axis = SpatialAxis::Y;
                axes[static_cast<std::size_t>(d)] = axis;
                cap = std::max<std::uint64_t>(
                    axis == SpatialAxis::X ? cap_x : cap_y, 1);
            }
            // Uniform over m's divisors up to a bound (0 = none).
            auto divisorUpTo = [&](std::uint64_t bound) {
                const auto divs = s.divisorsOf(m);
                const std::size_t usable =
                    bound == 0
                        ? divs.size()
                        : static_cast<std::size_t>(
                              std::upper_bound(divs.begin(), divs.end(),
                                               bound) -
                              divs.begin());
                return divs[rng.below(usable)];
            };
            std::uint64_t choice = 1;
            if (last) {
                // The outermost temporal slot absorbs the residual.
                choice = m;
            } else if (cap == 1 || m == 1) {
                choice = 1;
            } else if (imperfect) {
                // Mixture proposal over the imperfect range: divisors
                // (the PFM sub-space), the full cap (the maximum-
                // utilization choice Ruby exists to reach), and a
                // uniform draw keeping the whole space reachable.
                const std::uint64_t hi = std::min<std::uint64_t>(
                    cap == 0 ? m : cap, m);
                switch (rng.below(3)) {
                  case 0:
                    choice = divisorUpTo(hi);
                    break;
                  case 1:
                    choice = hi;
                    break;
                  default:
                    choice = rng.between(1, hi);
                }
            } else {
                // Perfect slot: uniform over divisors of m within cap.
                choice = divisorUpTo(cap);
            }
            s.steady_[static_cast<std::size_t>(d)]
                     [static_cast<std::size_t>(k)] = choice;
            if (choice > 1) {
                m = ceilDiv(m, choice);
                if (spatial) {
                    auto &budget =
                        axes[static_cast<std::size_t>(d)] ==
                                SpatialAxis::X
                            ? budget_x
                            : budget_y;
                    RUBY_ASSERT(budget >= choice);
                    budget /= choice;
                }
            }
        }
    }

    // Random temporal loop order per level.
    for (auto &perm : s.perms_) {
        std::iota(perm.begin(), perm.end(), 0);
        for (std::size_t i = perm.size(); i-- > 1;)
            std::swap(perm[i], perm[rng.below(i + 1)]);
    }

    // Residency: endpoints keep everything; forced bypasses honoured;
    // remaining intermediate (level, tensor) pairs explored randomly.
    for (int l = 0; l < nl; ++l) {
        auto &row = s.keep_[static_cast<std::size_t>(l)];
        for (int t = 0; t < nt; ++t) {
            char flag = 1;
            if (l > 0 && l < nl - 1)
                flag = constraints_->bypassForced(l, t)
                           ? 0
                           : (rng.below(2) == 0 ? 0 : 1);
            row[static_cast<std::size_t>(t)] = flag;
        }
    }
}

void
Mapspace::sample(Rng &rng, Mapping &out, SampleScratch &scratch) const
{
    RUBY_CHECK(&out.problem() == &problem() && &out.arch() == &arch(),
               "sample: the mapping must map this mapspace's problem "
               "onto its architecture");
    draw(rng, scratch);
    for (DimId d = 0; d < problem().numDims(); ++d)
        out.setChain(d, scratch.steady_[static_cast<std::size_t>(d)]);
    for (int l = 0; l < arch().numLevels(); ++l) {
        const auto row = static_cast<std::size_t>(l);
        out.setPermutation(l, scratch.perms_[row]);
        out.setKeepRow(l, scratch.keep_[row]);
        out.setAxisRow(l, scratch.axes_[row]);
    }
}

Mapping
Mapspace::sample(Rng &rng) const
{
    SampleScratch scratch;
    draw(rng, scratch);
    return Mapping(problem(), arch(), scratch.steady_,
                   std::move(scratch.perms_), std::move(scratch.keep_),
                   std::move(scratch.axes_));
}

} // namespace ruby
