#include "ruby/mapspace/index_space.hpp"

#include <algorithm>
#include <limits>

#include "ruby/common/error.hpp"

namespace ruby
{

namespace
{

constexpr std::uint64_t kMax =
    std::numeric_limits<std::uint64_t>::max();

/** a * b saturated at uint64 max. */
std::uint64_t
mulSat(std::uint64_t a, std::uint64_t b, bool &saturated)
{
    const __uint128_t p =
        static_cast<__uint128_t>(a) * static_cast<__uint128_t>(b);
    if (p > kMax) {
        saturated = true;
        return kMax;
    }
    return static_cast<std::uint64_t>(p);
}

} // namespace

ExhaustiveIndexSpace::ExhaustiveIndexSpace(
    std::vector<std::uint64_t> chain_counts, std::uint64_t perm_count,
    int levels)
    : chain_counts_(std::move(chain_counts)),
      perm_count_(perm_count), levels_(levels)
{
    RUBY_CHECK(perm_count_ >= 1,
               "index space needs >= 1 permutation");
    RUBY_CHECK(levels_ >= 0, "index space needs >= 0 levels");
    size_ = 1;
    for (int l = 0; l < levels_; ++l)
        size_ = mulSat(size_, perm_count_, saturated_);
    for (const std::uint64_t c : chain_counts_) {
        RUBY_CHECK(c >= 1, "index space: empty chain set");
        size_ = mulSat(size_, c, saturated_);
    }
}

void
ExhaustiveIndexSpace::decode(std::uint64_t index,
                             std::vector<std::size_t> &pick,
                             std::vector<std::size_t> &perm_pick) const
{
    pick.resize(chain_counts_.size());
    perm_pick.resize(static_cast<std::size_t>(levels_));
    // Permutation digits first (they vary fastest in the odometer),
    // level 0 innermost; then chain digits, dimension 0 innermost.
    for (int l = 0; l < levels_; ++l) {
        perm_pick[static_cast<std::size_t>(l)] =
            static_cast<std::size_t>(index % perm_count_);
        index /= perm_count_;
    }
    for (std::size_t d = 0; d < chain_counts_.size(); ++d) {
        pick[d] = static_cast<std::size_t>(index % chain_counts_[d]);
        index /= chain_counts_[d];
    }
}

std::uint64_t
ExhaustiveIndexSpace::chunkSizeFor(std::uint64_t limit,
                                   unsigned threads)
{
    if (threads <= 1)
        return limit > 0 ? limit : 1;
    // Aim for ~16 chunks per thread so pruning imbalance is smoothed
    // by stealing. The floor is adaptive too: a fixed 64 would hand
    // each worker of a small space one oversized chunk (at 2 threads
    // a few-hundred-mapping space degenerated to one chunk per
    // worker, erasing the parallel gain). The ceiling keeps the
    // atomic claim amortized on huge spaces.
    const std::uint64_t per_thread =
        std::max<std::uint64_t>(limit / threads, 1);
    const std::uint64_t floor_chunk =
        std::clamp<std::uint64_t>(per_thread / 4, 1, 64);
    const std::uint64_t target =
        limit / (static_cast<std::uint64_t>(threads) * 16u);
    return std::clamp<std::uint64_t>(target, floor_chunk, 16'384);
}

Mapping
candidateBuffer(const Problem &problem, const ArchSpec &arch,
                const ChainTable &chains,
                const std::vector<std::vector<DimId>> &perm_set,
                const std::vector<std::vector<char>> &keep)
{
    std::vector<std::vector<std::uint64_t>> steady;
    for (const auto &dim_chains : chains)
        steady.push_back(dim_chains.front());
    return Mapping(problem, arch, steady,
                   std::vector<std::vector<DimId>>(
                       static_cast<std::size_t>(arch.numLevels()),
                       perm_set.front()),
                   keep);
}

void
refillCandidate(const ChainTable &chains,
                const std::vector<std::vector<DimId>> &perm_set,
                const std::vector<std::size_t> &pick,
                const std::vector<std::size_t> &perm_pick,
                Mapping &mapping)
{
    for (std::size_t d = 0; d < pick.size(); ++d)
        mapping.setChain(static_cast<DimId>(d), chains[d][pick[d]]);
    for (std::size_t l = 0; l < perm_pick.size(); ++l)
        mapping.setPermutation(static_cast<int>(l), perm_set[perm_pick[l]]);
}

} // namespace ruby
