/**
 * @file
 * The test-only switch over the search engines.
 *
 * Three engines sit between a search and the analytic model: the
 * objective lower-bound prune, the batched SoA evaluator
 * (BatchEvaluator) and the incremental delta evaluator
 * (DeltaEvaluator). Each recomputes exactly, so best mappings,
 * trajectories and the evaluated/invalid/prunedBound counters are
 * bit-identical with any of them on or off; they only change speed.
 * Every search therefore always runs them. They are not search
 * options: no options struct, CLI flag, wire field or memo key can
 * reach them.
 *
 * The parity suites, and bench/search_scaling's engine-off baseline,
 * still need to turn an engine off to prove (or time) that. They do
 * it through ScopedEngines, which swaps the process-wide setting for
 * its lifetime. Searches read the setting once when they start, so
 * flip it only between searches, never while one runs.
 */

#ifndef RUBY_SEARCH_ENGINES_HPP
#define RUBY_SEARCH_ENGINES_HPP

#include <atomic>

namespace ruby
{

/** Which bit-identical engines the searches use. */
struct Engines
{
    bool boundPruning = true; ///< objective lower-bound prune
    bool batchEval = true;    ///< batched SoA evaluator
    bool incremental = true;  ///< delta evaluator (local, genetic, refine)
};

namespace detail
{
/** Bit i set means engine i is off (0 = all on, the default). */
inline std::atomic<unsigned> engineOffBits{0};
} // namespace detail

/** The engines searches use now: all on outside a ScopedEngines. */
inline Engines
engines()
{
    const unsigned off = detail::engineOffBits.load();
    return Engines{(off & 1u) == 0, (off & 2u) == 0, (off & 4u) == 0};
}

/** Test-only: run with @p e for this object's lifetime. */
class ScopedEngines
{
  public:
    explicit ScopedEngines(const Engines &e)
        : saved_(detail::engineOffBits.exchange(
              (e.boundPruning ? 0u : 1u) | (e.batchEval ? 0u : 2u) |
              (e.incremental ? 0u : 4u)))
    {
    }
    ~ScopedEngines() { detail::engineOffBits.store(saved_); }
    ScopedEngines(const ScopedEngines &) = delete;
    ScopedEngines &operator=(const ScopedEngines &) = delete;

  private:
    unsigned saved_;
};

} // namespace ruby

#endif // RUBY_SEARCH_ENGINES_HPP
