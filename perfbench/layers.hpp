/**
 * @file
 * The per-layer metrics of the traced run. Every traced run reports
 * the full set so runs of different workloads line up; a metric of a
 * layer the workload leaves idle reads 0.
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ruby/mapspace/mapspace.hpp"
#include "ruby/model/evaluator.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench
{

struct LayerMetricSpec
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in report order. */
const std::vector<LayerMetricSpec> &layerMetricSpecs();

/** Per-layer values being filled by a traced run. */
class LayerMetrics
{
  public:
    /** Set a metric; throws on a name not in layerMetricSpecs(). */
    void set(const std::string &name, double value);
    /** Append every metric (0 where unset) to @p report. */
    void emit(RunReport &report) const;

  private:
    std::map<std::string, double> values_;
};

/** Ratio with a 0 result for an empty denominator. */
double ratio(double num, double den);

/** Fill the model.* counter ratios from summed search counters. */
void setModelCounters(LayerMetrics &m, const ruby::EvalStats &stats,
                      std::uint64_t evaluated);

/** Timings of Mapspace::sample, checkValidity and evaluate replayed
 *  outside the search. */
struct ReplayTotals
{
    std::uint64_t draws = 0;
    std::uint64_t sampleNs = 0;
    std::uint64_t validityNs = 0;
    std::uint64_t valid = 0;
    std::uint64_t fullNs = 0;
};

/**
 * Draw @p draws mappings from @p space (seeded), timing the draws,
 * their validity checks and full evaluations of the valid ones in
 * separate passes over chunks. Records one span per pass.
 */
void replayLayer(const ruby::Mapspace &space,
                 const ruby::Evaluator &evaluator, std::uint64_t draws,
                 std::uint64_t seed, Tracer &tracer, std::int64_t parent,
                 ReplayTotals &totals);

/** Fill mapspace.sample_ns, model.validity_ns and model.full_ns. */
void setReplayMetrics(LayerMetrics &m, const ReplayTotals &totals);

/** Fill host.* and trace.overhead_* for a traced run. */
void setRunMetrics(LayerMetrics &m, double cpuSeconds, double stealFrac,
                   const std::vector<double> &untracedSeconds,
                   const std::vector<double> &tracedSeconds);

/** Write the tracer's spans to @p path and note the heaviest self
 *  times. */
void finishTrace(RunReport &report, const Tracer &tracer,
                 const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
