/**
 * @file
 * Evaluation reporting: a human-readable per-level breakdown (akin to
 * Timeloop's stats output) and a machine-readable YAML-style dump of
 * one mapping evaluation.
 */

#ifndef RUBY_IO_REPORT_HPP
#define RUBY_IO_REPORT_HPP

#include <ostream>

#include "ruby/model/evaluator.hpp"
#include "ruby/search/driver.hpp"

namespace ruby
{

/**
 * Print a full breakdown of @p result: per-level reads/writes and
 * energy per tensor, latency components and the headline metrics.
 */
void printReport(std::ostream &os, const Problem &problem,
                 const ArchSpec &arch, const EvalResult &result);

/**
 * Emit the evaluation as a YAML document (parseable back by
 * parseYaml, every metric as a Number node; used for logging results
 * from scripts).
 */
void writeResultYaml(std::ostream &os, const Problem &problem,
                     const ArchSpec &arch, const EvalResult &result);

/**
 * Print a per-layer status table for a whole-network sweep: mapped
 * layers with their metrics, failed layers with their FailureKind and
 * diagnostic, then the count-weighted totals and a failure summary.
 * Renders partial results instead of requiring every layer to map.
 */
void printNetworkSummary(std::ostream &os, const NetworkOutcome &net);

} // namespace ruby

#endif // RUBY_IO_REPORT_HPP
