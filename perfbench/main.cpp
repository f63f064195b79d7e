/**
 * @file
 * Benchmark harness entry point:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE]
 *
 * Prints informational lines, then as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 */

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "stats.hpp"
#include "workloads.hpp"

namespace
{

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload resnet50-random|"
                 "certify-optimal|serve-fleet "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n";
    return 2;
}

/** @p v as a JSON number that always reads as a float: fmt()'s 17
 *  significant digits (exponent form for large magnitudes), with ".0"
 *  added to integral values. */
std::string
jsonNumber(double v)
{
    std::string s = perfbench::fmt(v);
    if (s.find_first_of(".e") == std::string::npos)
        s += ".0";
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload")
            config.workload = value;
        else if (flag == "--seed")
            config.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            config.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            config.trace = value == "1";
        else if (flag == "--trace-out")
            config.tracePath = value;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (!(config.seconds > 0.0))
        return usage("--seconds must be positive");

    std::cout << "# workload " << config.workload << ", seed "
              << config.seed << ", " << config.seconds << " s, trace "
              << (config.trace ? 1 : 0) << "\n"
              << "# host: nproc " << hostThreads() << ", cpu \""
              << cpuModel() << "\", build " << PERFBENCH_BUILD_TYPE
              << std::endl;

    RunReport report;
    if (config.workload == "resnet50-random")
        report = runResnet50(config);
    else if (config.workload == "certify-optimal")
        report = runCertifyOptimal(config);
    else if (config.workload == "serve-fleet")
        report = runServeFleet(config);
    else
        return usage(("unknown workload '" + config.workload + "'").c_str());

    for (const std::string &line : report.notes)
        std::cout << "# " << line << "\n";
    for (const Metric &m : report.metrics)
        if (!std::isfinite(m.value))
            report.problem("metric " + m.name + " is not finite");
    for (const std::string &line : report.problems)
        std::cout << "# CHECK FAILED: " << line << "\n";
    for (const Metric &m : report.metrics)
        std::cout << "# " << m.name << " = " << fmt(m.value) << " "
                  << m.unit << "\n";

    // Names and units are plain identifiers; nothing needs escaping.
    const bool correct = report.problems.empty() && report.tally.failed == 0;
    std::string line = std::string("{\"correct\":") +
                       (correct ? "true" : "false") +
                       ",\"attempted\":" +
                       std::to_string(report.tally.attempted) +
                       ",\"failed\":" + std::to_string(report.tally.failed) +
                       ",\"metrics\":{";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        line += (i ? ",\"" : "\"") + m.name + "\":{\"value\":" +
                (std::isfinite(m.value) ? jsonNumber(m.value) : "null") +
                ",\"unit\":\"" + m.unit + "\"}";
    }
    std::cout << line << "}}" << std::endl;
    return 0;
}
