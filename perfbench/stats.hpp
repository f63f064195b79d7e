/**
 * @file
 * Statistics and host probes shared by the benchmark workloads:
 * nearest-rank percentiles with their sample counts, the "report a
 * tail only when ten samples lie beyond it" rule, failure tallies and
 * the /proc readings (CPU time, peak RSS, steal) that explain outlier
 * runs.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Samples a tail percentile needs beyond it before it is reported. */
constexpr std::size_t kTailSamplesBeyond = 10;

/** A nearest-rank percentile together with how well it is backed. */
struct Percentile
{
    double q = 0.0;          ///< requested quantile in [0, 1]
    double value = 0.0;      ///< the sample at rank ceil(q * n)
    std::size_t samples = 0; ///< n
    std::size_t beyond = 0;  ///< samples ranked strictly above it
    /** True when at least kTailSamplesBeyond samples lie beyond. */
    bool backed() const { return beyond >= kTailSamplesBeyond; }
};

/** Nearest-rank percentile of @p values (empty input gives n = 0). */
Percentile percentile(std::vector<double> values, double q);

/**
 * "p99 12.5 ms (1200 samples, 12 beyond it)". A tail percentile (q
 * above 0.5) that is not backed is not reported: "p99 not reported
 * (999 samples, only 9 beyond it)".
 */
std::string describe(const Percentile &p, const std::string &unit);

/** Median with the midpoint rule for even counts (0 when empty). */
double median(std::vector<double> values);

/** Answers attempted and failed. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void record(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
    double failedFraction() const
    {
        return attempted == 0 ? 0.0
                              : static_cast<double>(failed) /
                                    static_cast<double>(attempted);
    }
};

/** Aggregate CPU jiffies from the first line of /proc/stat. */
struct CpuJiffies
{
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
};
CpuJiffies readCpuJiffies();

/** Share of host CPU time stolen by the hypervisor between samples. */
double stealFraction(const CpuJiffies &before, const CpuJiffies &after);

/** User + system CPU seconds consumed by this process so far. */
double processCpuSeconds();

/** Peak resident set size of this process (VmHWM) in MiB. */
double peakRssMb();

/** The host's CPU model string ("unknown" when unreadable). */
std::string cpuModel();

/** Online hardware threads. */
unsigned hostThreads();

/** Monotonic nanoseconds since an arbitrary process-wide epoch. */
std::uint64_t nowNs();

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
