#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench
{

Percentile
percentile(std::vector<double> values, double q)
{
    Percentile p;
    p.q = q;
    p.samples = values.size();
    if (values.empty())
        return p;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    p.value = values[rank - 1];
    p.beyond = values.size() - rank;
    return p;
}

std::string
describe(const Percentile &p, const std::string &unit)
{
    std::ostringstream out;
    out << "p" << std::lround(p.q * 100.0);
    const bool reported = p.q <= 0.5 || p.backed();
    if (reported)
        out << " " << p.value << " " << unit;
    else
        out << " not reported";
    out << " (" << p.samples << " samples, " << (reported ? "" : "only ")
        << p.beyond << " beyond it)";
    return out.str();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

CpuJiffies
readCpuJiffies()
{
    CpuJiffies out;
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    if (label != "cpu")
        return out;
    // user nice system idle iowait irq softirq steal guest guest_nice
    std::uint64_t field[8] = {};
    for (std::uint64_t &f : field)
        in >> f;
    for (const std::uint64_t f : field)
        out.total += f;
    out.steal = field[7];
    return out;
}

double
stealFraction(const CpuJiffies &before, const CpuJiffies &after)
{
    if (after.total <= before.total)
        return 0.0;
    return static_cast<double>(after.steal - before.steal) /
           static_cast<double>(after.total - before.total);
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) != 0)
            continue;
        std::istringstream fields(line.substr(6));
        double kb = 0.0;
        fields >> kb;
        return kb / 1024.0;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? std::string()
                                          : line.substr(start);
    }
    return "unknown";
}

unsigned
hostThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

std::uint64_t
nowNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

} // namespace perfbench
