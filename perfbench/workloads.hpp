/**
 * @file
 * The benchmark's workloads and the report they fill. Each workload
 * builds its inputs from the run's seed, times repetitions for the
 * requested number of seconds, checks every answer, and reports the
 * end-to-end metrics (untraced run) or the per-layer metrics (traced
 * run, which also measures the tracing overhead against untraced
 * repetitions of the same run).
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <sched.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ruby/arch/arch_spec.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/workload/conv.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench
{

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its Chrome trace-event JSON. */
    std::string tracePath;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunReport
{
    std::vector<Metric> metrics;
    /** Informational lines printed before the result. */
    std::vector<std::string> notes;
    /** Correctness failures (empty when every check passed). */
    std::vector<std::string> problems;
    /** Answers attempted and failed across the timed repetitions. */
    Tally tally;

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void note(const std::string &line) { notes.push_back(line); }
    void problem(const std::string &line) { problems.push_back(line); }
};

/** Figures every workload reports end to end. */
struct EndToEnd
{
    std::vector<double> answerSeconds; ///< one per timed repetition
    std::vector<double> setupSeconds;  ///< one per set-up sample
    double edp = 0.0;
    double peakRssMb = 0.0;
};

/** Emit answer_s, edp, setup_s and peak_rss_mb, with notes giving
 *  every sample count and failed_frac. */
void reportEndToEnd(RunReport &report, const EndToEnd &e2e);

/**
 * Call @p rep until @p seconds have passed and at least @p minReps
 * calls were made; returns each call's wall time in seconds. The
 * argument is the repetition index. @p before runs untimed ahead of
 * each call.
 */
std::vector<double> timeRepetitions(double seconds, std::size_t minReps,
                                    const std::function<void(std::size_t)> &rep,
                                    const std::function<void()> &before);

/** Set-up samples taken before the first repetition, and before each
 *  further one, so that setup_s spans the run as answer_s does. */
extern const std::size_t kSetupSamples;
extern const std::size_t kSetupSamplesPerRep;

/**
 * Append to @p out @p samples samples of @p batch @p setup calls, each
 * followed by an untimed @p teardown: each sample's mean time per call
 * in seconds. Batching lifts a set-up of a few microseconds above
 * timer and interrupt noise. With @p rotateCpus each sample runs
 * pinned to the next CPU in turn (only for set-ups that start no
 * threads, which would inherit the pin).
 */
void timeSetups(std::vector<double> &out, std::size_t samples,
                std::size_t batch, const std::function<void()> &setup,
                const std::function<void()> &teardown, bool rotateCpus);

/**
 * Pins the calling thread to the @p slot-th of its allowed CPUs (mod
 * their count) while alive, then restores its mask. Threads started
 * meanwhile inherit the pin. Each vCPU of a shared host slows down on
 * its own, so a single-threaded repetition that stayed on one vCPU
 * would time that vCPU; rotating repetitions over the CPUs times the
 * host.
 */
class PinToCpu
{
  public:
    explicit PinToCpu(unsigned slot);
    ~PinToCpu();
    PinToCpu(const PinToCpu &) = delete;
    PinToCpu &operator=(const PinToCpu &) = delete;

  private:
    cpu_set_t saved_;
    bool pinned_ = false;
};

/** Format a double with all its digits. */
std::string fmt(double v);

RunReport runResnet50(const RunConfig &config);
RunReport runCertifyOptimal(const RunConfig &config);
RunReport runServeFleet(const RunConfig &config);

/** One certify-optimal input: an optimal_gap shape on its preset,
 *  with the EDP certified when the benchmark was defined (the
 *  self-test re-derives it from the exhaustive oracle). */
struct CertifyCase
{
    std::string label;
    ruby::ArchSpec arch;
    ruby::ConvShape shape;
    ruby::ConstraintPreset preset;
    double certifiedEdp = 0.0;
};

/** The two certify-optimal inputs, Eyeriss first. */
std::vector<CertifyCase> certifyCases();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
