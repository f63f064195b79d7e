/**
 * @file
 * In-memory span recorder for the traced benchmark run. The harness
 * opens a span around each call it makes into a libruby layer (the
 * program itself is not instrumented); spans are kept in memory,
 * written once at the end as Chrome trace-event JSON (loadable in
 * Perfetto / chrome://tracing), and reduced to per-name self times.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

/** Parent value of a root span. */
constexpr std::int64_t kNoParent = -1;

struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::int64_t parent = kNoParent; ///< index into the span list
    std::uint64_t requestId = 0;     ///< shared by one request's spans
    std::uint32_t thread = 0;        ///< small per-thread number
};

/**
 * Thread-safe span recorder. A disabled tracer records nothing and
 * hands out kNoParent ids, so call sites need no branches.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Open a span; returns its id (kNoParent when disabled). */
    std::int64_t begin(std::string name, std::int64_t parent,
                       std::uint64_t requestId);
    /** Close span @p id (no-op for kNoParent). */
    void end(std::int64_t id);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: opened on construction, closed on destruction. */
class Scope
{
  public:
    Scope(Tracer &tracer, std::string name,
          std::int64_t parent = kNoParent, std::uint64_t requestId = 0)
        : tracer_(tracer),
          id_(tracer.begin(std::move(name), parent, requestId))
    {
    }
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::int64_t id_;
};

/** Per-name totals derived from a span list. */
struct SpanTotals
{
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0; ///< summed durations
    std::uint64_t selfNs = 0;  ///< summed self times
};

/**
 * Self time of each span: its duration minus the part of its interval
 * covered by the union of its children's intervals (children running
 * in parallel are not double-subtracted). Indexed like @p spans.
 */
std::vector<std::uint64_t> selfTimes(const std::vector<Span> &spans);

/** Totals keyed by span name. */
std::map<std::string, SpanTotals>
totalsByName(const std::vector<Span> &spans);

/** Durations in seconds of every span called @p name, in order. */
std::vector<double> durationsSeconds(const std::vector<Span> &spans,
                                     const std::string &name);

/** Write @p spans as Chrome trace-event JSON ("X" events, µs). */
void writeChromeTrace(std::ostream &out, const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
