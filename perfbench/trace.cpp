#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "ruby/serve/json.hpp"
#include "stats.hpp"

namespace perfbench
{

namespace
{

std::uint32_t
threadNumber()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t mine = next.fetch_add(1);
    return mine;
}

} // namespace

std::int64_t
Tracer::begin(std::string name, std::int64_t parent,
              std::uint64_t requestId)
{
    if (!enabled_)
        return kNoParent;
    Span span;
    span.name = std::move(name);
    span.parent = parent;
    span.requestId = requestId;
    span.thread = threadNumber();
    span.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size() - 1);
}

void
Tracer::end(std::int64_t id)
{
    if (id == kNoParent)
        return;
    const std::uint64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].endNs = now;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<std::uint64_t>
selfTimes(const std::vector<Span> &spans)
{
    // Children's intervals, clipped to their parent's interval.
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children(spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0 ||
            static_cast<std::size_t>(s.parent) >= spans.size())
            continue;
        const Span &p = spans[static_cast<std::size_t>(s.parent)];
        const std::uint64_t lo = std::max(s.startNs, p.startNs);
        const std::uint64_t hi = std::min(s.endNs, p.endNs);
        if (lo < hi)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                lo, hi);
    }
    std::vector<std::uint64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::uint64_t duration =
            spans[i].endNs > spans[i].startNs
                ? spans[i].endNs - spans[i].startNs
                : 0;
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0;
        std::uint64_t runLo = 0, runHi = 0;
        bool open = false;
        for (const auto &[lo, hi] : iv) {
            if (open && lo <= runHi) {
                runHi = std::max(runHi, hi);
                continue;
            }
            if (open)
                covered += runHi - runLo;
            runLo = lo;
            runHi = hi;
            open = true;
        }
        if (open)
            covered += runHi - runLo;
        self[i] = duration - std::min(duration, covered);
    }
    return self;
}

std::map<std::string, SpanTotals>
totalsByName(const std::vector<Span> &spans)
{
    const std::vector<std::uint64_t> self = selfTimes(spans);
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanTotals &t = out[spans[i].name];
        ++t.count;
        t.totalNs += spans[i].endNs - spans[i].startNs;
        t.selfNs += self[i];
    }
    return out;
}

std::vector<double>
durationsSeconds(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const Span &s : spans)
        if (s.name == name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) *
                          1e-9);
    return out;
}

void
writeChromeTrace(std::ostream &out, const std::vector<Span> &spans)
{
    using ruby::serve::JsonValue;
    JsonValue events = JsonValue::makeArray();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        JsonValue args = JsonValue::makeObject();
        args.set("id", JsonValue::makeU64(i));
        args.set("parent", JsonValue::makeI64(s.parent));
        args.set("request", JsonValue::makeU64(s.requestId));
        JsonValue e = JsonValue::makeObject();
        e.set("name", JsonValue::makeString(s.name));
        e.set("ph", JsonValue::makeString("X"));
        e.set("ts", JsonValue::makeDouble(
                        static_cast<double>(s.startNs) * 1e-3));
        e.set("dur", JsonValue::makeDouble(
                         static_cast<double>(s.endNs - s.startNs) *
                         1e-3));
        e.set("pid", JsonValue::makeU64(1));
        e.set("tid", JsonValue::makeU64(s.thread));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    JsonValue root = JsonValue::makeObject();
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", JsonValue::makeString("ms"));
    out << ruby::serve::writeJson(root) << "\n";
}

} // namespace perfbench
