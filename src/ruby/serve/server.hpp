/**
 * @file
 * ruby-served: a persistent mapping-as-a-service daemon.
 *
 * One process owns the expensive warm state — a cross-request
 * LayerMemo and a cache of raw response lines — and serves mapping
 * searches over a Unix-domain or TCP socket speaking the NDJSON
 * protocol of protocol.hpp. Per-request SearchOptions arrive on the
 * wire and are enforced with the library's existing
 * deadline/cancellation machinery; admission control (admission.hpp)
 * bounds concurrency and queueing; SIGTERM or a "shutdown" request
 * begins a graceful drain (stop accepting, finish or cancel inflight
 * work under a drain budget, flush a final stats line).
 *
 * I/O architecture: the FrontDoor (front_door.hpp) — one epoll
 * reactor thread owning every socket, a one-thread parse stage,
 * admission, the response cache + single-flight fast path and the
 * drain — with searches running on the maxInflight-thread worker
 * pool. Each connection runs its requests strictly in order.
 *
 * Determinism contract: a cold request (one whose layers the daemon
 * has not searched before) produces a response line byte-identical
 * to the same offline run, however warm the daemon is; the
 * cross-request memo replays only deterministic configurations, so a
 * repeat returns the same outcome marked memoized (see
 * SearchOptions::sharedLayerMemo and docs/SERVING.md).
 */

#ifndef RUBY_SERVE_SERVER_HPP
#define RUBY_SERVE_SERVER_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "ruby/common/cancel.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/serve/front_door.hpp"

namespace ruby
{
namespace serve
{

/** Daemon configuration: the front-door settings plus its search
 *  slots. */
struct ServeOptions : FrontDoorOptions
{
    /** Concurrent search slots. */
    unsigned maxInflight = 2;
};

/**
 * The daemon: a FrontDoor whose work step runs the search. Past the
 * drain budget its drain token fires and searches return their
 * best-so-far. The destructor drains if the caller did not.
 */
class Server : public FrontDoor
{
  public:
    explicit Server(const ServeOptions &options);
    ~Server() override;

    /** The stats payload served to "stats" requests (thread-safe). */
    JsonValue statsJson() const;

  private:
    struct StrategyStats
    {
        std::uint64_t requests = 0;
        std::uint64_t evaluations = 0;
        std::uint64_t millis = 0;
    };

    JsonValue work(const Request &request, const std::string &line,
                   std::optional<std::uint64_t> &cacheTag) override;
    JsonValue statsReport() override { return statsJson(); }
    void addHealth(Health &health) const override;
    void onDrainBudgetExpired() override;

    JsonValue runMap(const Request &request);
    JsonValue runNet(const Request &request);
    /** Stamp shared state + drain cancel into request options. */
    void prepareSearchOptions(SearchOptions &search);
    void recordStrategy(SearchStrategy strategy,
                        std::uint64_t evaluations,
                        std::chrono::microseconds elapsed);

    // Process-lifetime warm state shared by every request.
    LayerMemo layerMemo_;
    CancelToken drainCancel_;

    mutable std::mutex strategyMutex_;
    std::array<StrategyStats, 5> strategyStats_{};
};

} // namespace serve
} // namespace ruby

#endif // RUBY_SERVE_SERVER_HPP
