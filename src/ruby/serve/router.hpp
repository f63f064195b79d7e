/**
 * @file
 * ruby-router: a consistent-hash front for a fleet of ruby-served
 * daemons.
 *
 * The router speaks wire protocol v1 on its own socket and forwards
 * map/net requests to N backend daemons. The routing key is the
 * request's (architecture signature, shape fingerprint) — search
 * options are deliberately excluded, so the same shape with a
 * different budget lands on the same shard and hits its warm
 * LayerMemo. Keys map to backends through a consistent-hash ring
 * with bounded loads: each backend owns `replicas` virtual nodes,
 * and the ring walk skips a backend whose share of the router's
 * inflight forwards exceeds loadFactor times its fair share, so one
 * hot shape cannot melt a shard while the rest of the fleet idles.
 *
 * Failure semantics: a health-check thread pings every backend (the
 * deep health report of protocol.hpp); a backend that refuses
 * connections or reports draining leaves the ring until it recovers,
 * and its share of the key space re-hashes onto the survivors.
 * In-flight forwards ride Client::callWithRetry — dropped
 * connections are re-dialed, "saturated" is retried with backoff,
 * "draining" triggers an immediate re-route — so the requester sees
 * the true final outcome. Responses are re-encoded through the
 * fixpoint JSON codec, so remote output through the router is
 * byte-identical to talking to the daemon directly (and to offline).
 *
 * A "stats" request fans in: the router queries every healthy
 * backend and returns one aggregated fleet report (summed counters,
 * bucket-wise merged latency histograms, fleet-wide cache hit rate)
 * plus per-backend gauges; dead backends are reported unhealthy and
 * contribute nothing. "ping" answers with the router's own health.
 * "shutdown" drains the router only — backends keep serving, which
 * is what a rolling restart wants.
 */

#ifndef RUBY_SERVE_ROUTER_HPP
#define RUBY_SERVE_ROUTER_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ruby/common/thread_pool.hpp"
#include "ruby/serve/admission.hpp"
#include "ruby/serve/client.hpp"
#include "ruby/serve/event_loop.hpp"
#include "ruby/serve/json.hpp"
#include "ruby/serve/latency_histogram.hpp"
#include "ruby/serve/protocol.hpp"
#include "ruby/serve/response_cache.hpp"

namespace ruby
{
namespace serve
{

/**
 * A consistent-hash ring with virtual nodes. Deterministic: the same
 * (nodes, replicas, key) always yields the same walk order, on every
 * platform — the hash is FNV-1a, not std::hash.
 */
class ConsistentRing
{
  public:
    /** @p nodes must be distinct; @p replicas virtual nodes each. */
    ConsistentRing(std::vector<std::string> nodes, unsigned replicas);

    std::size_t nodeCount() const { return nodes_.size(); }

    /**
     * The ring walk for @p key: every node index exactly once, in
     * the order a bounded-load lookup probes them.
     */
    std::vector<std::size_t> walk(const std::string &key) const;

    /**
     * First node in walk(key) accepted by @p accept; nodeCount()
     * when none is.
     */
    std::size_t pick(const std::string &key,
                     const std::function<bool(std::size_t)> &accept)
        const;

    /** The stable 64-bit key hash the ring positions against. */
    static std::uint64_t hashKey(const std::string &key);

  private:
    std::vector<std::string> nodes_;
    /** (point, node index), sorted by point. */
    std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
};

/** Router configuration. */
struct RouterOptions
{
    /** Front unix-domain socket path; preferred when non-empty. */
    std::string unixPath;
    /** Front TCP bind address (used when unixPath is empty). */
    std::string host = "127.0.0.1";
    /** Front TCP port; 0 binds an ephemeral port. */
    int port = 0;

    /** Backend daemons (at least one). */
    std::vector<Endpoint> backends;

    /** Virtual nodes per backend on the hash ring. */
    unsigned replicas = 64;
    /** Bounded-load factor: a backend is skipped when its inflight
     *  share exceeds loadFactor times the fair share. */
    double loadFactor = 1.25;

    /** Health-check cadence. */
    std::chrono::milliseconds healthInterval{500};

    /** Concurrent forwarding threads. */
    unsigned maxForwards = 8;
    /** Requests allowed to wait for a forwarding slot. */
    std::size_t queueCapacity = 64;

    /** Forwarding retry schedule (re-dial drops, back off on
     *  "saturated"; "draining" re-routes instead). */
    RetryPolicy retry{3, std::chrono::milliseconds{10'000},
                      std::chrono::milliseconds{50},
                      std::chrono::milliseconds{2'000}, 1};

    /** Serve repeats of deterministic requests at the router, without
     *  touching a backend; coalesce identical inflight forwards.
     *  Entries are invalidated when the owning backend health-flaps
     *  (per-backend epoch), so a restarted shard never serves stale
     *  bytes. */
    bool responseCache = true;
    /** Router response-cache capacity (entries). */
    std::size_t responseCacheCapacity = 1024;

    /** Grace period for inflight forwards on drain. */
    std::chrono::milliseconds drainBudget{10'000};

    /** Maximum accepted request-line length in bytes. */
    std::size_t maxLineBytes = 4u << 20;

    /** Lifecycle log lines on stderr. */
    bool logLifecycle = true;
};

/**
 * The router process core. Lifecycle mirrors Server: construct ->
 * start() -> requestShutdown() (or installSignalDrain) ->
 * waitForShutdown().
 */
class Router
{
  public:
    explicit Router(RouterOptions options);
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    void start();

    /** Bound front TCP port (0 for unix sockets). */
    int port() const { return boundPort_; }

    void requestShutdown();
    bool shutdownRequested() const;
    void waitForShutdown();

    /** Route SIGTERM/SIGINT to @p router's requestShutdown(). */
    static void installSignalDrain(Router &router);

    /** The aggregated fleet report served to "stats" (thread-safe;
     *  queries every healthy backend inline). */
    JsonValue fleetStatsJson();

    /** The routing key for @p request (map/net only): architecture +
     *  shape, never search options. Exposed for tests. */
    static std::string routingKey(const Request &request);

    /** Backend index the ring prefers for @p key right now, ignoring
     *  load (health only); backends.size() when none is healthy.
     *  Exposed for tests. */
    std::size_t preferredBackend(const std::string &key) const;

  private:
    struct BackendState
    {
        Endpoint endpoint;
        std::atomic<bool> healthy{true};
        std::atomic<bool> draining{false};
        std::atomic<unsigned> inflight{0};
        std::atomic<std::uint64_t> routed{0};
        /** Health epoch: bumped on every flap (lost, recovered,
         *  draining detected). Response-cache entries are tagged
         *  with the epoch they were produced under and lazily
         *  dropped once it moves. */
        std::atomic<std::uint64_t> epoch{0};
        // Idle pooled connections (guarded by poolMutex).
        std::mutex poolMutex;
        std::vector<Client> pool;
    };

    /** Per-connection dispatch state (guarded by connMutex_). */
    struct ConnState
    {
        std::deque<std::string> pending;
        bool busy = false;
        bool paused = false;
    };

    void bindListener();

    // Reactor callbacks.
    void onConnect(EventLoop::ConnId id);
    void onLine(EventLoop::ConnId id, std::string &&line);
    void onOversize(EventLoop::ConnId id);
    void onDisconnect(EventLoop::ConnId id);

    void processLine(EventLoop::ConnId id, const std::string &line);
    /** Cache/coalesce, then admission, for a map/net request. */
    void dispatchForward(EventLoop::ConnId id,
                         std::shared_ptr<Request> request,
                         std::shared_ptr<std::string> rawLine);
    /** Admission outcome for the flight leader. @p cacheKey is the
     *  response-cache key ("" = uncacheable). */
    void admitForward(EventLoop::ConnId id,
                      std::shared_ptr<Request> request,
                      std::shared_ptr<std::string> rawLine,
                      std::string cacheKey);
    void runForward(EventLoop::ConnId id,
                    const std::shared_ptr<Request> &request,
                    const std::shared_ptr<std::string> &rawLine,
                    const std::string &cacheKey);
    /** Forward @p line for @p key, failing over across backends.
     *  @p servedBy gets the index of the backend that answered
     *  (backends.size() when none did). */
    JsonValue forwardToFleet(const std::string &key,
                             const std::string &requestId,
                             const std::string &line,
                             std::size_t &servedBy);
    /** Deliver @p response to every follower of @p cacheKey. */
    void completeFlight(const std::string &cacheKey,
                        const JsonValue &response);
    /** Epoch tag for a cache entry owned by backend @p index. */
    std::uint64_t cacheTag(std::size_t index) const;
    /** Does @p tag still match its backend's current epoch? */
    bool cacheTagValid(std::uint64_t tag) const;
    /** Bump @p index's epoch (call on every health transition). */
    void bumpEpoch(std::size_t index);
    void respond(EventLoop::ConnId id, const JsonValue &response,
                 bool shutdownAfterSend);
    void dispatchNext(EventLoop::ConnId id);

    JsonValue handleQuick(const Request &request,
                          bool &shutdownAfterSend);

    /** Pick a backend for @p key: healthy, not excluded, within the
     *  load bound (any healthy non-excluded one when all are over).
     *  Returns backends.size() when nothing qualifies. */
    std::size_t pickBackend(const std::string &key,
                            const std::vector<bool> &excluded) const;

    // Pooled backend connections.
    Client takeConnection(std::size_t backend);
    void storeConnection(std::size_t backend, Client &&client);
    void dropConnections(std::size_t backend);

    void healthLoop();
    void checkBackend(std::size_t index);

    void logLine(const std::string &line) const;

    RouterOptions options_;
    std::unique_ptr<ConsistentRing> ring_;
    std::vector<std::unique_ptr<BackendState>> backends_;

    /** Raw backend response lines for deterministic repeats (null
     *  when --no-response-cache). */
    std::unique_ptr<ResponseCache> responseCache_;
    SingleFlight singleFlight_;

    Admission admission_;
    std::unique_ptr<ThreadPool> forwarders_;
    /** One-thread parse/dispatch stage (mirrors Server). */
    std::unique_ptr<ThreadPool> pipeline_;

    std::unique_ptr<EventLoop> loop_;
    std::thread reactorThread_;
    std::thread healthThread_;
    std::thread signalThread_;

    int listenFd_ = -1;
    int boundPort_ = 0;
    std::array<int, 2> sigPipe_{-1, -1};

    mutable std::mutex mutex_;
    std::condition_variable shutdownCv_;
    bool started_ = false;
    bool shutdownRequested_ = false;
    bool drained_ = false;

    /** Wakes the health thread early on shutdown. */
    std::mutex healthMutex_;
    std::condition_variable healthCv_;

    mutable std::mutex connMutex_;
    std::unordered_map<EventLoop::ConnId, ConnState> connStates_;

    std::chrono::steady_clock::time_point startTime_;

    mutable std::mutex statsMutex_;
    std::uint64_t received_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t errors_ = 0;
    std::uint64_t connectionsAccepted_ = 0;
    std::uint64_t reroutes_ = 0;
    LatencyHistogram latency_;
};

} // namespace serve
} // namespace ruby

#endif // RUBY_SERVE_ROUTER_HPP
