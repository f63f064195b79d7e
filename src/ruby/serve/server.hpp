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
 * I/O architecture (since the event-loop rewrite): a single epoll
 * reactor thread (event_loop.hpp) owns every socket — idle
 * connections cost zero threads. Complete request lines flow through
 * a one-thread dispatch stage (parse + quick requests + admission)
 * and searches run on the maxInflight-thread worker pool; responses
 * are posted back to the reactor for write-behind flushing. Each
 * connection runs its requests strictly in order (no pipelining past
 * an inflight search — the same backpressure the thread-per-session
 * server enforced by blocking).
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
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "ruby/common/cancel.hpp"
#include "ruby/common/thread_pool.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/serve/admission.hpp"
#include "ruby/serve/event_loop.hpp"
#include "ruby/serve/json.hpp"
#include "ruby/serve/latency_histogram.hpp"
#include "ruby/serve/protocol.hpp"
#include "ruby/serve/response_cache.hpp"

namespace ruby
{
namespace serve
{

/** Daemon configuration. */
struct ServeOptions
{
    /** Unix-domain socket path; preferred when non-empty. */
    std::string unixPath;

    /** TCP bind address (used when unixPath is empty). */
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (see Server::port()). */
    int port = 0;

    /** Concurrent search slots. */
    unsigned maxInflight = 2;
    /** Requests allowed to wait for a slot before rejection. */
    std::size_t queueCapacity = 8;

    /** Serve repeats of deterministic requests from a cache of raw
     *  response lines, and coalesce identical inflight requests onto
     *  one search (single-flight). Replayed bytes are identical to a
     *  fresh search's — only stats/ping gauges reveal the cache. */
    bool responseCache = true;
    /** Response-cache capacity (entries). */
    std::size_t responseCacheCapacity = 1024;

    /** Grace period for inflight work on drain; after it expires the
     *  drain CancelToken fires and searches return best-so-far. */
    std::chrono::milliseconds drainBudget{10'000};

    /** Maximum accepted request-line length in bytes. */
    std::size_t maxLineBytes = 4u << 20;

    /** Lifecycle log lines on stderr (listening/drain/final stats). */
    bool logLifecycle = true;
};

/**
 * The daemon. Lifecycle: construct -> start() -> (requests served on
 * internal threads) -> requestShutdown() from any thread or signal
 * via installSignalDrain() -> waitForShutdown() performs the drain
 * and joins every thread. The destructor drains if the caller did
 * not.
 */
class Server
{
  public:
    explicit Server(ServeOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen and start accepting. Throws ruby::Error when the
     *  socket cannot be set up — including when the unix socket path
     *  is owned by a *live* daemon; a stale path left by a crash is
     *  unlinked and rebound automatically. */
    void start();

    /** Bound TCP port (after start(); 0 for Unix-domain sockets). */
    int port() const { return boundPort_; }

    /** Begin graceful drain from any thread (idempotent). */
    void requestShutdown();

    /** True once requestShutdown() has been called. */
    bool shutdownRequested() const;

    /**
     * Block until shutdown is requested, then drain: stop accepting,
     * reject queued work, give inflight requests drainBudget to
     * finish, cancel whatever remains, close sessions, join all
     * threads and emit the final stats line.
     */
    void waitForShutdown();

    /**
     * Route SIGTERM/SIGINT to @p server's requestShutdown() via a
     * self-pipe (async-signal-safe). One server per process; call
     * after start().
     */
    static void installSignalDrain(Server &server);

    /** The stats payload served to "stats" requests (thread-safe). */
    JsonValue statsJson() const;

    /** Open client connections right now (thread-safe; testing). */
    std::size_t connectionCount() const
    {
        return loop_ != nullptr ? loop_->connectionCount() : 0;
    }

  private:
    struct StrategyStats
    {
        std::uint64_t requests = 0;
        std::uint64_t evaluations = 0;
        std::uint64_t millis = 0;
    };

    /** Per-connection dispatch state: requests run strictly in
     *  order, one inflight at a time (guarded by connMutex_). */
    struct ConnState
    {
        std::deque<std::string> pending;
        bool busy = false;
        bool paused = false; ///< reads paused for backpressure
    };

    void bindListener();

    // Reactor callbacks (reactor thread).
    void onConnect(EventLoop::ConnId id);
    void onLine(EventLoop::ConnId id, std::string &&line);
    void onOversize(EventLoop::ConnId id);
    void onDisconnect(EventLoop::ConnId id);

    /** Parse + dispatch one line (pipeline thread). */
    void processLine(EventLoop::ConnId id, const std::string &line);
    /** Cache/coalesce, then admission, for a map/net request (any
     *  thread). */
    void dispatchSearch(EventLoop::ConnId id,
                        std::shared_ptr<Request> request);
    /** Admission outcome for the flight leader (any thread).
     *  @p key is the response-cache key ("" = uncacheable). */
    void admitSearch(EventLoop::ConnId id,
                     std::shared_ptr<Request> request,
                     std::string key);
    /** Run the search on the worker pool (worker thread). */
    void runSearch(EventLoop::ConnId id,
                   const std::shared_ptr<Request> &request,
                   const std::string &key);
    /** Deliver @p response to every follower of @p key, each
     *  re-stamped with its own request id (any thread). */
    void completeFlight(const std::string &key,
                        const JsonValue &response);
    /** Count + send the response, then start the connection's next
     *  pending request (any thread). */
    void respond(EventLoop::ConnId id, const JsonValue &response,
                 bool shutdownAfterSend);
    void dispatchNext(EventLoop::ConnId id);

    JsonValue handleQuick(const Request &request,
                          bool &shutdownAfterSend);
    JsonValue runMap(const Request &request);
    JsonValue runNet(const Request &request);
    /** Stamp shared state + drain cancel into request options. */
    void prepareSearchOptions(SearchOptions &search);
    void recordStrategy(SearchStrategy strategy,
                        std::uint64_t evaluations,
                        std::chrono::microseconds elapsed);
    void logLine(const std::string &line) const;

    ServeOptions options_;

    // Process-lifetime warm state shared by every request.
    LayerMemo layerMemo_;
    /** Raw response lines for deterministic repeats (null when
     *  --no-response-cache). */
    std::unique_ptr<ResponseCache> responseCache_;
    SingleFlight singleFlight_;

    Admission admission_;
    std::unique_ptr<ThreadPool> workers_;
    /** One-thread parse/dispatch stage between reactor and workers. */
    std::unique_ptr<ThreadPool> pipeline_;
    CancelToken drainCancel_;

    std::unique_ptr<EventLoop> loop_;
    std::thread reactorThread_;

    int listenFd_ = -1;
    int boundPort_ = 0;
    std::array<int, 2> sigPipe_{-1, -1};
    std::thread signalThread_;

    mutable std::mutex mutex_;
    std::condition_variable shutdownCv_;
    bool started_ = false;
    bool shutdownRequested_ = false;
    bool drained_ = false;

    mutable std::mutex connMutex_;
    std::unordered_map<EventLoop::ConnId, ConnState> connStates_;

    std::chrono::steady_clock::time_point startTime_;

    // Request counters (guarded by statsMutex_).
    mutable std::mutex statsMutex_;
    std::uint64_t received_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t errors_ = 0;
    std::uint64_t connectionsAccepted_ = 0;
    LatencyHistogram latency_;
    std::array<StrategyStats, 5> strategyStats_{};
};

} // namespace serve
} // namespace ruby

#endif // RUBY_SERVE_SERVER_HPP
