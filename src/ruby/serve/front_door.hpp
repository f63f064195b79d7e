/**
 * @file
 * The front door both serving tiers share.
 *
 * ruby-served (server.hpp) and ruby-router (router.hpp) accept the
 * same wire protocol in the same way and differ only in what an
 * admitted map/net request does: the daemon runs the search, the
 * router forwards it to a backend. FrontDoor owns everything else,
 * once:
 *
 *  - the listening socket (Unix-domain with stale-socket recovery, or
 *    TCP with SO_REUSEADDR) and the epoll reactor thread
 *    (event_loop.hpp) that owns every connection;
 *  - per-connection in-order dispatch: one request inflight per
 *    connection, later lines queued behind it, reads paused while the
 *    backlog is deep;
 *  - the one-thread parse stage: malformed and oversize lines get an
 *    error response, ping/stats/shutdown are answered inline, and a
 *    map/net request takes the fast path — response-cache lookup,
 *    then single-flight join, then admission (admission.hpp);
 *  - the worker pool running the subclass's work step, after which
 *    code-0 responses are cached and fanned out to the flight's
 *    followers, each re-stamped with its own id;
 *  - the request counters, the latency histogram of work that ran,
 *    the shared parts of the ping health report and of the stats
 *    payload;
 *  - the self-pipe SIGTERM/SIGINT drain and the drain sequence.
 *
 * A subclass supplies its work step, its stats payload, its ping
 * extras, start/drain hooks and a FrontDoorLabel, which keeps each
 * tier's error and log messages in its own words.
 */

#ifndef RUBY_SERVE_FRONT_DOOR_HPP
#define RUBY_SERVE_FRONT_DOOR_HPP

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "ruby/common/thread_pool.hpp"
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

/** Settings every front door has (ServeOptions and RouterOptions
 *  derive from this). */
struct FrontDoorOptions
{
    /** Unix-domain socket path; preferred when non-empty. */
    std::string unixPath;

    /** TCP bind address (used when unixPath is empty). */
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (see FrontDoor::port()). */
    int port = 0;

    /** Requests allowed to wait for a slot before rejection. */
    std::size_t queueCapacity = 8;

    /** Response-cache capacity (entries). Repeats of deterministic
     *  requests are served from a cache of raw response lines, and
     *  identical inflight requests coalesce onto one run
     *  (single-flight). Replayed bytes are identical to a fresh
     *  run's — only stats/ping gauges reveal the cache. */
    std::size_t responseCacheCapacity = 1024;

    /** Grace period for inflight work on drain. */
    std::chrono::milliseconds drainBudget{10'000};

    /** Maximum accepted request-line length in bytes. */
    std::size_t maxLineBytes = 4u << 20;

    /** Lifecycle log lines on stderr (listening/drain/final stats). */
    bool logLifecycle = true;
};

/** The words a front door uses in its messages. */
struct FrontDoorLabel
{
    /** Error-message prefix ("serve" -> "serve: socket(): ..."). */
    const char *check;
    /** Log-line prefix ("ruby-served" -> "ruby-served: drain ..."). */
    const char *process;
    /** What is draining ("daemon" -> "daemon is shutting down"). */
    const char *self;
    /** What may hold the socket path ("owned by a live daemon"). */
    const char *owner;
    /** What is full ("admission queue" -> "admission queue full"). */
    const char *queue;
};

/**
 * Lifecycle: construct -> start() -> (requests served on internal
 * threads) -> requestShutdown() from any thread or a signal via
 * installSignalDrain() -> waitForShutdown() performs the drain and
 * joins every thread. A subclass destructor calls drainOnDestroy()
 * so an undrained front door drains while its hooks still exist.
 */
class FrontDoor
{
  public:
    FrontDoor(const FrontDoor &) = delete;
    FrontDoor &operator=(const FrontDoor &) = delete;

    /** Bind, listen and start accepting. Throws ruby::Error when the
     *  socket cannot be set up — including when the unix socket path
     *  is owned by a *live* process; a stale path left by a crash is
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
     * finish, close connections, join all threads and emit the final
     * stats line.
     */
    void waitForShutdown();

    /**
     * Route SIGTERM/SIGINT to @p door's requestShutdown() via a
     * self-pipe (async-signal-safe). One front door per process;
     * call after start().
     */
    static void installSignalDrain(FrontDoor &door);

    /** Open client connections right now (thread-safe; testing). */
    std::size_t connectionCount() const
    {
        return loop_ != nullptr ? loop_->connectionCount() : 0;
    }

  protected:
    /** @p slots is the worker-pool size and the admission limit. */
    FrontDoor(const FrontDoorOptions &options, unsigned slots,
              FrontDoorLabel label);
    virtual ~FrontDoor();

    /** Drain if started and not yet drained (subclass destructors). */
    void drainOnDestroy();

    /**
     * The work step for one admitted map/net request (worker thread).
     * @p line is the request line as received. Set @p cacheTag to
     * cache a code-0 response under that tag (see cacheTagValid);
     * leave it empty to never cache it. A thrown ruby::Error becomes
     * a user-error response, anything else an internal one.
     */
    virtual JsonValue work(const Request &request,
                           const std::string &line,
                           std::optional<std::uint64_t> &cacheTag) = 0;

    /** Is a cached line's tag still current? A rejected entry is
     *  dropped and the request runs again. */
    virtual bool cacheTagValid(std::uint64_t) const { return true; }

    /** The payload of "stats" responses and of the final stats line
     *  (thread-safe). */
    virtual JsonValue statsReport() = 0;

    /** Fill the tier-specific fields of a ping's health report. */
    virtual void addHealth(Health &) const {}

    /** Text appended to the "listening on" log line. */
    virtual std::string listeningDetail() const { return ""; }

    /** start(): the reactor exists but does not serve yet. */
    virtual void onStart() {}
    /** requestShutdown() was called for the first time. */
    virtual void onShutdownRequested() {}
    /** The drain budget ran out with work still inflight; the drain
     *  then waits for it. */
    virtual void onDrainBudgetExpired() {}
    /** Every front-door thread has been joined. */
    virtual void onDrained() {}

    /** "<process>: <message>" on stderr, when logging lifecycle. */
    void log(const std::string &message) const;

    /** Milliseconds since start(). */
    std::uint64_t uptimeMs() const;
    /** The admission gate's gauges and counters right now. */
    Admission::Snapshot admissionSnapshot() const
    {
        return admission_.snapshot();
    }
    /** Set received/completed/errors/connectionsAccepted on @p block. */
    void setRequestCounters(JsonValue &block) const;
    /** The "responseCache" stats block (cache + single-flight). */
    JsonValue responseCacheJson() const;
    /** The "latency" stats block. */
    JsonValue latencyJson() const;

  private:
    /** Per-connection dispatch state: requests run strictly in
     *  order, one inflight at a time (guarded by connMutex_). */
    struct ConnState
    {
        std::deque<std::string> pending;
        bool busy = false;
        bool paused = false; ///< reads paused for backpressure
    };

    /** A map/net request on its way to the work step. */
    using Flight = SingleFlight::Waiter;

    void bindListener();

    // Reactor callbacks (reactor thread).
    void onConnect(EventLoop::ConnId id);
    void onLine(EventLoop::ConnId id, std::string &&line);
    void onOversize(EventLoop::ConnId id);
    void onDisconnect(EventLoop::ConnId id);

    /** Hand @p line to the parse stage. */
    void submitLine(EventLoop::ConnId id, std::string line);
    /** Parse + dispatch one line (pipeline thread). */
    void processLine(EventLoop::ConnId id, std::string line);
    /** Response cache, then single-flight, then admission (any
     *  thread). */
    void dispatch(const Flight &flight);
    /** Admission for the flight leader (any thread). @p key is the
     *  response-cache key ("" = uncacheable). */
    void admit(const Flight &leader, const std::string &key);
    /** Queue the leader's work step on the worker pool. */
    void submitRun(const Flight &leader, const std::string &key);
    /** Run the work step and answer the flight (worker thread). */
    void run(const Flight &leader, const std::string &key);
    /** Answer the leader and its followers with a rejection. */
    void reject(const Flight &leader, const std::string &key,
                const char *kind, const std::string &message);
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
    Health health() const;

    const FrontDoorLabel label_;
    const FrontDoorOptions options_;
    const unsigned slots_;

    ResponseCache responseCache_;
    SingleFlight singleFlight_;

    Admission admission_;
    std::unique_ptr<ThreadPool> workers_;
    /** One-thread parse/dispatch stage between reactor and workers. */
    std::unique_ptr<ThreadPool> pipeline_;

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
};

} // namespace serve
} // namespace ruby

#endif // RUBY_SERVE_FRONT_DOOR_HPP
