#include "ruby/serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <future>
#include <iostream>
#include <optional>

#include "ruby/common/error.hpp"
#include "ruby/core/mapper.hpp"
#include "ruby/io/loaders.hpp"

namespace ruby
{
namespace serve
{

namespace
{

/** Lines a connection may buffer before its reads are paused. */
constexpr std::size_t kMaxPendingLines = 64;
/** Resume reads once the backlog shrinks to this point. */
constexpr std::size_t kResumePendingLines = kMaxPendingLines / 2;

/** Write descriptor the signal handler forwards SIGTERM/SIGINT to. */
std::atomic<int> g_signalFd{-1};

extern "C" void
serveSignalHandler(int)
{
    const int fd = g_signalFd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        const char byte = 's';
        // The return value is deliberately ignored: there is nothing
        // a signal handler could do about a full pipe, and one
        // pending byte already guarantees the drain starts.
        [[maybe_unused]] const auto rc = ::write(fd, &byte, 1);
    }
}

/** Best-effort id extraction for error responses to malformed lines. */
std::string
extractId(const std::string &line)
{
    try {
        const JsonValue root = parseJson(line);
        return root.getString("id", "");
    } catch (...) {
        return "";
    }
}

/** Is the unix socket at @p path backed by a live listener? */
bool
unixSocketIsLive(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const bool live =
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0;
    ::close(fd);
    return live;
}

} // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      admission_(options_.maxInflight, options_.queueCapacity)
{
    if (options_.responseCache)
        responseCache_ = std::make_unique<ResponseCache>(
            options_.responseCacheCapacity);
}

Server::~Server()
{
    if (started_ && !drained_) {
        requestShutdown();
        waitForShutdown();
    }
}

void
Server::bindListener()
{
    if (!options_.unixPath.empty()) {
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        RUBY_CHECK(listenFd_ >= 0, "serve: socket(): ",
                   std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        RUBY_CHECK(options_.unixPath.size() <
                       sizeof(addr.sun_path),
                   "serve: socket path too long: ",
                   options_.unixPath);
        std::strncpy(addr.sun_path, options_.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            // A crashed daemon leaves its socket file behind and the
            // fresh bind fails with EADDRINUSE. Probe the path: a
            // live daemon accepts the connect (never steal its
            // socket); a stale file refuses, so unlink and rebind.
            const int bindErrno = errno;
            RUBY_CHECK(bindErrno == EADDRINUSE,
                       "serve: cannot bind ", options_.unixPath,
                       ": ", std::strerror(bindErrno));
            RUBY_CHECK(!unixSocketIsLive(options_.unixPath),
                       "serve: ", options_.unixPath,
                       " is owned by a live daemon");
            ::unlink(options_.unixPath.c_str());
            RUBY_CHECK(::bind(listenFd_,
                              reinterpret_cast<sockaddr *>(&addr),
                              sizeof(addr)) == 0,
                       "serve: cannot bind ", options_.unixPath,
                       ": ", std::strerror(errno));
        }
    } else {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        RUBY_CHECK(listenFd_ >= 0, "serve: socket(): ",
                   std::strerror(errno));
        // Restarts must not stall on lingering TIME_WAIT pairs from
        // the previous daemon's connections.
        const int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port =
            htons(static_cast<std::uint16_t>(options_.port));
        RUBY_CHECK(::inet_pton(AF_INET, options_.host.c_str(),
                               &addr.sin_addr) == 1,
                   "serve: invalid bind address ", options_.host);
        RUBY_CHECK(::bind(listenFd_,
                          reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0,
                   "serve: cannot bind ", options_.host, ":",
                   options_.port, ": ", std::strerror(errno));
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        RUBY_CHECK(::getsockname(
                       listenFd_,
                       reinterpret_cast<sockaddr *>(&bound),
                       &len) == 0,
                   "serve: getsockname(): ", std::strerror(errno));
        boundPort_ = static_cast<int>(ntohs(bound.sin_port));
    }
    RUBY_CHECK(::listen(listenFd_, 256) == 0, "serve: listen(): ",
               std::strerror(errno));
}

void
Server::start()
{
    RUBY_CHECK(!started_, "serve: start() called twice");

    RUBY_CHECK(::pipe(sigPipe_.data()) == 0,
               "serve: cannot create the signal pipe: ",
               std::strerror(errno));
    ::signal(SIGPIPE, SIG_IGN);

    bindListener();

    workers_ = std::make_unique<ThreadPool>(options_.maxInflight);
    pipeline_ = std::make_unique<ThreadPool>(1);
    startTime_ = std::chrono::steady_clock::now();

    EventLoop::Callbacks callbacks;
    callbacks.onConnect = [this](EventLoop::ConnId id) {
        onConnect(id);
    };
    callbacks.onLine = [this](EventLoop::ConnId id,
                              std::string &&line) {
        onLine(id, std::move(line));
    };
    callbacks.onOversize = [this](EventLoop::ConnId id,
                                  std::size_t) { onOversize(id); };
    callbacks.onDisconnect = [this](EventLoop::ConnId id) {
        onDisconnect(id);
    };
    loop_ = std::make_unique<EventLoop>(
        listenFd_, options_.maxLineBytes, std::move(callbacks));

    started_ = true;
    reactorThread_ = std::thread([this]() { loop_->run(); });
    signalThread_ = std::thread([this]() {
        // Forward signal-pipe bytes: 's' (from the handler) begins
        // the drain; 'q' (from requestShutdown) retires this thread.
        for (;;) {
            char byte = 0;
            const ssize_t n = ::read(sigPipe_[0], &byte, 1);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0 || byte == 'q')
                return;
            requestShutdown();
        }
    });

    if (options_.logLifecycle) {
        if (!options_.unixPath.empty())
            logLine(detail::composeMessage(
                "ruby-served: listening on unix:",
                options_.unixPath));
        else
            logLine(detail::composeMessage(
                "ruby-served: listening on ", options_.host, ":",
                boundPort_));
    }
}

void
Server::installSignalDrain(Server &server)
{
    RUBY_CHECK(server.started_,
               "serve: installSignalDrain() before start()");
    g_signalFd.store(server.sigPipe_[1], std::memory_order_relaxed);
    struct sigaction sa{};
    sa.sa_handler = serveSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);
}

void
Server::requestShutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdownRequested_)
            return;
        shutdownRequested_ = true;
    }
    shutdownCv_.notify_all();
    if (sigPipe_[1] >= 0) {
        const char byte = 'q';
        [[maybe_unused]] const auto rc =
            ::write(sigPipe_[1], &byte, 1);
    }
}

bool
Server::shutdownRequested() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shutdownRequested_;
}

void
Server::waitForShutdown()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        shutdownCv_.wait(lock, [&]() { return shutdownRequested_; });
        if (drained_)
            return;
    }
    if (options_.logLifecycle)
        logLine("ruby-served: drain started");

    // 1. Stop taking new work: no more accepts, and every queued or
    //    future admission returns a "draining" rejection (queued
    //    waiters are flushed with one immediately).
    loop_->stopAccepting();
    admission_.beginDrain();

    // 2. Give inflight searches the drain budget to finish cleanly;
    //    past it, the drain token fires and every strategy winds
    //    down cooperatively, returning its best-so-far.
    const bool finished = admission_.waitIdleFor(options_.drainBudget);
    if (!finished) {
        if (options_.logLifecycle)
            logLine("ruby-served: drain budget expired; cancelling "
                    "inflight work");
        drainCancel_.requestCancel();
        admission_.waitIdle();
    }

    // 3. Quiesce front-to-back. First drain the worker and dispatch
    //    pools so every answered request's response is posted to the
    //    reactor; only then SHUT_RD the connections (write sides stay
    //    open — posting order guarantees the responses hit the write
    //    buffers before the EOF tear-down sees them) and barrier on
    //    the reactor so no further lines reach the dispatch stage.
    //    Lines that slip in just before the SHUT_RD still get their
    //    "draining" rejection via the second waitIdle. Finally stop
    //    the loop, which flushes pending writes before closing.
    if (workers_ != nullptr)
        workers_->waitIdle();
    if (pipeline_ != nullptr)
        pipeline_->waitIdle();
    loop_->shutdownReads();
    {
        std::promise<void> flushed;
        loop_->post([&flushed]() { flushed.set_value(); });
        flushed.get_future().wait();
    }
    if (pipeline_ != nullptr)
        pipeline_->waitIdle();
    if (workers_ != nullptr)
        workers_->waitIdle();
    loop_->stop();
    if (reactorThread_.joinable())
        reactorThread_.join();
    workers_.reset();
    pipeline_.reset();
    if (signalThread_.joinable())
        signalThread_.join();

    loop_.reset();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (!options_.unixPath.empty())
        ::unlink(options_.unixPath.c_str());
    for (int &fd : sigPipe_) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        connStates_.clear();
    }

    // 4. The final stats line: one parseable record of everything
    //    this daemon did, flushed before exit.
    if (options_.logLifecycle)
        logLine(detail::composeMessage("ruby-served: final stats ",
                                       writeJson(statsJson())));
    std::lock_guard<std::mutex> lock(mutex_);
    drained_ = true;
}

void
Server::onConnect(EventLoop::ConnId id)
{
    {
        std::lock_guard<std::mutex> stats(statsMutex_);
        ++connectionsAccepted_;
    }
    std::lock_guard<std::mutex> lock(connMutex_);
    connStates_.emplace(id, ConnState{});
}

void
Server::onDisconnect(EventLoop::ConnId id)
{
    std::lock_guard<std::mutex> lock(connMutex_);
    connStates_.erase(id);
}

void
Server::onOversize(EventLoop::ConnId id)
{
    loop_->sendAndClose(
        id, writeJson(makeErrorResponse(
                "", kCodeBadRequest, "bad-request",
                "request line exceeds the size limit")) +
                "\n");
}

void
Server::onLine(EventLoop::ConnId id, std::string &&line)
{
    bool dispatch = false;
    bool pause = false;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        const auto it = connStates_.find(id);
        if (it == connStates_.end())
            return;
        ConnState &state = it->second;
        if (state.busy) {
            // Strict per-connection ordering: one request inflight
            // at a time, the rest wait their turn here.
            state.pending.push_back(std::move(line));
            if (!state.paused &&
                state.pending.size() >= kMaxPendingLines) {
                state.paused = true;
                pause = true;
            }
        } else {
            state.busy = true;
            dispatch = true;
        }
    }
    if (pause)
        loop_->pauseReads(id);
    if (dispatch)
        pipeline_->submit([this, id, captured = std::move(line)]() {
            processLine(id, captured);
        });
}

void
Server::processLine(EventLoop::ConnId id, const std::string &line)
{
    {
        std::lock_guard<std::mutex> stats(statsMutex_);
        ++received_;
    }
    std::shared_ptr<Request> request;
    try {
        const JsonValue root = parseJson(line);
        request = std::make_shared<Request>(parseRequest(root));
    } catch (const Error &e) {
        respond(id,
                makeErrorResponse(extractId(line), kCodeBadRequest,
                                  "bad-request", e.what()),
                false);
        return;
    } catch (const std::exception &e) {
        respond(id,
                makeErrorResponse(extractId(line), kCodeInternal,
                                  "internal", e.what()),
                false);
        return;
    }

    if (request->type == RequestType::Map ||
        request->type == RequestType::Net) {
        dispatchSearch(id, std::move(request));
        return;
    }

    bool shutdownAfterSend = false;
    JsonValue response;
    try {
        response = handleQuick(*request, shutdownAfterSend);
    } catch (const std::exception &e) {
        response = makeErrorResponse(request->id, kCodeInternal,
                                     "internal", e.what());
    }
    respond(id, response, shutdownAfterSend);
}

void
Server::dispatchSearch(EventLoop::ConnId id,
                       std::shared_ptr<Request> request)
{
    std::string key;
    if (responseCache_ != nullptr) {
        key = responseCacheKey(*request);
        if (!key.empty()) {
            std::string cached;
            if (responseCache_->lookup(key, cached)) {
                // Replay: the cached line is a full response from an
                // identical search; only the id needs this
                // requester's. Strategy counters and the latency
                // histogram are deliberately not touched — they
                // keep meaning "searches actually run".
                respond(id,
                        restampResponseId(parseJson(cached),
                                          request->id),
                        false);
                return;
            }
            // Single-flight: attach to a running identical search,
            // or become its leader. Followers hold no admission
            // slot — the leader's completeFlight() answers them.
            SingleFlight::Waiter waiter;
            waiter.conn = id;
            waiter.request = request;
            if (!singleFlight_.join(key, std::move(waiter)))
                return;
        }
    }
    admitSearch(id, std::move(request), std::move(key));
}

void
Server::admitSearch(EventLoop::ConnId id,
                    std::shared_ptr<Request> request,
                    std::string key)
{
    const Admission::AsyncTicket ticket = admission_.acquireAsync(
        [this, id, request, key](AdmissionTicket outcome) {
            if (outcome != AdmissionTicket::Admitted) {
                const JsonValue error =
                    makeErrorResponse(request->id, kCodeRejected,
                                      "draining",
                                      "daemon is shutting down");
                respond(id, error, false);
                if (!key.empty())
                    completeFlight(key, error);
                return;
            }
            // A released slot was handed to us. If the requester
            // hung up while queued, promote a follower as the new
            // leader (it inherits this slot) or return the slot
            // untouched so nothing leaks.
            bool open;
            {
                std::lock_guard<std::mutex> lock(connMutex_);
                open = connStates_.find(id) != connStates_.end();
            }
            if (!open) {
                std::optional<SingleFlight::Waiter> promoted;
                if (!key.empty())
                    promoted = singleFlight_.abandon(key);
                if (!promoted) {
                    admission_.release();
                    return;
                }
                workers_->submit([this, key,
                                  waiter = *promoted]() {
                    runSearch(waiter.conn, waiter.request, key);
                });
                return;
            }
            workers_->submit([this, id, request, key]() {
                runSearch(id, request, key);
            });
        });
    switch (ticket) {
      case Admission::AsyncTicket::Admitted:
        workers_->submit([this, id, request, key]() {
            runSearch(id, request, key);
        });
        break;
      case Admission::AsyncTicket::Saturated: {
        const JsonValue error = makeErrorResponse(
            request->id, kCodeRejected, "saturated",
            "admission queue full; retry later");
        respond(id, error, false);
        if (!key.empty())
            completeFlight(key, error);
        break;
      }
      case Admission::AsyncTicket::Draining: {
        const JsonValue error =
            makeErrorResponse(request->id, kCodeRejected,
                              "draining",
                              "daemon is shutting down");
        respond(id, error, false);
        if (!key.empty())
            completeFlight(key, error);
        break;
      }
      case Admission::AsyncTicket::Queued:
        break; // the callback will continue this request
    }
}

void
Server::runSearch(EventLoop::ConnId id,
                  const std::shared_ptr<Request> &request,
                  const std::string &key)
{
    JsonValue response;
    try {
        response = request->type == RequestType::Map
                       ? runMap(*request)
                       : runNet(*request);
    } catch (const Error &e) {
        response = makeErrorResponse(request->id, kCodeUserError,
                                     "user-error", e.what());
    } catch (const std::exception &e) {
        response = makeErrorResponse(request->id, kCodeInternal,
                                     "internal", e.what());
    } catch (...) {
        response = makeErrorResponse(request->id, kCodeInternal,
                                     "internal", "unknown error");
    }
    // Release before responding, like the thread-per-session server
    // did: a client that has its response in hand must find the slot
    // free for its next request. The drain still flushes every
    // response because waitForShutdown barriers on workers_->waitIdle()
    // (this job, respond() included) before stopping the loop.
    admission_.release();
    if (!key.empty() && responseCache_ != nullptr) {
        // Only ok responses are cached: failures may be transient
        // (deadlines, drains) and must re-run, mirroring the layer
        // memo's replay contract.
        const JsonValue *code = response.find("code");
        if (code != nullptr && code->asI64() == kCodeOk)
            responseCache_->insert(key, writeJson(response));
    }
    respond(id, response, false);
    if (!key.empty())
        completeFlight(key, response);
}

void
Server::completeFlight(const std::string &key,
                       const JsonValue &response)
{
    const std::vector<SingleFlight::Waiter> waiters =
        singleFlight_.complete(key);
    for (const SingleFlight::Waiter &waiter : waiters)
        respond(waiter.conn,
                restampResponseId(response, waiter.request->id),
                false);
}

void
Server::respond(EventLoop::ConnId id, const JsonValue &response,
                bool shutdownAfterSend)
{
    {
        std::lock_guard<std::mutex> stats(statsMutex_);
        const JsonValue *type = response.find("type");
        if (type != nullptr && type->string == "error")
            ++errors_;
        else
            ++completed_;
    }
    loop_->send(id, writeJson(response) + "\n");
    if (shutdownAfterSend)
        requestShutdown();
    dispatchNext(id);
}

void
Server::dispatchNext(EventLoop::ConnId id)
{
    std::string next;
    bool have = false;
    bool resume = false;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        const auto it = connStates_.find(id);
        if (it == connStates_.end())
            return;
        ConnState &state = it->second;
        if (state.pending.empty()) {
            state.busy = false;
        } else {
            next = std::move(state.pending.front());
            state.pending.pop_front();
            have = true;
            if (state.paused &&
                state.pending.size() <= kResumePendingLines) {
                state.paused = false;
                resume = true;
            }
        }
    }
    if (resume)
        loop_->resumeReads(id);
    if (have)
        pipeline_->submit([this, id, captured = std::move(next)]() {
            processLine(id, captured);
        });
}

JsonValue
Server::handleQuick(const Request &request, bool &shutdownAfterSend)
{
    switch (request.type) {
      case RequestType::Ping: {
        // A pong is a deep health report: admission pressure, drain
        // state, latency quantiles and warm-state footprint, so
        // client retry logic and router health checks need no second
        // round trip.
        JsonValue out = makeResponse("pong", request.id, kCodeOk);
        Health health;
        health.ok = true;
        const Admission::Snapshot gate = admission_.snapshot();
        health.draining = gate.draining;
        health.inflight = gate.inflight;
        health.queued = gate.queued;
        health.maxInflight = gate.maxInflight;
        health.queueCapacity = gate.queueCapacity;
        health.uptimeMs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - startTime_)
                .count());
        health.layerMemoEntries = layerMemo_.stats().entries;
        if (responseCache_ != nullptr) {
            const ResponseCache::Stats rc = responseCache_->stats();
            health.responseCacheEntries = rc.entries;
            const std::uint64_t probes = rc.hits + rc.misses;
            health.responseCacheHitRate =
                probes != 0 ? static_cast<double>(rc.hits) /
                                  static_cast<double>(probes)
                            : 0.0;
        }
        health.coalescedInflight = singleFlight_.waiting();
        {
            std::lock_guard<std::mutex> stats(statsMutex_);
            health.requestCount = latency_.count();
            health.p50Ms = latency_.quantileMs(0.50);
            health.p99Ms = latency_.quantileMs(0.99);
        }
        out.set("health", healthToJson(health));
        return out;
      }
      case RequestType::Stats: {
        JsonValue out = makeResponse("stats", request.id, kCodeOk);
        out.set("stats", statsJson());
        return out;
      }
      case RequestType::Shutdown:
        // The ack is queued for write first, then the drain begins
        // (see respond), so the requester always hears back.
        shutdownAfterSend = true;
        return makeResponse("shutdown-ack", request.id, kCodeOk);
      case RequestType::Map:
      case RequestType::Net:
        break;
    }
    return makeErrorResponse(request.id, kCodeInternal, "internal",
                             "unreachable request type");
}

void
Server::prepareSearchOptions(SearchOptions &search)
{
    search.cancel = &drainCancel_;
    search.sharedLayerMemo = &layerMemo_;
}

JsonValue
Server::runMap(const Request &request)
{
    const auto begin = std::chrono::steady_clock::now();
    Mapper mapper = loadMapper(request.configText);
    SearchOptions search = request.search;
    prepareSearchOptions(search);
    const LayerOutcome outcome =
        searchLayer(mapper.problem(), mapper.arch(), request.preset,
                    request.variant, search, request.pad);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - begin);
    recordStrategy(search.strategy, outcome.evaluated, elapsed);

    const int code = outcome.found ? kCodeOk
                                   : failureCode(outcome.failure);
    JsonValue out = makeResponse("result", request.id, code);
    out.set("outcome", layerOutcomeToJson(outcome));
    return out;
}

JsonValue
Server::runNet(const Request &request)
{
    const auto begin = std::chrono::steady_clock::now();
    const std::vector<Layer> layers =
        request.suite.empty() ? request.layers
                              : suiteLayers(request.suite);
    const ArchSpec arch = archByName(request.arch);
    SearchOptions search = request.search;
    prepareSearchOptions(search);
    const NetworkOutcome net =
        searchNetwork(layers, arch, request.preset, request.variant,
                      search, request.pad);
    std::uint64_t evaluations = 0;
    for (const LayerOutcome &layer : net.layers)
        evaluations += layer.evaluated;
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - begin);
    recordStrategy(search.strategy, evaluations, elapsed);

    const int code = net.allFound ? kCodeOk : kCodePartial;
    JsonValue out = makeResponse("result", request.id, code);
    out.set("net", networkOutcomeToJson(net));
    return out;
}

void
Server::recordStrategy(SearchStrategy strategy,
                       std::uint64_t evaluations,
                       std::chrono::microseconds elapsed)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    StrategyStats &s =
        strategyStats_[static_cast<std::size_t>(strategy)];
    ++s.requests;
    s.evaluations += evaluations;
    s.millis +=
        static_cast<std::uint64_t>(elapsed.count()) / 1000u;
    latency_.record(elapsed);
}

JsonValue
Server::statsJson() const
{
    JsonValue out = JsonValue::makeObject();
    const auto uptime =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - startTime_);
    out.set("uptimeMs", JsonValue::makeU64(static_cast<std::uint64_t>(
                            uptime.count())));

    const Admission::Snapshot gate = admission_.snapshot();
    JsonValue requests = JsonValue::makeObject();
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        requests.set("received", JsonValue::makeU64(received_));
        requests.set("completed", JsonValue::makeU64(completed_));
        requests.set("errors", JsonValue::makeU64(errors_));
        requests.set("connectionsAccepted",
                     JsonValue::makeU64(connectionsAccepted_));
    }
    requests.set("inflight", JsonValue::makeU64(gate.inflight));
    requests.set("queued", JsonValue::makeU64(gate.queued));
    requests.set("maxInflight",
                 JsonValue::makeU64(gate.maxInflight));
    requests.set("queueCapacity",
                 JsonValue::makeU64(gate.queueCapacity));
    requests.set("draining", JsonValue::makeBool(gate.draining));
    requests.set("admitted", JsonValue::makeU64(gate.admitted));
    requests.set("rejectedSaturated",
                 JsonValue::makeU64(gate.rejectedSaturated));
    requests.set("rejectedDraining",
                 JsonValue::makeU64(gate.rejectedDraining));
    out.set("requests", std::move(requests));

    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        out.set("latency", latency_.toJson());
    }

    const LayerMemo::Stats memo = layerMemo_.stats();
    JsonValue jmemo = JsonValue::makeObject();
    jmemo.set("hits", JsonValue::makeU64(memo.hits));
    jmemo.set("misses", JsonValue::makeU64(memo.misses));
    jmemo.set("inserts", JsonValue::makeU64(memo.inserts));
    jmemo.set("entries", JsonValue::makeU64(memo.entries));
    out.set("layerMemo", std::move(jmemo));

    // Always emitted (zeros when disabled) so fleet roll-ups and
    // gauges never need an existence check.
    JsonValue jresp = JsonValue::makeObject();
    jresp.set("enabled",
              JsonValue::makeBool(responseCache_ != nullptr));
    ResponseCache::Stats rc;
    if (responseCache_ != nullptr)
        rc = responseCache_->stats();
    jresp.set("hits", JsonValue::makeU64(rc.hits));
    jresp.set("misses", JsonValue::makeU64(rc.misses));
    jresp.set("evictions", JsonValue::makeU64(rc.evictions));
    jresp.set("entries", JsonValue::makeU64(rc.entries));
    jresp.set("capacity",
              JsonValue::makeU64(responseCache_ != nullptr
                                     ? responseCache_->capacity()
                                     : 0));
    const std::uint64_t rcProbes = rc.hits + rc.misses;
    jresp.set("hitRate",
              JsonValue::makeDouble(
                  rcProbes != 0 ? static_cast<double>(rc.hits) /
                                      static_cast<double>(rcProbes)
                                : 0.0));
    jresp.set("coalesced",
              JsonValue::makeU64(singleFlight_.coalesced()));
    jresp.set("coalescedWaiting",
              JsonValue::makeU64(singleFlight_.waiting()));
    jresp.set("flights", JsonValue::makeU64(singleFlight_.flights()));
    out.set("responseCache", std::move(jresp));

    JsonValue strategies = JsonValue::makeObject();
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        static constexpr SearchStrategy kAll[] = {
            SearchStrategy::Random, SearchStrategy::Exhaustive,
            SearchStrategy::Genetic, SearchStrategy::Local,
            SearchStrategy::Optimal};
        for (const SearchStrategy strategy : kAll) {
            const StrategyStats &s =
                strategyStats_[static_cast<std::size_t>(strategy)];
            if (s.requests == 0)
                continue;
            JsonValue js = JsonValue::makeObject();
            js.set("requests", JsonValue::makeU64(s.requests));
            js.set("evaluations",
                   JsonValue::makeU64(s.evaluations));
            js.set("millis", JsonValue::makeU64(s.millis));
            js.set("evalsPerSec",
                   JsonValue::makeDouble(
                       s.millis != 0
                           ? static_cast<double>(s.evaluations) *
                                 1000.0 /
                                 static_cast<double>(s.millis)
                           : static_cast<double>(s.evaluations) *
                                 1000.0));
            strategies.set(strategyWireName(strategy),
                           std::move(js));
        }
    }
    out.set("strategies", std::move(strategies));
    return out;
}

void
Server::logLine(const std::string &line) const
{
    std::cerr << line << std::endl;
}

} // namespace serve
} // namespace ruby
