#include "ruby/serve/front_door.hpp"

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

#include "ruby/common/error.hpp"

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
frontDoorSignalHandler(int)
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
        return parseJson(line).getString("id", "");
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

double
hitRate(const ResponseCache::Stats &rc)
{
    const std::uint64_t probes = rc.hits + rc.misses;
    return probes != 0 ? static_cast<double>(rc.hits) /
                             static_cast<double>(probes)
                       : 0.0;
}

} // namespace

FrontDoor::FrontDoor(const FrontDoorOptions &options, unsigned slots,
                     FrontDoorLabel label)
    : label_(label),
      options_(options),
      slots_(slots),
      responseCache_(options.responseCacheCapacity),
      admission_(slots, options.queueCapacity)
{
}

FrontDoor::~FrontDoor() = default;

void
FrontDoor::drainOnDestroy()
{
    if (started_ && !drained_) {
        requestShutdown();
        waitForShutdown();
    }
}

void
FrontDoor::bindListener()
{
    const char *tag = label_.check;
    if (!options_.unixPath.empty()) {
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        RUBY_CHECK(listenFd_ >= 0, tag, ": socket(): ",
                   std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        RUBY_CHECK(options_.unixPath.size() <
                       sizeof(addr.sun_path),
                   tag, ": socket path too long: ",
                   options_.unixPath);
        std::strncpy(addr.sun_path, options_.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            // A crashed process leaves its socket file behind and
            // the fresh bind fails with EADDRINUSE. Probe the path: a
            // live process accepts the connect (never steal its
            // socket); a stale file refuses, so unlink and rebind.
            const int bindErrno = errno;
            RUBY_CHECK(bindErrno == EADDRINUSE, tag,
                       ": cannot bind ", options_.unixPath, ": ",
                       std::strerror(bindErrno));
            RUBY_CHECK(!unixSocketIsLive(options_.unixPath), tag,
                       ": ", options_.unixPath,
                       " is owned by a live ", label_.owner);
            ::unlink(options_.unixPath.c_str());
            RUBY_CHECK(::bind(listenFd_,
                              reinterpret_cast<sockaddr *>(&addr),
                              sizeof(addr)) == 0,
                       tag, ": cannot bind ", options_.unixPath, ": ",
                       std::strerror(errno));
        }
    } else {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        RUBY_CHECK(listenFd_ >= 0, tag, ": socket(): ",
                   std::strerror(errno));
        // Restarts must not stall on lingering TIME_WAIT pairs from
        // the previous process's connections.
        const int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port =
            htons(static_cast<std::uint16_t>(options_.port));
        RUBY_CHECK(::inet_pton(AF_INET, options_.host.c_str(),
                               &addr.sin_addr) == 1,
                   tag, ": invalid bind address ", options_.host);
        RUBY_CHECK(::bind(listenFd_,
                          reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0,
                   tag, ": cannot bind ", options_.host, ":",
                   options_.port, ": ", std::strerror(errno));
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        RUBY_CHECK(::getsockname(
                       listenFd_,
                       reinterpret_cast<sockaddr *>(&bound),
                       &len) == 0,
                   tag, ": getsockname(): ", std::strerror(errno));
        boundPort_ = static_cast<int>(ntohs(bound.sin_port));
    }
    RUBY_CHECK(::listen(listenFd_, 256) == 0, tag, ": listen(): ",
               std::strerror(errno));
}

void
FrontDoor::start()
{
    RUBY_CHECK(!started_, label_.check, ": start() called twice");

    RUBY_CHECK(::pipe(sigPipe_.data()) == 0, label_.check,
               ": cannot create the signal pipe: ",
               std::strerror(errno));
    ::signal(SIGPIPE, SIG_IGN);

    bindListener();

    workers_ = std::make_unique<ThreadPool>(slots_);
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
    onStart();

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

    if (!options_.unixPath.empty())
        log(detail::composeMessage("listening on unix:",
                                   options_.unixPath,
                                   listeningDetail()));
    else
        log(detail::composeMessage("listening on ", options_.host, ":",
                                   boundPort_, listeningDetail()));
}

void
FrontDoor::installSignalDrain(FrontDoor &door)
{
    RUBY_CHECK(door.started_, door.label_.check,
               ": installSignalDrain() before start()");
    g_signalFd.store(door.sigPipe_[1], std::memory_order_relaxed);
    struct sigaction sa{};
    sa.sa_handler = frontDoorSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);
}

void
FrontDoor::requestShutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdownRequested_)
            return;
        shutdownRequested_ = true;
    }
    shutdownCv_.notify_all();
    onShutdownRequested();
    if (sigPipe_[1] >= 0) {
        const char byte = 'q';
        [[maybe_unused]] const auto rc =
            ::write(sigPipe_[1], &byte, 1);
    }
}

bool
FrontDoor::shutdownRequested() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shutdownRequested_;
}

void
FrontDoor::waitForShutdown()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        shutdownCv_.wait(lock, [&]() { return shutdownRequested_; });
        if (drained_)
            return;
    }
    log("drain started");

    // 1. Stop taking new work: no more accepts, and every queued or
    //    future admission returns a "draining" rejection (queued
    //    waiters are flushed with one immediately).
    loop_->stopAccepting();
    admission_.beginDrain();

    // 2. Give inflight work the drain budget to finish cleanly; past
    //    it the subclass may cancel (the daemon fires its drain
    //    token, so every search returns its best-so-far).
    if (!admission_.waitIdleFor(options_.drainBudget)) {
        onDrainBudgetExpired();
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
    workers_->waitIdle();
    pipeline_->waitIdle();
    loop_->shutdownReads();
    {
        std::promise<void> flushed;
        loop_->post([&flushed]() { flushed.set_value(); });
        flushed.get_future().wait();
    }
    pipeline_->waitIdle();
    workers_->waitIdle();
    loop_->stop();
    if (reactorThread_.joinable())
        reactorThread_.join();
    workers_.reset();
    pipeline_.reset();
    if (signalThread_.joinable())
        signalThread_.join();
    onDrained();

    loop_.reset();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (!options_.unixPath.empty())
        ::unlink(options_.unixPath.c_str());
    // A later signal must not write into a recycled descriptor.
    int installed = sigPipe_[1];
    g_signalFd.compare_exchange_strong(installed, -1);
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
    //    this process did, flushed before exit.
    if (options_.logLifecycle)
        log("final stats " + writeJson(statsReport()));
    std::lock_guard<std::mutex> lock(mutex_);
    drained_ = true;
}

void
FrontDoor::onConnect(EventLoop::ConnId id)
{
    {
        std::lock_guard<std::mutex> stats(statsMutex_);
        ++connectionsAccepted_;
    }
    std::lock_guard<std::mutex> lock(connMutex_);
    connStates_.emplace(id, ConnState{});
}

void
FrontDoor::onDisconnect(EventLoop::ConnId id)
{
    std::lock_guard<std::mutex> lock(connMutex_);
    connStates_.erase(id);
}

void
FrontDoor::onOversize(EventLoop::ConnId id)
{
    loop_->sendAndClose(
        id, writeJson(makeErrorResponse(
                "", kCodeBadRequest, "bad-request",
                "request line exceeds the size limit")) +
                "\n");
}

void
FrontDoor::onLine(EventLoop::ConnId id, std::string &&line)
{
    bool dispatchNow = false;
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
            dispatchNow = true;
        }
    }
    if (pause)
        loop_->pauseReads(id);
    if (dispatchNow)
        submitLine(id, std::move(line));
}

void
FrontDoor::submitLine(EventLoop::ConnId id, std::string line)
{
    pipeline_->submit([this, id, line = std::move(line)]() mutable {
        processLine(id, std::move(line));
    });
}

void
FrontDoor::processLine(EventLoop::ConnId id, std::string line)
{
    {
        std::lock_guard<std::mutex> stats(statsMutex_);
        ++received_;
    }
    std::shared_ptr<Request> request;
    try {
        request = std::make_shared<Request>(parseRequest(parseJson(line)));
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
        Flight flight;
        flight.conn = id;
        flight.request = std::move(request);
        flight.rawLine = std::make_shared<std::string>(std::move(line));
        dispatch(flight);
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
FrontDoor::dispatch(const Flight &flight)
{
    const std::string key = responseCacheKey(*flight.request);
    if (!key.empty()) {
        std::string cached;
        if (responseCache_.lookup(key, cached,
                                  [this](std::uint64_t tag) {
                                      return cacheTagValid(tag);
                                  })) {
            // Replay: the cached line is a full response from an
            // identical request; only the id needs this requester's.
            // The latency histogram is deliberately not touched — it
            // keeps meaning "work actually run".
            respond(flight.conn,
                    restampResponseId(parseJson(cached),
                                      flight.request->id),
                    false);
            return;
        }
        // Single-flight: attach to an identical request already
        // running, or become its leader. Followers hold no admission
        // slot — the leader's completeFlight() answers them.
        if (!singleFlight_.join(key, flight))
            return;
    }
    admit(flight, key);
}

void
FrontDoor::admit(const Flight &leader, const std::string &key)
{
    const Admission::AsyncTicket ticket = admission_.acquireAsync(
        [this, leader, key](AdmissionTicket outcome) {
            if (outcome != AdmissionTicket::Admitted) {
                reject(leader, key, "draining",
                       detail::composeMessage(label_.self,
                                              " is shutting down"));
                return;
            }
            // A released slot was handed to us. If the requester
            // hung up while queued, promote a follower as the new
            // leader (it inherits this slot) or return the slot
            // untouched so nothing leaks.
            bool open;
            {
                std::lock_guard<std::mutex> lock(connMutex_);
                open = connStates_.find(leader.conn) !=
                       connStates_.end();
            }
            if (open) {
                submitRun(leader, key);
                return;
            }
            std::optional<Flight> promoted;
            if (!key.empty())
                promoted = singleFlight_.abandon(key);
            if (promoted)
                submitRun(*promoted, key);
            else
                admission_.release();
        });
    switch (ticket) {
      case Admission::AsyncTicket::Admitted:
        submitRun(leader, key);
        break;
      case Admission::AsyncTicket::Saturated:
        reject(leader, key, "saturated",
               detail::composeMessage(label_.queue,
                                      " full; retry later"));
        break;
      case Admission::AsyncTicket::Draining:
        reject(leader, key, "draining",
               detail::composeMessage(label_.self,
                                      " is shutting down"));
        break;
      case Admission::AsyncTicket::Queued:
        break; // the callback will continue this request
    }
}

void
FrontDoor::submitRun(const Flight &leader, const std::string &key)
{
    workers_->submit([this, leader, key]() { run(leader, key); });
}

void
FrontDoor::run(const Flight &leader, const std::string &key)
{
    const Request &request = *leader.request;
    std::optional<std::uint64_t> cacheTag;
    JsonValue response;
    try {
        const auto begin = std::chrono::steady_clock::now();
        response = work(request, *leader.rawLine, cacheTag);
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - begin);
        std::lock_guard<std::mutex> stats(statsMutex_);
        latency_.record(elapsed);
    } catch (const Error &e) {
        response = makeErrorResponse(request.id, kCodeUserError,
                                     "user-error", e.what());
    } catch (const std::exception &e) {
        response = makeErrorResponse(request.id, kCodeInternal,
                                     "internal", e.what());
    } catch (...) {
        response = makeErrorResponse(request.id, kCodeInternal,
                                     "internal", "unknown error");
    }
    // Release before responding: a client that has its response in
    // hand must find the slot free for its next request. The drain
    // still flushes every response because waitForShutdown barriers
    // on workers_->waitIdle() (this job, respond() included) before
    // stopping the loop.
    admission_.release();
    if (!key.empty() && cacheTag) {
        // Only ok responses are cached: failures may be transient
        // (deadlines, drains) and must re-run, mirroring the layer
        // memo's replay contract.
        const JsonValue *code = response.find("code");
        if (code != nullptr && code->asI64() == kCodeOk)
            responseCache_.insert(key, writeJson(response), *cacheTag);
    }
    respond(leader.conn, response, false);
    if (!key.empty())
        completeFlight(key, response);
}

void
FrontDoor::reject(const Flight &leader, const std::string &key,
                  const char *kind, const std::string &message)
{
    const JsonValue error = makeErrorResponse(
        leader.request->id, kCodeRejected, kind, message);
    respond(leader.conn, error, false);
    if (!key.empty())
        completeFlight(key, error);
}

void
FrontDoor::completeFlight(const std::string &key,
                          const JsonValue &response)
{
    const std::vector<Flight> waiters = singleFlight_.complete(key);
    for (const Flight &waiter : waiters)
        respond(waiter.conn,
                restampResponseId(response, waiter.request->id),
                false);
}

void
FrontDoor::respond(EventLoop::ConnId id, const JsonValue &response,
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
FrontDoor::dispatchNext(EventLoop::ConnId id)
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
        submitLine(id, std::move(next));
}

JsonValue
FrontDoor::handleQuick(const Request &request, bool &shutdownAfterSend)
{
    switch (request.type) {
      case RequestType::Ping: {
        // A pong is a deep health report: admission pressure, drain
        // state, latency quantiles and warm-state footprint, so
        // client retry logic and router health checks need no second
        // round trip.
        JsonValue out = makeResponse("pong", request.id, kCodeOk);
        out.set("health", healthToJson(health()));
        return out;
      }
      case RequestType::Stats: {
        JsonValue out = makeResponse("stats", request.id, kCodeOk);
        out.set("stats", statsReport());
        return out;
      }
      case RequestType::Shutdown:
        // The ack is queued for write first, then the drain begins
        // (see respond), so the requester always hears back. A router
        // drains only itself: its backends keep serving, which is
        // what a rolling restart wants.
        shutdownAfterSend = true;
        return makeResponse("shutdown-ack", request.id, kCodeOk);
      case RequestType::Map:
      case RequestType::Net:
        break;
    }
    return makeErrorResponse(request.id, kCodeInternal, "internal",
                             "unreachable request type");
}

Health
FrontDoor::health() const
{
    Health health;
    health.ok = true;
    const Admission::Snapshot gate = admission_.snapshot();
    health.draining = gate.draining;
    health.inflight = gate.inflight;
    health.queued = gate.queued;
    health.maxInflight = gate.maxInflight;
    health.queueCapacity = gate.queueCapacity;
    health.uptimeMs = uptimeMs();
    const ResponseCache::Stats rc = responseCache_.stats();
    health.responseCacheEntries = rc.entries;
    health.responseCacheHitRate = hitRate(rc);
    health.coalescedInflight = singleFlight_.waiting();
    {
        std::lock_guard<std::mutex> stats(statsMutex_);
        health.requestCount = latency_.count();
        health.p50Ms = latency_.quantileMs(0.50);
        health.p99Ms = latency_.quantileMs(0.99);
    }
    addHealth(health);
    return health;
}

void
FrontDoor::log(const std::string &message) const
{
    if (options_.logLifecycle)
        std::cerr << label_.process << ": " << message << std::endl;
}

std::uint64_t
FrontDoor::uptimeMs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - startTime_)
            .count());
}

void
FrontDoor::setRequestCounters(JsonValue &block) const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    block.set("received", JsonValue::makeU64(received_));
    block.set("completed", JsonValue::makeU64(completed_));
    block.set("errors", JsonValue::makeU64(errors_));
    block.set("connectionsAccepted",
              JsonValue::makeU64(connectionsAccepted_));
}

JsonValue
FrontDoor::responseCacheJson() const
{
    const ResponseCache::Stats rc = responseCache_.stats();
    JsonValue out = JsonValue::makeObject();
    out.set("hits", JsonValue::makeU64(rc.hits));
    out.set("misses", JsonValue::makeU64(rc.misses));
    out.set("evictions", JsonValue::makeU64(rc.evictions));
    out.set("entries", JsonValue::makeU64(rc.entries));
    out.set("capacity", JsonValue::makeU64(responseCache_.capacity()));
    out.set("hitRate", JsonValue::makeDouble(hitRate(rc)));
    out.set("coalesced", JsonValue::makeU64(singleFlight_.coalesced()));
    out.set("coalescedWaiting",
            JsonValue::makeU64(singleFlight_.waiting()));
    out.set("flights", JsonValue::makeU64(singleFlight_.flights()));
    return out;
}

JsonValue
FrontDoor::latencyJson() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return latency_.toJson();
}

} // namespace serve
} // namespace ruby
