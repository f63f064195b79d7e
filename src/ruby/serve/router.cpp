#include "ruby/serve/router.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <future>
#include <iostream>
#include <optional>

#include "ruby/common/error.hpp"
#include "ruby/serve/response_cache.hpp"
#include "ruby/util/hash.hpp"

namespace ruby
{
namespace serve
{

namespace
{

/** Lines a connection may buffer before its reads are paused. */
constexpr std::size_t kMaxPendingLines = 64;
constexpr std::size_t kResumePendingLines = kMaxPendingLines / 2;
/** Idle pooled connections kept per backend. */
constexpr std::size_t kMaxPooledConnections = 4;

/** Write end of the self-pipe the signal handler forwards to. */
std::atomic<int> g_routerSignalFd{-1};

extern "C" void
routerSignalHandler(int)
{
    const int fd = g_routerSignalFd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        const char byte = 's';
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

bool
unixSocketIsLive(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const bool live =
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0;
    ::close(fd);
    return live;
}

void
accumulateU64(const JsonValue &section, const char *key,
              std::uint64_t &total)
{
    total += section.getU64(key, 0);
}

} // namespace

// ---------------------------------------------------------------------------
// ConsistentRing

std::uint64_t
ConsistentRing::hashKey(const std::string &key)
{
    // FNV-1a 64: stable across platforms and standard libraries —
    // the ring layout is observable behavior (tests pin it and
    // operators reason about which shard owns which shape), so it
    // cannot depend on std::hash. The ring has always used its own
    // (non-canonical) seed — see kRingOffset — and the layout built
    // from it is frozen; hash_test.cpp pins the values.
    return hashing::fnv1aBytes(key, hashing::kRingOffset);
}

ConsistentRing::ConsistentRing(std::vector<std::string> nodes,
                               unsigned replicas)
    : nodes_(std::move(nodes))
{
    RUBY_CHECK(!nodes_.empty(), "consistent ring: no nodes");
    RUBY_CHECK(replicas >= 1, "consistent ring: replicas must be >= 1");
    ring_.reserve(nodes_.size() * replicas);
    for (std::size_t n = 0; n < nodes_.size(); ++n)
        for (unsigned r = 0; r < replicas; ++r)
            ring_.emplace_back(
                hashKey(nodes_[n] + "#" + std::to_string(r)), n);
    std::sort(ring_.begin(), ring_.end());
}

std::vector<std::size_t>
ConsistentRing::walk(const std::string &key) const
{
    std::vector<std::size_t> order;
    order.reserve(nodes_.size());
    std::vector<bool> seen(nodes_.size(), false);
    const std::uint64_t point = hashKey(key);
    const std::size_t start = static_cast<std::size_t>(
        std::lower_bound(ring_.begin(), ring_.end(),
                         std::make_pair(point, std::size_t{0})) -
        ring_.begin());
    for (std::size_t step = 0;
         step < ring_.size() && order.size() < nodes_.size(); ++step) {
        const std::size_t node =
            ring_[(start + step) % ring_.size()].second;
        if (!seen[node]) {
            seen[node] = true;
            order.push_back(node);
        }
    }
    return order;
}

std::size_t
ConsistentRing::pick(
    const std::string &key,
    const std::function<bool(std::size_t)> &accept) const
{
    for (const std::size_t node : walk(key))
        if (accept(node))
            return node;
    return nodes_.size();
}

// ---------------------------------------------------------------------------
// Router lifecycle

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      admission_(options_.maxForwards, options_.queueCapacity)
{
    RUBY_CHECK(!options_.backends.empty(),
               "router: need at least one backend");
    RUBY_CHECK(options_.loadFactor >= 1.0,
               "router: loadFactor must be >= 1");
    std::vector<std::string> names;
    names.reserve(options_.backends.size());
    for (const Endpoint &endpoint : options_.backends) {
        names.push_back(endpoint.describe());
        auto state = std::make_unique<BackendState>();
        state->endpoint = endpoint;
        backends_.push_back(std::move(state));
    }
    ring_ =
        std::make_unique<ConsistentRing>(std::move(names),
                                         options_.replicas);
    if (options_.responseCache)
        responseCache_ = std::make_unique<ResponseCache>(
            options_.responseCacheCapacity);
}

Router::~Router()
{
    if (started_ && !drained_) {
        requestShutdown();
        waitForShutdown();
    }
}

void
Router::bindListener()
{
    if (!options_.unixPath.empty()) {
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        RUBY_CHECK(listenFd_ >= 0, "router: socket(): ",
                   std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        RUBY_CHECK(options_.unixPath.size() < sizeof(addr.sun_path),
                   "router: socket path too long: ",
                   options_.unixPath);
        std::strncpy(addr.sun_path, options_.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            const int bindErrno = errno;
            RUBY_CHECK(bindErrno == EADDRINUSE,
                       "router: cannot bind ", options_.unixPath,
                       ": ", std::strerror(bindErrno));
            // Same stale-socket recovery as the daemon: a path a
            // crashed process left behind is unlinked and rebound; a
            // path a live process answers on is an operator error.
            RUBY_CHECK(!unixSocketIsLive(options_.unixPath),
                       "router: ", options_.unixPath,
                       " is owned by a live process");
            ::unlink(options_.unixPath.c_str());
            RUBY_CHECK(::bind(listenFd_,
                              reinterpret_cast<sockaddr *>(&addr),
                              sizeof(addr)) == 0,
                       "router: cannot bind ", options_.unixPath,
                       ": ", std::strerror(errno));
        }
    } else {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        RUBY_CHECK(listenFd_ >= 0, "router: socket(): ",
                   std::strerror(errno));
        const int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
        RUBY_CHECK(::inet_pton(AF_INET, options_.host.c_str(),
                               &addr.sin_addr) == 1,
                   "router: invalid bind address ", options_.host);
        RUBY_CHECK(::bind(listenFd_,
                          reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0,
                   "router: cannot bind ", options_.host, ":",
                   options_.port, ": ", std::strerror(errno));
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        RUBY_CHECK(::getsockname(listenFd_,
                                 reinterpret_cast<sockaddr *>(&bound),
                                 &len) == 0,
                   "router: getsockname(): ", std::strerror(errno));
        boundPort_ = static_cast<int>(ntohs(bound.sin_port));
    }
    RUBY_CHECK(::listen(listenFd_, 256) == 0, "router: listen(): ",
               std::strerror(errno));
}

void
Router::start()
{
    RUBY_CHECK(!started_, "router: start() called twice");
    RUBY_CHECK(::pipe(sigPipe_.data()) == 0,
               "router: cannot create the signal pipe: ",
               std::strerror(errno));
    ::signal(SIGPIPE, SIG_IGN);

    bindListener();

    forwarders_ = std::make_unique<ThreadPool>(options_.maxForwards);
    pipeline_ = std::make_unique<ThreadPool>(1);
    startTime_ = std::chrono::steady_clock::now();

    // First health sweep before serving: a backend that is down at
    // boot must not receive the first keys.
    for (std::size_t i = 0; i < backends_.size(); ++i)
        checkBackend(i);

    EventLoop::Callbacks callbacks;
    callbacks.onConnect = [this](EventLoop::ConnId id) {
        onConnect(id);
    };
    callbacks.onLine = [this](EventLoop::ConnId id,
                              std::string &&line) {
        onLine(id, std::move(line));
    };
    callbacks.onOversize = [this](EventLoop::ConnId id, std::size_t) {
        onOversize(id);
    };
    callbacks.onDisconnect = [this](EventLoop::ConnId id) {
        onDisconnect(id);
    };
    loop_ = std::make_unique<EventLoop>(listenFd_,
                                        options_.maxLineBytes,
                                        std::move(callbacks));

    started_ = true;
    reactorThread_ = std::thread([this]() { loop_->run(); });
    healthThread_ = std::thread([this]() { healthLoop(); });
    signalThread_ = std::thread([this]() {
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
                "ruby-router: listening on unix:", options_.unixPath,
                " (", backends_.size(), " backends)"));
        else
            logLine(detail::composeMessage(
                "ruby-router: listening on ", options_.host, ":",
                boundPort_, " (", backends_.size(), " backends)"));
    }
}

void
Router::installSignalDrain(Router &router)
{
    RUBY_CHECK(router.started_,
               "router: installSignalDrain() before start()");
    g_routerSignalFd.store(router.sigPipe_[1],
                           std::memory_order_relaxed);
    struct sigaction sa{};
    sa.sa_handler = routerSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);
}

void
Router::requestShutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdownRequested_)
            return;
        shutdownRequested_ = true;
    }
    shutdownCv_.notify_all();
    healthCv_.notify_all();
    if (sigPipe_[1] >= 0) {
        const char byte = 'q';
        [[maybe_unused]] const auto rc = ::write(sigPipe_[1], &byte, 1);
    }
}

bool
Router::shutdownRequested() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shutdownRequested_;
}

void
Router::waitForShutdown()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        shutdownCv_.wait(lock, [&]() { return shutdownRequested_; });
        if (drained_)
            return;
    }
    if (options_.logLifecycle)
        logLine("ruby-router: drain started");

    // Same drain order as the daemon (see Server::waitForShutdown):
    // stop accepting, flip the gate so queued forwards reject as
    // "draining", give inflight forwards the budget to reach their
    // true outcome, then barrier the pools around a read shutdown so
    // every response written by a worker is flushed before the
    // reactor stops.
    loop_->stopAccepting();
    admission_.beginDrain();
    if (!admission_.waitIdleFor(options_.drainBudget)) {
        if (options_.logLifecycle)
            logLine("ruby-router: drain budget expired; waiting for "
                    "inflight forwards");
        admission_.waitIdle();
    }

    if (forwarders_ != nullptr)
        forwarders_->waitIdle();
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
    if (forwarders_ != nullptr)
        forwarders_->waitIdle();
    loop_->stop();
    if (reactorThread_.joinable())
        reactorThread_.join();
    forwarders_.reset();
    pipeline_.reset();
    if (healthThread_.joinable())
        healthThread_.join();
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
    for (std::size_t i = 0; i < backends_.size(); ++i)
        dropConnections(i);

    if (options_.logLifecycle)
        logLine(detail::composeMessage("ruby-router: final stats ",
                                       writeJson(fleetStatsJson())));
    std::lock_guard<std::mutex> lock(mutex_);
    drained_ = true;
}

// ---------------------------------------------------------------------------
// Routing

std::string
Router::routingKey(const Request &request)
{
    // Architecture + shape only — never search options, so the same
    // workload with a different budget or strategy still lands on
    // the shard whose LayerMemo is warm for it.
    std::string key;
    if (request.type == RequestType::Map) {
        key = "map|";
        key += request.configText;
    } else {
        key = "net|";
        key += request.arch;
        key += '|';
        if (!request.suite.empty()) {
            key += request.suite;
        } else {
            // Numeric shape only, never the layer name — the layer
            // memo keys on numbers too, so a renamed copy of a hot
            // layer must land on the shard already warm for it.
            for (const Layer &layer : request.layers) {
                const ConvShape &s = layer.shape;
                for (const std::uint64_t dim :
                     {s.n, s.c, s.m, s.p, s.q, s.r, s.s, s.strideH,
                      s.strideW, s.dilationH, s.dilationW}) {
                    key += std::to_string(dim);
                    key += ',';
                }
                key += 'x';
                key += std::to_string(layer.count);
                key += '|';
            }
        }
    }
    key += '|';
    key += variantWireName(request.variant);
    key += '|';
    key += presetWireName(request.preset);
    key += request.pad ? "|pad" : "|nopad";
    return key;
}

std::size_t
Router::preferredBackend(const std::string &key) const
{
    return ring_->pick(key, [this](std::size_t i) {
        return backends_[i]->healthy.load() &&
               !backends_[i]->draining.load();
    });
}

std::size_t
Router::pickBackend(const std::string &key,
                    const std::vector<bool> &excluded) const
{
    unsigned healthyCount = 0;
    unsigned totalInflight = 0;
    for (const auto &backend : backends_) {
        if (backend->healthy.load() && !backend->draining.load()) {
            ++healthyCount;
            totalInflight += backend->inflight.load();
        }
    }
    if (healthyCount == 0)
        return backends_.size();
    // Bounded load: no backend may hold more than loadFactor times
    // the fair share of the inflight forwards (counting this one),
    // and always at least one.
    const unsigned bound = std::max(
        1u, static_cast<unsigned>(std::ceil(
                options_.loadFactor *
                static_cast<double>(totalInflight + 1) /
                static_cast<double>(healthyCount))));
    const auto usable = [&](std::size_t i) {
        return !excluded[i] && backends_[i]->healthy.load() &&
               !backends_[i]->draining.load();
    };
    const std::size_t bounded = ring_->pick(key, [&](std::size_t i) {
        return usable(i) && backends_[i]->inflight.load() < bound;
    });
    if (bounded < backends_.size())
        return bounded;
    // Everyone is over the bound (burst): prefer the ring's order
    // over rejecting outright.
    return ring_->pick(key, usable);
}

// ---------------------------------------------------------------------------
// Backend connection pool + health

Client
Router::takeConnection(std::size_t backend)
{
    BackendState &state = *backends_[backend];
    {
        std::lock_guard<std::mutex> lock(state.poolMutex);
        if (!state.pool.empty()) {
            Client client = std::move(state.pool.back());
            state.pool.pop_back();
            return client;
        }
    }
    return Client::connect(state.endpoint);
}

void
Router::storeConnection(std::size_t backend, Client &&client)
{
    BackendState &state = *backends_[backend];
    std::lock_guard<std::mutex> lock(state.poolMutex);
    if (state.pool.size() < kMaxPooledConnections)
        state.pool.push_back(std::move(client));
}

void
Router::dropConnections(std::size_t backend)
{
    BackendState &state = *backends_[backend];
    std::lock_guard<std::mutex> lock(state.poolMutex);
    state.pool.clear();
}

void
Router::healthLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(healthMutex_);
            healthCv_.wait_for(lock, options_.healthInterval);
        }
        if (shutdownRequested())
            return;
        for (std::size_t i = 0; i < backends_.size(); ++i)
            checkBackend(i);
    }
}

void
Router::checkBackend(std::size_t index)
{
    BackendState &backend = *backends_[index];
    try {
        Client client = Client::connect(backend.endpoint);
        const Health health = client.ping();
        const bool wasDraining =
            backend.draining.exchange(health.draining);
        const bool wasHealthy = backend.healthy.exchange(health.ok);
        // Every observed flap moves the epoch: a backend seen
        // unhealthy/draining and back may be a different process
        // with different configuration, so its cached responses
        // must not outlive the transition.
        if (wasHealthy != health.ok ||
            wasDraining != health.draining)
            bumpEpoch(index);
        if (!wasHealthy && health.ok && options_.logLifecycle)
            logLine(detail::composeMessage(
                "ruby-router: backend ", backend.endpoint.describe(),
                " recovered"));
    } catch (const std::exception &) {
        if (backend.healthy.exchange(false)) {
            bumpEpoch(index);
            dropConnections(index);
            if (options_.logLifecycle)
                logLine(detail::composeMessage(
                    "ruby-router: backend ",
                    backend.endpoint.describe(), " unhealthy"));
        }
    }
}

// ---------------------------------------------------------------------------
// Reactor callbacks + dispatch (mirrors Server)

void
Router::onConnect(EventLoop::ConnId id)
{
    {
        std::lock_guard<std::mutex> stats(statsMutex_);
        ++connectionsAccepted_;
    }
    std::lock_guard<std::mutex> lock(connMutex_);
    connStates_.emplace(id, ConnState{});
}

void
Router::onDisconnect(EventLoop::ConnId id)
{
    std::lock_guard<std::mutex> lock(connMutex_);
    connStates_.erase(id);
}

void
Router::onOversize(EventLoop::ConnId id)
{
    loop_->sendAndClose(
        id,
        writeJson(makeErrorResponse(
            "", kCodeBadRequest, "bad-request",
            "request line exceeds the size limit")) +
            "\n");
}

void
Router::onLine(EventLoop::ConnId id, std::string &&line)
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
Router::processLine(EventLoop::ConnId id, const std::string &line)
{
    {
        std::lock_guard<std::mutex> stats(statsMutex_);
        ++received_;
    }
    std::shared_ptr<Request> request;
    auto rawLine = std::make_shared<std::string>(line);
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
        dispatchForward(id, std::move(request), std::move(rawLine));
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
Router::dispatchForward(EventLoop::ConnId id,
                        std::shared_ptr<Request> request,
                        std::shared_ptr<std::string> rawLine)
{
    std::string cacheKey;
    if (responseCache_ != nullptr) {
        cacheKey = responseCacheKey(*request);
        if (!cacheKey.empty()) {
            std::string cached;
            if (responseCache_->lookup(
                    cacheKey, cached,
                    [this](std::uint64_t tag) {
                        return cacheTagValid(tag);
                    })) {
                // Served at the router: no backend round trip. The
                // router's latency histogram is deliberately not
                // fed — it keeps meaning "forwarded requests".
                respond(id,
                        restampResponseId(parseJson(cached),
                                          request->id),
                        false);
                return;
            }
            SingleFlight::Waiter waiter;
            waiter.conn = id;
            waiter.request = request;
            waiter.rawLine = rawLine;
            if (!singleFlight_.join(cacheKey, std::move(waiter)))
                return;
        }
    }
    admitForward(id, std::move(request), std::move(rawLine),
                 std::move(cacheKey));
}

void
Router::admitForward(EventLoop::ConnId id,
                     std::shared_ptr<Request> request,
                     std::shared_ptr<std::string> rawLine,
                     std::string cacheKey)
{
    const Admission::AsyncTicket ticket = admission_.acquireAsync(
        [this, id, request, rawLine,
         cacheKey](AdmissionTicket outcome) {
            if (outcome != AdmissionTicket::Admitted) {
                const JsonValue error =
                    makeErrorResponse(request->id, kCodeRejected,
                                      "draining",
                                      "router is shutting down");
                respond(id, error, false);
                if (!cacheKey.empty())
                    completeFlight(cacheKey, error);
                return;
            }
            bool open;
            {
                std::lock_guard<std::mutex> lock(connMutex_);
                open = connStates_.find(id) != connStates_.end();
            }
            if (!open) {
                // Requester hung up while queued: promote a parked
                // follower as the new leader (it inherits this
                // forwarding slot), or return the slot untouched.
                std::optional<SingleFlight::Waiter> promoted;
                if (!cacheKey.empty())
                    promoted = singleFlight_.abandon(cacheKey);
                if (!promoted) {
                    admission_.release();
                    return;
                }
                forwarders_->submit([this, cacheKey,
                                     waiter = *promoted]() {
                    runForward(waiter.conn, waiter.request,
                               waiter.rawLine, cacheKey);
                });
                return;
            }
            forwarders_->submit(
                [this, id, request, rawLine, cacheKey]() {
                    runForward(id, request, rawLine, cacheKey);
                });
        });
    switch (ticket) {
      case Admission::AsyncTicket::Admitted:
        forwarders_->submit(
            [this, id, request, rawLine, cacheKey]() {
                runForward(id, request, rawLine, cacheKey);
            });
        break;
      case Admission::AsyncTicket::Saturated: {
        const JsonValue error = makeErrorResponse(
            request->id, kCodeRejected, "saturated",
            "router queue full; retry later");
        respond(id, error, false);
        if (!cacheKey.empty())
            completeFlight(cacheKey, error);
        break;
      }
      case Admission::AsyncTicket::Draining: {
        const JsonValue error =
            makeErrorResponse(request->id, kCodeRejected,
                              "draining",
                              "router is shutting down");
        respond(id, error, false);
        if (!cacheKey.empty())
            completeFlight(cacheKey, error);
        break;
      }
      case Admission::AsyncTicket::Queued:
        break;
    }
}

void
Router::runForward(EventLoop::ConnId id,
                   const std::shared_ptr<Request> &request,
                   const std::shared_ptr<std::string> &rawLine,
                   const std::string &cacheKey)
{
    const auto begin = std::chrono::steady_clock::now();
    JsonValue response;
    std::size_t servedBy = backends_.size();
    try {
        response =
            forwardToFleet(routingKey(*request), request->id,
                           *rawLine, servedBy);
    } catch (const std::exception &e) {
        response = makeErrorResponse(request->id, kCodeInternal,
                                     "internal", e.what());
    }
    {
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - begin);
        std::lock_guard<std::mutex> stats(statsMutex_);
        latency_.record(elapsed);
    }
    // Release before responding, like Server::runSearch: a client
    // holding the response must find the forwarding slot free.
    admission_.release();
    if (!cacheKey.empty() && responseCache_ != nullptr &&
        servedBy < backends_.size()) {
        const JsonValue *code = response.find("code");
        if (code != nullptr && code->asI64() == kCodeOk)
            responseCache_->insert(cacheKey, writeJson(response),
                                   cacheTag(servedBy));
    }
    respond(id, response, false);
    if (!cacheKey.empty())
        completeFlight(cacheKey, response);
}

void
Router::completeFlight(const std::string &cacheKey,
                       const JsonValue &response)
{
    const std::vector<SingleFlight::Waiter> waiters =
        singleFlight_.complete(cacheKey);
    for (const SingleFlight::Waiter &waiter : waiters)
        respond(waiter.conn,
                restampResponseId(response, waiter.request->id),
                false);
}

std::uint64_t
Router::cacheTag(std::size_t index) const
{
    // Backend index in the top 16 bits, its health epoch below: one
    // word identifies "these bytes came from backend i during its
    // e-th healthy stretch".
    return (static_cast<std::uint64_t>(index) << 48) |
           (backends_[index]->epoch.load(std::memory_order_relaxed) &
            0xffffffffffffull);
}

bool
Router::cacheTagValid(std::uint64_t tag) const
{
    const std::size_t index = static_cast<std::size_t>(tag >> 48);
    if (index >= backends_.size())
        return false;
    return (tag & 0xffffffffffffull) ==
           (backends_[index]->epoch.load(std::memory_order_relaxed) &
            0xffffffffffffull);
}

void
Router::bumpEpoch(std::size_t index)
{
    backends_[index]->epoch.fetch_add(1, std::memory_order_relaxed);
}

JsonValue
Router::forwardToFleet(const std::string &key,
                       const std::string &requestId,
                       const std::string &line,
                       std::size_t &servedBy)
{
    // Forward the parsed request object — the codec is a fixpoint
    // (raw number tokens round-trip), so the re-encoded frame the
    // backend sees is byte-identical to what the client sent.
    const JsonValue request = parseJson(line);
    std::vector<bool> excluded(backends_.size(), false);
    std::string lastError = "no healthy backend";
    for (std::size_t attempt = 0; attempt < backends_.size();
         ++attempt) {
        const std::size_t index = pickBackend(key, excluded);
        if (index >= backends_.size())
            break;
        BackendState &backend = *backends_[index];
        backend.inflight.fetch_add(1, std::memory_order_relaxed);
        bool haveResponse = false;
        JsonValue response;
        try {
            Client client = takeConnection(index);
            response = client.callWithRetry(request, options_.retry);
            haveResponse = true;
            storeConnection(index, std::move(client));
        } catch (const std::exception &e) {
            // Connect failure, or a drop that outlived the retry
            // budget: the backend is gone — fail over. The health
            // loop readmits it when it answers pings again.
            if (backend.healthy.exchange(false))
                bumpEpoch(index);
            dropConnections(index);
            lastError = e.what();
        }
        backend.inflight.fetch_sub(1, std::memory_order_relaxed);
        if (haveResponse) {
            const JsonValue *code = response.find("code");
            const JsonValue *kind = response.find("kind");
            if (code != nullptr && code->asI64() == kCodeRejected &&
                kind != nullptr && kind->string == "draining") {
                // Rolling restart in progress: this shard is going
                // away; its keys re-hash onto the survivors (and its
                // cached responses expire with its epoch — the
                // restarted process may be configured differently).
                if (!backend.draining.exchange(true))
                    bumpEpoch(index);
                excluded[index] = true;
                {
                    std::lock_guard<std::mutex> stats(statsMutex_);
                    ++reroutes_;
                }
                lastError = "backend draining: " +
                            backend.endpoint.describe();
                continue;
            }
            backend.routed.fetch_add(1, std::memory_order_relaxed);
            servedBy = index;
            return response;
        }
        excluded[index] = true;
        std::lock_guard<std::mutex> stats(statsMutex_);
        ++reroutes_;
    }
    return makeErrorResponse(requestId, kCodeInternal, "no-backend",
                             "no healthy backend available: " +
                                 lastError);
}

void
Router::respond(EventLoop::ConnId id, const JsonValue &response,
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
Router::dispatchNext(EventLoop::ConnId id)
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

// ---------------------------------------------------------------------------
// Quick requests + the fleet report

JsonValue
Router::handleQuick(const Request &request, bool &shutdownAfterSend)
{
    switch (request.type) {
      case RequestType::Ping: {
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
        {
            std::lock_guard<std::mutex> stats(statsMutex_);
            health.requestCount = latency_.count();
            health.p50Ms = latency_.quantileMs(0.50);
            health.p99Ms = latency_.quantileMs(0.99);
        }
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
        out.set("health", healthToJson(health));
        return out;
      }
      case RequestType::Stats: {
        JsonValue out = makeResponse("stats", request.id, kCodeOk);
        out.set("stats", fleetStatsJson());
        return out;
      }
      case RequestType::Shutdown:
        // Drain the router only: backends keep serving — a rolling
        // restart replaces one process at a time.
        shutdownAfterSend = true;
        return makeResponse("shutdown-ack", request.id, kCodeOk);
      case RequestType::Map:
      case RequestType::Net:
        break;
    }
    return makeErrorResponse(request.id, kCodeInternal, "internal",
                             "unreachable request type");
}

JsonValue
Router::fleetStatsJson()
{
    JsonValue out = JsonValue::makeObject();
    const auto uptime =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - startTime_);
    out.set("uptimeMs",
            JsonValue::makeU64(
                static_cast<std::uint64_t>(uptime.count())));

    // Stats sweep over the healthy backends. A backend that fails
    // the sweep is marked unhealthy and reported without stats.
    std::vector<JsonValue> backendStats(backends_.size(),
                                        JsonValue::makeNull());
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        BackendState &backend = *backends_[i];
        if (!backend.healthy.load())
            continue;
        try {
            Client client = takeConnection(i);
            Request statsRequest;
            statsRequest.type = RequestType::Stats;
            statsRequest.id = "router-stats";
            const JsonValue reply =
                client.call(encodeRequest(statsRequest));
            backendStats[i] = reply.at("stats");
            storeConnection(i, std::move(client));
        } catch (const std::exception &) {
            if (backend.healthy.exchange(false))
                bumpEpoch(i);
            dropConnections(i);
        }
    }

    const Admission::Snapshot gate = admission_.snapshot();
    unsigned healthyCount = 0;
    for (const auto &backend : backends_)
        if (backend->healthy.load())
            ++healthyCount;
    JsonValue router = JsonValue::makeObject();
    {
        std::lock_guard<std::mutex> stats(statsMutex_);
        router.set("received", JsonValue::makeU64(received_));
        router.set("completed", JsonValue::makeU64(completed_));
        router.set("errors", JsonValue::makeU64(errors_));
        router.set("connectionsAccepted",
                   JsonValue::makeU64(connectionsAccepted_));
        router.set("reroutes", JsonValue::makeU64(reroutes_));
    }
    router.set("inflight", JsonValue::makeU64(gate.inflight));
    router.set("queued", JsonValue::makeU64(gate.queued));
    router.set("maxForwards", JsonValue::makeU64(gate.maxInflight));
    router.set("queueCapacity",
               JsonValue::makeU64(gate.queueCapacity));
    router.set("draining", JsonValue::makeBool(gate.draining));
    router.set("rejectedSaturated",
               JsonValue::makeU64(gate.rejectedSaturated));
    router.set("rejectedDraining",
               JsonValue::makeU64(gate.rejectedDraining));
    router.set("backendsHealthy", JsonValue::makeU64(healthyCount));
    router.set("backendsTotal",
               JsonValue::makeU64(backends_.size()));

    // The router's own response cache + single-flight gauges (zeros
    // when disabled), mirroring the daemon's block shape.
    JsonValue routerCache = JsonValue::makeObject();
    routerCache.set("enabled",
                    JsonValue::makeBool(responseCache_ != nullptr));
    ResponseCache::Stats rc;
    if (responseCache_ != nullptr)
        rc = responseCache_->stats();
    routerCache.set("hits", JsonValue::makeU64(rc.hits));
    routerCache.set("misses", JsonValue::makeU64(rc.misses));
    routerCache.set("evictions", JsonValue::makeU64(rc.evictions));
    routerCache.set("entries", JsonValue::makeU64(rc.entries));
    routerCache.set("capacity",
                    JsonValue::makeU64(
                        responseCache_ != nullptr
                            ? responseCache_->capacity()
                            : 0));
    const std::uint64_t rcProbes = rc.hits + rc.misses;
    routerCache.set(
        "hitRate",
        JsonValue::makeDouble(
            rcProbes != 0 ? static_cast<double>(rc.hits) /
                                static_cast<double>(rcProbes)
                          : 0.0));
    routerCache.set("coalesced",
                    JsonValue::makeU64(singleFlight_.coalesced()));
    routerCache.set("coalescedWaiting",
                    JsonValue::makeU64(singleFlight_.waiting()));
    routerCache.set("flights",
                    JsonValue::makeU64(singleFlight_.flights()));
    router.set("responseCache", std::move(routerCache));
    out.set("router", std::move(router));

    {
        std::lock_guard<std::mutex> stats(statsMutex_);
        out.set("latency", latency_.toJson());
    }

    // Per-backend gauges; a dead backend contributes its name and
    // healthy:false, nothing else.
    JsonValue perBackend = JsonValue::makeArray();
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        BackendState &backend = *backends_[i];
        JsonValue entry = JsonValue::makeObject();
        entry.set("endpoint",
                  JsonValue::makeString(backend.endpoint.describe()));
        entry.set("healthy",
                  JsonValue::makeBool(backend.healthy.load()));
        if (backend.healthy.load() && !backendStats[i].isNull()) {
            entry.set("draining",
                      JsonValue::makeBool(backend.draining.load()));
            entry.set("inflight",
                      JsonValue::makeU64(backend.inflight.load()));
            entry.set("routed",
                      JsonValue::makeU64(backend.routed.load()));
            entry.set("stats", backendStats[i]);
        }
        perBackend.push(std::move(entry));
    }
    out.set("backends", std::move(perBackend));

    // The aggregated fleet view: summed counters, bucket-wise merged
    // latency histograms, fleet-wide cache hit rate.
    std::uint64_t received = 0, completed = 0, errors = 0,
                  admitted = 0, rejectedSaturated = 0,
                  rejectedDraining = 0;
    std::uint64_t memoHits = 0, memoMisses = 0, memoInserts = 0,
                  memoEntries = 0;
    std::uint64_t respHits = 0, respMisses = 0, respEvictions = 0,
                  respEntries = 0, respCapacity = 0, respCoalesced = 0,
                  respWaiting = 0, respFlights = 0;
    LatencyHistogram fleetLatency;
    // strategy wire name -> {requests, evaluations, millis}
    std::vector<std::pair<std::string, std::array<std::uint64_t, 3>>>
        strategyTotals;
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        const JsonValue &stats = backendStats[i];
        if (stats.isNull())
            continue;
        if (const JsonValue *requests = stats.find("requests")) {
            accumulateU64(*requests, "received", received);
            accumulateU64(*requests, "completed", completed);
            accumulateU64(*requests, "errors", errors);
            accumulateU64(*requests, "admitted", admitted);
            accumulateU64(*requests, "rejectedSaturated",
                          rejectedSaturated);
            accumulateU64(*requests, "rejectedDraining",
                          rejectedDraining);
        }
        if (const JsonValue *memo = stats.find("layerMemo")) {
            accumulateU64(*memo, "hits", memoHits);
            accumulateU64(*memo, "misses", memoMisses);
            accumulateU64(*memo, "inserts", memoInserts);
            accumulateU64(*memo, "entries", memoEntries);
        }
        // Fan-in: the fleet's cache effectiveness is the sum over
        // the backends' daemon-side caches (absent on pre-cache
        // backends — getU64 defaults to zero).
        if (const JsonValue *resp = stats.find("responseCache")) {
            accumulateU64(*resp, "hits", respHits);
            accumulateU64(*resp, "misses", respMisses);
            accumulateU64(*resp, "evictions", respEvictions);
            accumulateU64(*resp, "entries", respEntries);
            accumulateU64(*resp, "capacity", respCapacity);
            accumulateU64(*resp, "coalesced", respCoalesced);
            accumulateU64(*resp, "coalescedWaiting", respWaiting);
            accumulateU64(*resp, "flights", respFlights);
        }
        if (const JsonValue *lat = stats.find("latency"))
            fleetLatency.merge(LatencyHistogram::fromJson(*lat));
        if (const JsonValue *strategies = stats.find("strategies")) {
            for (const auto &member : strategies->object) {
                auto it = std::find_if(
                    strategyTotals.begin(), strategyTotals.end(),
                    [&](const auto &entry) {
                        return entry.first == member.first;
                    });
                if (it == strategyTotals.end()) {
                    strategyTotals.push_back(
                        {member.first, {0, 0, 0}});
                    it = std::prev(strategyTotals.end());
                }
                it->second[0] +=
                    member.second.getU64("requests", 0);
                it->second[1] +=
                    member.second.getU64("evaluations", 0);
                it->second[2] += member.second.getU64("millis", 0);
            }
        }
    }
    JsonValue fleet = JsonValue::makeObject();
    JsonValue fleetRequests = JsonValue::makeObject();
    fleetRequests.set("received", JsonValue::makeU64(received));
    fleetRequests.set("completed", JsonValue::makeU64(completed));
    fleetRequests.set("errors", JsonValue::makeU64(errors));
    fleetRequests.set("admitted", JsonValue::makeU64(admitted));
    fleetRequests.set("rejectedSaturated",
                      JsonValue::makeU64(rejectedSaturated));
    fleetRequests.set("rejectedDraining",
                      JsonValue::makeU64(rejectedDraining));
    fleet.set("requests", std::move(fleetRequests));

    JsonValue fleetMemo = JsonValue::makeObject();
    fleetMemo.set("hits", JsonValue::makeU64(memoHits));
    fleetMemo.set("misses", JsonValue::makeU64(memoMisses));
    fleetMemo.set("inserts", JsonValue::makeU64(memoInserts));
    fleetMemo.set("entries", JsonValue::makeU64(memoEntries));
    fleet.set("layerMemo", std::move(fleetMemo));

    JsonValue fleetResp = JsonValue::makeObject();
    fleetResp.set("hits", JsonValue::makeU64(respHits));
    fleetResp.set("misses", JsonValue::makeU64(respMisses));
    fleetResp.set("evictions", JsonValue::makeU64(respEvictions));
    fleetResp.set("entries", JsonValue::makeU64(respEntries));
    fleetResp.set("capacity", JsonValue::makeU64(respCapacity));
    const std::uint64_t respProbes = respHits + respMisses;
    fleetResp.set(
        "hitRate",
        JsonValue::makeDouble(
            respProbes != 0 ? static_cast<double>(respHits) /
                                  static_cast<double>(respProbes)
                            : 0.0));
    fleetResp.set("coalesced", JsonValue::makeU64(respCoalesced));
    fleetResp.set("coalescedWaiting",
                  JsonValue::makeU64(respWaiting));
    fleetResp.set("flights", JsonValue::makeU64(respFlights));
    fleet.set("responseCache", std::move(fleetResp));

    fleet.set("latency", fleetLatency.toJson());

    JsonValue fleetStrategies = JsonValue::makeObject();
    for (const auto &entry : strategyTotals) {
        JsonValue js = JsonValue::makeObject();
        js.set("requests", JsonValue::makeU64(entry.second[0]));
        js.set("evaluations", JsonValue::makeU64(entry.second[1]));
        js.set("millis", JsonValue::makeU64(entry.second[2]));
        js.set("evalsPerSec",
               JsonValue::makeDouble(
                   entry.second[2] != 0
                       ? static_cast<double>(entry.second[1]) *
                             1000.0 /
                             static_cast<double>(entry.second[2])
                       : static_cast<double>(entry.second[1]) *
                             1000.0));
        fleetStrategies.set(entry.first, std::move(js));
    }
    fleet.set("strategies", std::move(fleetStrategies));
    out.set("fleet", std::move(fleet));
    return out;
}

void
Router::logLine(const std::string &line) const
{
    std::cerr << line << std::endl;
}

} // namespace serve
} // namespace ruby
