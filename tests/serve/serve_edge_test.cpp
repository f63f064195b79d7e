/**
 * @file
 * Front-door edge-timing tests: the drain and session machinery under
 * awkward interleavings — SIGTERM arriving mid-handshake while a
 * client holds a half-written line, a partial line at EOF, and a
 * client that disconnects while its request is still queued behind a
 * saturated admission gate. Every case runs against both front
 * doors: the daemon on its own, and a router in front of one
 * single-slot daemon. The invariant under all of them: every
 * admission slot returns to the front door's gate (inflight == 0,
 * queued == 0) and it stays (or winds down) healthy.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "ruby/common/error.hpp"
#include "ruby/serve/client.hpp"
#include "ruby/serve/protocol.hpp"
#include "ruby/serve/router.hpp"
#include "ruby/serve/server.hpp"

namespace ruby
{
namespace serve
{
namespace
{

using std::chrono::milliseconds;

/** Front-door settings a test varies (the rest stay at defaults). */
struct FrontSettings
{
    unsigned slots = 2;
    std::size_t queueCapacity = 8;
    milliseconds drainBudget{10'000};
};

ServeOptions
daemonOptions(unsigned slots, std::size_t queueCapacity,
              milliseconds drainBudget)
{
    ServeOptions o;
    o.port = 0; // ephemeral
    o.logLifecycle = false;
    o.maxInflight = slots;
    o.queueCapacity = queueCapacity;
    o.drainBudget = drainBudget;
    return o;
}

/** The daemon as the front door. */
struct DaemonFront
{
    static constexpr const char *kName = "Server";

    explicit DaemonFront(const FrontSettings &s)
        : server(daemonOptions(s.slots, s.queueCapacity, s.drainBudget))
    {
        server.start();
    }

    FrontDoor &door() { return server; }
    /** The daemon's own admission gauges. */
    JsonValue gauges() const
    {
        return server.statsJson().at("requests");
    }

    Server server;
};

/** A router as the front door, in front of one single-slot daemon. */
struct RouterFront
{
    static constexpr const char *kName = "Router";

    explicit RouterFront(const FrontSettings &s)
        : backend(std::make_unique<Server>(
              daemonOptions(1, 8, milliseconds(10'000))))
    {
        backend->start();
        RouterOptions o;
        o.port = 0;
        o.logLifecycle = false;
        o.maxForwards = s.slots;
        o.queueCapacity = s.queueCapacity;
        o.drainBudget = s.drainBudget;
        Endpoint endpoint;
        endpoint.port = backend->port();
        o.backends.push_back(endpoint);
        router = std::make_unique<Router>(std::move(o));
        router->start();
    }

    FrontDoor &door() { return *router; }
    /** The router's own forwarding-slot gauges. */
    JsonValue gauges() const
    {
        return router->fleetStatsJson().at("router");
    }

    // Destroyed router first: each drains on destruction.
    std::unique_ptr<Server> backend;
    std::unique_ptr<Router> router;
};

template <typename Front>
class ServeEdge : public ::testing::Test
{
};

struct FrontName
{
    template <typename Front>
    static std::string GetName(int)
    {
        return Front::kName;
    }
};

using Fronts = ::testing::Types<DaemonFront, RouterFront>;
TYPED_TEST_SUITE(ServeEdge, Fronts, FrontName);

/** A config with no valid mapping; with --evals 0 and a time budget
 *  it occupies a slot for exactly the budget (and, being
 *  time-budgeted, is never served from a response cache). */
const char *kSlowConfig =
    "architecture:\n"
    "  name: impossible\n"
    "  levels:\n"
    "    - name: tiny\n"
    "      capacity_words: 1\n"
    "    - name: DRAM\n"
    "      backing_store: true\n"
    "workload:\n"
    "  type: gemm\n"
    "  name: g16\n"
    "  m: 16\n"
    "  n: 16\n"
    "  k: 16\n"
    "mapper:\n"
    "  mapspace: pfm\n";

std::string
slowMapLine(const std::string &id, int budgetMs)
{
    Request req;
    req.type = RequestType::Map;
    req.id = id;
    req.configText = kSlowConfig;
    req.variant = MapspaceVariant::PFM;
    req.search.maxEvaluations = 0;
    req.search.terminationStreak = 0;
    req.search.timeBudget = milliseconds(budgetMs);
    req.search.threads = 1;
    return writeJson(encodeRequest(req));
}

/** Raw fd connected to the server (bypasses Client so tests can send
 *  partial lines and slam the socket shut). */
int
rawConnect(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

void
rawSend(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return;
        off += static_cast<std::size_t>(n);
    }
}

template <typename Front>
std::uint64_t
gauge(const Front &front, const char *name)
{
    return front.gauges().at(name).asU64();
}

/** Wait until inflight and queued both read zero (leak detector). */
template <typename Front>
void
expectSlotsReleased(const Front &front, const char *context)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
        const std::uint64_t inflight = gauge(front, "inflight");
        const std::uint64_t queued = gauge(front, "queued");
        if (inflight == 0 && queued == 0)
            return;
        if (std::chrono::steady_clock::now() >= deadline) {
            FAIL() << context << ": admission slots leaked: inflight="
                   << inflight << " queued=" << queued;
            return;
        }
        std::this_thread::sleep_for(milliseconds(10));
    }
}

/** A ping answered by the front door at @p port? */
bool
pongs(int port, const std::string &id)
{
    Client probe = Client::connectTcp("127.0.0.1", port);
    JsonValue ping = JsonValue::makeObject();
    ping.set("v", JsonValue::makeI64(kProtocolVersion));
    ping.set("type", JsonValue::makeString("ping"));
    ping.set("id", JsonValue::makeString(id));
    return probe.call(ping).at("type").asString() == "pong";
}

/**
 * SIGTERM mid-handshake: a client connects and writes half a request
 * line, then the drain begins. The front door must complete the
 * drain promptly (the half-open session cannot hold it hostage) with
 * no slot left behind.
 */
TYPED_TEST(ServeEdge, SigtermMidHandshakeDrainsCleanly)
{
    FrontSettings settings;
    settings.drainBudget = milliseconds(2'000);
    TypeParam front(settings);
    FrontDoor::installSignalDrain(front.door());

    const int fd = rawConnect(front.door().port());
    ASSERT_GE(fd, 0);
    // Half a request: no newline, the session is mid-read.
    rawSend(fd, "{\"v\":1,\"type\":\"pi");

    ::kill(::getpid(), SIGTERM);

    const auto startedAt = std::chrono::steady_clock::now();
    front.door().waitForShutdown();
    const auto elapsed =
        std::chrono::duration_cast<milliseconds>(
            std::chrono::steady_clock::now() - startedAt);
    // Nothing was inflight: the drain must not burn the whole budget
    // waiting on the half-written line.
    EXPECT_LT(elapsed.count(), 10'000);
    expectSlotsReleased(front, "sigterm mid-handshake");
    ::close(fd);
}

/**
 * Partial line at EOF: a client sends bytes with no terminator and
 * hangs up. The session must discard the fragment and exit without
 * touching the admission gate, and the front door must keep serving
 * others.
 */
TYPED_TEST(ServeEdge, PartialLineAtEofIsDiscarded)
{
    TypeParam front(FrontSettings{});

    const int fd = rawConnect(front.door().port());
    ASSERT_GE(fd, 0);
    rawSend(fd, "{\"v\":1,\"type\":\"ping\",\"id\":\"lost");
    ::close(fd); // EOF with the line unterminated

    // Still healthy for the next client.
    EXPECT_TRUE(pongs(front.door().port(), "after-eof"));
    expectSlotsReleased(front, "partial line at EOF");
}

/**
 * Disconnect while queued: with one slot and a deep queue, a second
 * client's request waits behind a slow one; the second client hangs
 * up while still queued. When the slot frees, the queued request
 * finds its connection gone, and the slot must still return to the
 * gate.
 */
TYPED_TEST(ServeEdge, DisconnectWhileQueuedReleasesSlots)
{
    FrontSettings settings;
    settings.slots = 1;
    settings.queueCapacity = 4;
    TypeParam front(settings);
    const int port = front.door().port();

    // Occupy the only slot for ~1.5 s.
    const int slow = rawConnect(port);
    ASSERT_GE(slow, 0);
    rawSend(slow, slowMapLine("slow", 1'500) + "\n");

    // Wait until the slow request holds the slot.
    const auto holdDeadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (gauge(front, "inflight") == 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), holdDeadline)
            << "slow request never took the slot";
        std::this_thread::sleep_for(milliseconds(10));
    }

    // Queue a second request, then slam the connection shut while it
    // is still waiting for the slot.
    const int impatient = rawConnect(port);
    ASSERT_GE(impatient, 0);
    rawSend(impatient, slowMapLine("impatient", 100) + "\n");
    const auto queueDeadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (gauge(front, "queued") == 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), queueDeadline)
            << "second request never queued";
        std::this_thread::sleep_for(milliseconds(10));
    }
    ::close(impatient);

    // Both requests eventually resolve; no slot may leak.
    expectSlotsReleased(front, "disconnect while queued");

    // And the gate still serves: a fresh ping works.
    EXPECT_TRUE(pongs(port, "after-queue"));
    ::close(slow);
}

} // namespace
} // namespace serve
} // namespace ruby
