/**
 * @file
 * wire_hot: skewed repeat traffic through the router.
 *
 * Two NetServer backends (workers 1, caches on: clare_server --cache)
 * load one saved store and sit behind a Router with replication 2
 * (clare_router).  Two NetClient connections run a closed loop of
 * single-request frames, as a Prolog host waits for each reply.  Goals
 * follow a Zipf law over kDistinct goals, a set that fits in L3; set-up
 * warms both backends, so nearly every timed request is an L3 hit
 * answered with the cached wire blob.  Per-request cost is then the
 * wire codec, the epoll loops and the router relay.
 */

#include <atomic>
#include <thread>

#include "kb.hh"
#include "layers.hh"
#include "net/client.hh"
#include "net/router.hh"
#include "net/server.hh"
#include "support/random.hh"
#include "workloads.hh"

namespace clarebench {

using namespace clare;

namespace {

/** 8 predicates x 1000 clauses, arity 2-4, facts only. */
constexpr KbShape kShape{8, 1000, 0};
constexpr std::size_t kDistinct = 128;
constexpr double kZipfS = 1.0;
constexpr unsigned kClients = 2;
/** Leading responses of client 0 that form the digest. */
constexpr std::size_t kDigestRequests = 256;
/** Every n-th response of each client is kept for the gate. */
constexpr std::size_t kGateEvery = 64;
constexpr std::size_t kGateMax = 2048;
/** Requests per wire probe of the traced run. */
constexpr std::size_t kProbeRequests = 4096;
/** Goals of the snapshot probes after the write probe. */
constexpr std::size_t kSnapshotGoals = 32;

struct Backend
{
    LoadedStore loaded;
    std::unique_ptr<crs::ClauseRetrievalServer> server;
    std::unique_ptr<net::NetServer> net;
};

struct World
{
    GeneratedKb kb;
    std::vector<Goal> goals;
    crs::CrsConfig config;
    std::vector<std::unique_ptr<Backend>> backends;
    std::unique_ptr<net::Router> router;

    World() = default;
    World(const World &) = delete;
    World &operator=(const World &) = delete;
    ~World()
    {
        if (router)
            router->stop();
        for (auto &b : backends)
            if (b->net)
                b->net->stop();
    }
};

std::unique_ptr<World>
setup(std::uint64_t seed, const std::string &dir)
{
    auto w = std::make_unique<World>();
    w->kb = generateKb(kShape, seed);
    w->goals = keyedGoals(w->kb, kDistinct, seed * 0x9e3779b97f4a7c15ull + 7);
    saveKb(w->kb, dir);
    w->kb.program = term::Program{};
    w->config.cache.enabled = true;

    net::RouterConfig rc;
    for (int i = 0; i < 2; ++i) {
        auto b = std::make_unique<Backend>();
        b->loaded = loadKb(dir);
        b->server = std::make_unique<crs::ClauseRetrievalServer>(
            *b->loaded.symbols, *b->loaded.store, w->config);
        b->net = std::make_unique<net::NetServer>(
            *b->loaded.symbols, *b->loaded.store, *b->server);
        b->net->start();
        rc.backendPorts.push_back(b->net->port());
        w->backends.push_back(std::move(b));
    }
    rc.replication = 2;
    w->router = std::make_unique<net::Router>(rc);
    w->router->start();

    // Warm both backends over the wire, so whichever replica the
    // router picks holds every goal in L3.
    for (auto &b : w->backends) {
        net::NetClient warm(b->net->port(), "warm-up");
        for (const Goal &g : w->goals)
            warm.serve(g.request());
    }
    return w;
}

struct ClientResult
{
    PhaseStats stats;
    std::uint64_t failed = 0;
    std::vector<Sample> gate;
    std::vector<crs::RetrievalResponse> digest;
};

/** Closed loop of one client connection until @p deadline. */
void
clientLoop(Run &run, World &w, std::uint16_t port, unsigned client,
           int slice, Clock::time_point deadline, bool keepDigest,
           ClientResult &out)
{
    net::NetClient conn(port, "client-" + std::to_string(client));
    Zipf zipf(kDistinct, kZipfS);
    Rng rng(run.args.seed * 0x2545f4914f6cdd1dull + slice * 16 + client + 1);
    auto more = [&] {
        return Clock::now() < deadline ||
            (keepDigest && out.digest.size() < kDigestRequests);
    };
    for (std::uint64_t n = 0; more(); ++n) {
        std::size_t goal = zipf.rank(rng.uniform());
        Clock::time_point t0 = Clock::now();
        try {
            crs::RetrievalResponse r;
            {
                Scope span(run.spans, "net.client.serve", 0,
                           (std::uint64_t{client} << 48) | n);
                r = conn.serve(w.goals[goal].request());
            }
            out.stats.latencyUs.add(microsBetween(t0, Clock::now()));
            ++out.stats.goals;
            if (keepDigest && out.digest.size() < kDigestRequests)
                out.digest.push_back(r);
            if (n % kGateEvery == 0 && out.gate.size() < kGateMax)
                out.gate.push_back(Sample{goal, std::move(r)});
        } catch (const Error &e) {
            ++out.failed;
            out.stats.latencyUs.addFailed();
            if (out.failed <= 3)
                std::fprintf(stderr, "clarebench: request failed: %s\n",
                             e.what());
        }
    }
}

/** kClients closed loops against @p port for @p seconds. */
PhaseStats
timedPhase(Run &run, World &w, std::uint16_t port, double seconds,
           int slice, Digest *digest, std::vector<Sample> &gate)
{
    std::vector<ClientResult> results(kClients);
    Clock::time_point start = Clock::now();
    Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    {
        std::vector<std::jthread> threads;
        for (unsigned c = 0; c < kClients; ++c)
            threads.emplace_back([&, c] {
                clientLoop(run, w, port, c, slice, deadline,
                           digest != nullptr && c == 0, results[c]);
            });
    }
    PhaseStats stats;
    stats.seconds = secondsBetween(start, Clock::now());
    for (ClientResult &r : results) {
        stats.merge(r.stats);
        run.attempted += r.stats.goals + r.failed;
        run.failed += r.failed;
        for (Sample &s : r.gate)
            if (gate.size() < kGateMax)
                gate.push_back(std::move(s));
    }
    if (digest != nullptr) {
        for (const crs::RetrievalResponse &r : results[0].digest)
            digest->add(r);
    }
    return stats;
}

/**
 * Mean round trip (us) of kProbeRequests requests cycling through the
 * goals, over @p clients concurrent connections to @p port.
 */
double
meanRtt(Run &run, World &w, std::uint16_t port, unsigned clients,
        const char *span)
{
    std::vector<double> sums(clients, 0.0);
    std::atomic<bool> failed{false};
    {
        std::vector<std::jthread> threads;
        for (unsigned c = 0; c < clients; ++c)
            threads.emplace_back([&, c] {
                try {
                    net::NetClient conn(port, "probe-" + std::to_string(c));
                    for (std::size_t i = 0; i < kProbeRequests; ++i) {
                        const Goal &g =
                            w.goals[(i + c * 7) % w.goals.size()];
                        Clock::time_point t0 = Clock::now();
                        Scope s(run.spans, span, 0, i);
                        conn.serve(g.request());
                        sums[c] += microsBetween(t0, Clock::now());
                    }
                } catch (const Error &e) {
                    std::fprintf(stderr, "clarebench: %s probe: %s\n",
                                 span, e.what());
                    failed = true;
                }
            });
    }
    if (failed)
        throw std::runtime_error(std::string(span) + " probe failed");
    double total = 0;
    for (double s : sums)
        total += s;
    return total / static_cast<double>(clients * kProbeRequests);
}

void
wireMetrics(Run &run, World &w, const CounterBaseline &router,
            std::uint64_t requests)
{
    double n = static_cast<double>(requests);
    const double relayed =
        static_cast<double>(router.delta("router.relayed")) / n;
    const double failovers =
        static_cast<double>(router.delta("router.failovers")) / n;
    const double shed = static_cast<double>(router.delta("router.shed")) / n;
    const std::uint16_t direct = w.backends[0]->net->port();
    const std::uint16_t routed = w.router->port();
    double direct1 = meanRtt(run, w, direct, 1, "net.direct.rtt1");
    double routed1 = meanRtt(run, w, routed, 1, "net.router.rtt1");
    double direct2 = meanRtt(run, w, direct, 2, "net.direct.rtt2");
    double routed2 = meanRtt(run, w, routed, 2, "net.router.rtt2");
    Report &r = run.report;
    r.set("net.server_rtt_us", direct1, "us",
          "(NetClient straight to one backend, 1 client)");
    r.set("net.router_hop_us", routed1 - direct1, "us",
          "(router RTT minus direct RTT, 1 client)");
    r.set("net.router.wait_us", (routed2 - direct2) - (routed1 - direct1),
          "us", "(extra router hop time with 2 clients)");
    r.set("net.router.relayed", relayed, "ratio", "(per timed request)");
    r.set("net.router.failovers", failovers, "ratio",
          "(per timed request)");
    r.set("net.router.shed", shed, "ratio", "(per timed request)");
}

} // namespace

void
runWireHot(Run &run)
{
    // Every thread of the wire path (clients, router, backends) on one
    // CPU: a request then costs the CPU work of the codec, the epoll
    // loops and the relay, not the wake-up latency of idle virtual
    // CPUs, which swings run to run far more than that work does.
    std::printf("pinned to cpu %d\n", pinToCpu());
    const std::uint64_t seed = run.args.seed;
    std::unique_ptr<World> w = repeatedSetup<World>(
        run, [seed](const std::string &dir) { return setup(seed, dir); });
    std::vector<const obs::MetricsRegistry *> servers;
    for (auto &b : w->backends)
        servers.push_back(&b->server->metrics());
    CounterBaseline baseline(servers);
    CounterBaseline router({&w->router->metrics()});
    const std::uint64_t attemptedBefore = run.attempted;

    Digest digest;
    std::vector<Sample> gate;
    const std::uint16_t port = w->router->port();
    if (!run.args.trace) {
        reportEndToEnd(run, timedPhase(run, *w, port, run.args.seconds, 0,
                                       &digest, gate));
    } else {
        alternateSlices(run, [&](double seconds, int slice) {
            return timedPhase(run, *w, port, seconds, slice,
                              slice == 0 ? &digest : nullptr, gate);
        });
    }
    Backend &b0 = *w->backends[0];
    checkGate(run, *b0.loaded.symbols, *b0.loaded.store, w->goals, gate,
              w->config.cache);
    if (run.args.trace) {
        double l3 = cacheAndModeMetrics(run, baseline);
        wireMetrics(run, *w, router, run.attempted - attemptedBefore);
        ReplayInput in;
        for (const Goal &g : w->goals)
            in.goals.push_back(&g);
        in.symbols = b0.loaded.symbols.get();
        in.store = b0.loaded.store.get();
        in.config = w->config;
        in.l3HitRatio = l3;
        replayLayers(run, in);
    }

    std::vector<const Goal *> probeGoals;
    for (std::size_t i = 0; i < kSnapshotGoals; ++i)
        probeGoals.push_back(&w->goals[i]);
    CounterBaseline beforeProbe({&b0.server->metrics()});
    WriteProbe probe = writeProbe(run, *b0.loaded.store, *b0.loaded.symbols,
                                  *b0.server, probeGoals, digest);
    std::printf("digest %s over %zu goals\n", digest.hex().c_str(),
                digest.count());
    if (run.args.trace)
        writeMetrics(run, probe, beforeProbe.delta("crs.cache.invalidations"));
}

} // namespace clarebench
