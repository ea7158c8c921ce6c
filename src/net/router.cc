#include "net/router.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

namespace clare::net {

namespace {

const obs::CounterDef kAccepted{"router.accepted", "connections accepted"};
const obs::CounterDef kClosed{"router.closed", "connections closed"};
const obs::CounterDef kShed{"router.shed", "requests/connections shed"};
const obs::CounterDef kBadFrames{"router.bad_frames",
                                 "client frames failing validation"};
const obs::CounterDef kRequests{"router.requests", "requests received"};
const obs::CounterDef kBatches{"router.batches", "batch requests received"};
const obs::CounterDef kBatchItems{"router.batch_items",
                                  "batch items received"};
const obs::CounterDef kSubbatches{"router.subbatches",
                                  "per-shard sub-batches issued"};
const obs::CounterDef kBadRequests{"router.bad_requests",
                                   "requests failing validation"};
const obs::CounterDef kRelayed{"router.relayed", "responses relayed"};
const obs::CounterDef kRelayedDegraded{"router.relayed_degraded",
                                       "degraded responses relayed"};
const obs::CounterDef kUnavailable{
    "router.unavailable", "requests with no replica able to answer"};
const obs::CounterDef kFailovers{"router.failovers",
                                 "replica attempts after a failure"};
const obs::CounterDef kDegradedRetries{
    "router.degraded_retries", "replica attempts after a held degraded reply"};
const obs::CounterDef kDegradedHeld{
    "router.degraded_held", "degraded replies held pending a clean replica"};
const obs::CounterDef kProbes{"router.probes", "health probes sent"};
const obs::CounterDef kRecovered{"router.recovered",
                                 "backends probed back to healthy"};
const obs::GaugeDef kHealthyBackends{"router.healthy_backends",
                                     "backends currently healthy"};
const obs::CounterDef kCatalogReloads{"router.catalog_reloads",
                                      "catalog reloads applied"};

/** splitmix64 finalizer (the repo's standard avalanche step). */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
shardHash(const term::PredicateId &pred)
{
    return mix((static_cast<std::uint64_t>(pred.functor) << 32) |
               pred.arity);
}

/**
 * Send a whole frame on a freshly accepted (nonblocking) fd, bounded
 * by @p timeoutMillis.  A bare ::send can take a prefix and leave a
 * torn frame on the wire, which the peer reports as desync instead of
 * the clean typed error the shed path means to deliver; looping (with
 * a short poll on EAGAIN) to completion keeps the frame whole.  The
 * frame is tens of bytes into an empty socket buffer, so the bound is
 * a backstop, not a budget.
 */
void
sendWholeFrame(int fd, const std::vector<std::uint8_t> &frame,
               int timeoutMillis)
{
    using Clock = std::chrono::steady_clock;
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeoutMillis);
    std::size_t at = 0;
    while (at < frame.size()) {
        ssize_t n = ::send(fd, frame.data() + at, frame.size() - at,
                           MSG_NOSIGNAL);
        if (n > 0) {
            at += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            Clock::time_point now = Clock::now();
            if (now >= deadline)
                return; // bounded: give up, caller closes the fd
            pollfd p{};
            p.fd = fd;
            p.events = POLLOUT;
            int wait = static_cast<int>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - now)
                    .count());
            ::poll(&p, 1, wait > 0 ? wait : 1);
            continue;
        }
        return; // hard error: nothing more to salvage
    }
}

} // namespace

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      listener_(config_.port)
{
    if (config_.backendPorts.empty())
        throw Error("router needs at least one backend");
    if (config_.replication == 0)
        throw Error("router replication must be at least 1");
    if (config_.replication > config_.backendPorts.size())
        config_.replication =
            static_cast<std::uint32_t>(config_.backendPorts.size());

    for (std::uint16_t port : config_.backendPorts) {
        Backend &backend = backends_.emplace_back();
        backend.port = port;
        backend.name = "backend:" + std::to_string(port);
    }

    if (!config_.catalogPath.empty())
        setCatalog(ShardCatalog::load(config_.catalogPath));

    int efd = ::epoll_create1(0);
    if (efd < 0)
        throw IoError("router", "epoll_create1 failed");
    epollFd_ = OwnedFd(efd);
    int wfd = ::eventfd(0, EFD_NONBLOCK);
    if (wfd < 0)
        throw IoError("router", "eventfd failed");
    wakeFd_ = OwnedFd(wfd);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listener_.fd();
    ::epoll_ctl(epollFd_.get(), EPOLL_CTL_ADD, listener_.fd(), &ev);
    ev.data.fd = wakeFd_.get();
    ::epoll_ctl(epollFd_.get(), EPOLL_CTL_ADD, wakeFd_.get(), &ev);
}

Router::~Router()
{
    stop();
}

void
Router::start()
{
    if (running_.exchange(true))
        return;
    thread_ = std::thread([this] { run(); });
    probeThread_ = std::thread([this] { probeLoop(); });
}

void
Router::stop()
{
    if (running_.exchange(false)) {
        std::uint64_t one = 1;
        [[maybe_unused]] ssize_t n =
            ::write(wakeFd_.get(), &one, sizeof(one));
        probeCv_.notify_all();
    }
    if (thread_.joinable())
        thread_.join();
    if (probeThread_.joinable())
        probeThread_.join();
    connections_.clear();
    for (Backend &backend : backends_) {
        std::lock_guard<std::mutex> lock(backend.streamMutex);
        backend.stream.reset();
        backend.probeStream.reset();
    }
}

void
Router::setCatalog(ShardCatalog catalog)
{
    catalog.validate(backends_.size());
    auto fresh = std::make_shared<const ShardCatalog>(std::move(catalog));
    std::lock_guard<std::mutex> lock(catalogMutex_);
    catalog_ = std::move(fresh);
}

void
Router::reloadCatalog(const std::string &path)
{
    const std::string &from =
        path.empty() ? config_.catalogPath : path;
    if (from.empty())
        throw Error("router has no catalog path to reload from");
    setCatalog(ShardCatalog::load(from));
    ++metrics_.counter(kCatalogReloads);
}

std::shared_ptr<const ShardCatalog>
Router::catalog() const
{
    std::lock_guard<std::mutex> lock(catalogMutex_);
    return catalog_;
}

std::vector<std::uint32_t>
Router::replicasOf(const term::PredicateId &pred) const
{
    std::shared_ptr<const ShardCatalog> cat = catalog();
    if (cat) {
        const std::vector<std::uint32_t> *replicas = cat->replicasOf(pred);
        if (replicas == nullptr)
            return {}; // not in the catalog: no replica can serve it
        return *replicas;
    }
    std::uint64_t base = shardHash(pred);
    std::size_t n = backends_.size();
    std::vector<std::uint32_t> replicas;
    replicas.reserve(config_.replication);
    for (std::uint32_t i = 0; i < config_.replication; ++i)
        replicas.push_back(
            static_cast<std::uint32_t>((base + i) % n));
    return replicas;
}

void
Router::run()
{
    epoll_event events[64];
    while (running_.load()) {
        int n = ::epoll_wait(epollFd_.get(), events, 64, 200);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            int fd = events[i].data.fd;
            if (fd == wakeFd_.get()) {
                std::uint64_t drained;
                [[maybe_unused]] ssize_t rd =
                    ::read(wakeFd_.get(), &drained, sizeof(drained));
                continue;
            }
            if (fd == listener_.fd()) {
                acceptPending();
                continue;
            }
            auto it = connections_.find(fd);
            if (it == connections_.end())
                continue;
            bool alive = true;
            if (events[i].events & (EPOLLHUP | EPOLLERR))
                alive = false;
            if (alive && (events[i].events & EPOLLIN))
                alive = readReady(it->second);
            if (alive && (events[i].events & EPOLLOUT))
                alive = writeReady(it->second);
            if (!alive)
                closeConnection(fd);
        }
    }
}

void
Router::probeLoop()
{
    // Probes live on this thread, with their own connections: a dead
    // or hung backend makes *this* thread wait out the timeout while
    // the event loop keeps relaying for every healthy backend.
    std::unique_lock<std::mutex> lock(probeMutex_);
    while (running_.load()) {
        probeCv_.wait_for(
            lock,
            std::chrono::milliseconds(config_.probeIntervalMillis),
            [this] { return !running_.load(); });
        if (!running_.load())
            break;
        lock.unlock();
        probeBackends();
        lock.lock();
    }
}

void
Router::acceptPending()
{
    for (;;) {
        OwnedFd fd = listener_.accept();
        if (!fd.valid())
            return;
        if (connections_.size() >= config_.maxConnections) {
            ++metrics_.counter(kShed);
            std::vector<std::uint8_t> frame;
            encodeFrame(FrameType::Error,
                        encodeError(ErrorCode::Overloaded,
                                    "connection limit reached"),
                        frame);
            sendWholeFrame(fd.get(), frame, 100);
            continue;
        }
        ++metrics_.counter(kAccepted);
        int raw = fd.get();
        Connection conn;
        conn.peer = "client:" + std::to_string(raw);
        conn.fd = std::move(fd);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = raw;
        ::epoll_ctl(epollFd_.get(), EPOLL_CTL_ADD, raw, &ev);
        connections_.emplace(raw, std::move(conn));
    }
}

bool
Router::readReady(Connection &conn)
{
    for (;;) {
        std::size_t have = conn.inbound.size();
        if (have < conn.needed) {
            std::uint8_t buf[4096];
            std::size_t want =
                std::min(conn.needed - have, sizeof(buf));
            ssize_t n = ::recv(conn.fd.get(), buf, want, 0);
            if (n == 0)
                return false;
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    return true;
                if (errno == EINTR)
                    continue;
                return false;
            }
            conn.inbound.insert(conn.inbound.end(), buf, buf + n);
            if (conn.inbound.size() < conn.needed)
                continue;
        }
        if (conn.readingHeader) {
            try {
                conn.header =
                    decodeFrameHeader(conn.inbound.data(), conn.peer);
            } catch (const CorruptionError &) {
                ++metrics_.counter(kBadFrames);
                return false;
            }
            conn.readingHeader = false;
            conn.needed = conn.header.payloadBytes;
            conn.inbound.clear();
            if (conn.needed > 0)
                continue;
        }
        std::vector<std::uint8_t> payload = std::move(conn.inbound);
        conn.inbound = {};
        conn.readingHeader = true;
        conn.needed = kFrameHeaderBytes;
        try {
            verifyFramePayload(conn.header, payload.data(),
                               payload.size(), conn.peer);
        } catch (const CorruptionError &) {
            ++metrics_.counter(kBadFrames);
            return false;
        }
        if (!dispatchFrame(conn, std::move(payload)))
            return false;
    }
}

bool
Router::dispatchFrame(Connection &conn,
                      std::vector<std::uint8_t> payload)
{
    switch (conn.header.type) {
      case FrameType::Request:
        relayRequest(conn, payload);
        break;
      case FrameType::BatchRequest:
        relayBatch(conn, payload);
        break;
      case FrameType::Health: {
        std::string body = healthJson().dump();
        queueFrame(conn, FrameType::HealthReply,
                   std::vector<std::uint8_t>(body.begin(),
                                             body.end()));
        break;
      }
      case FrameType::Response:
      case FrameType::Error:
      case FrameType::HealthReply:
      case FrameType::BatchResponse:
        ++metrics_.counter(kBadFrames);
        return false;
    }
    updateEpoll(conn);
    return true;
}

ReceivedFrame
Router::callBackend(Backend &backend, FrameType type,
                    const std::vector<std::uint8_t> &payload)
{
    // Concurrent sub-batches of one client batch may target the same
    // backend; the stream is one framed connection, so calls must not
    // interleave.
    std::lock_guard<std::mutex> lock(backend.streamMutex);
    try {
        if (!backend.stream)
            backend.stream.emplace(backend.port, backend.name,
                                   config_.backendTimeoutMillis);
        return backend.stream->call(type, payload);
    } catch (const Error &) {
        // Transport fault or damaged frame: the stream is unusable
        // and the backend suspect until a probe clears it.
        backend.stream.reset();
        backend.healthy.store(false);
        throw;
    }
}

Router::GroupOutcome
Router::relayToReplicas(const std::vector<std::uint32_t> &replicas,
                        const std::vector<std::vector<std::uint8_t>> &items)
{
    // A single item travels as a plain Request so the reply payload
    // is byte-for-byte what a non-batched relay would have carried.
    // A real batch builds its payload incrementally, one copy of the
    // item bytes total.
    const bool batch = items.size() != 1;
    std::vector<std::uint8_t> built;
    if (batch) {
        beginBatchPayload(static_cast<std::uint32_t>(items.size()),
                          built);
        for (const std::vector<std::uint8_t> &item : items) {
            std::size_t at = openBatchItem(built);
            built.insert(built.end(), item.begin(), item.end());
            closeBatchItem(at, built);
        }
    }
    const std::vector<std::uint8_t> &payload =
        batch ? built : items[0];
    const FrameType sendType =
        batch ? FrameType::BatchRequest : FrameType::Request;
    const FrameType wantType =
        batch ? FrameType::BatchResponse : FrameType::Response;

    // Healthy replicas first; the ones marked down are a last resort
    // (they may have recovered since the probe that marked them).
    std::vector<std::uint32_t> order;
    order.reserve(replicas.size());
    for (std::uint32_t idx : replicas)
        if (backends_[idx].healthy.load())
            order.push_back(idx);
    for (std::uint32_t idx : replicas)
        if (!backends_[idx].healthy.load())
            order.push_back(idx);

    GroupOutcome outcome;
    std::optional<std::vector<std::vector<std::uint8_t>>> degradedItems;
    // Why the walk moved past the previous replica: a *failure* is a
    // failover, a held degraded reply is a hunt for a clean replica —
    // the counters keep the two apart.
    enum class Advance { First, AfterFailure, AfterDegradedHold };
    Advance advance = Advance::First;
    for (std::uint32_t idx : order) {
        Backend &backend = backends_[idx];
        if (advance == Advance::AfterFailure)
            ++metrics_.counter(kFailovers);
        else if (advance == Advance::AfterDegradedHold)
            ++metrics_.counter(kDegradedRetries);
        advance = Advance::AfterFailure;
        ReceivedFrame frame;
        try {
            frame = callBackend(backend, sendType, payload);
        } catch (const Error &) {
            continue;
        }
        if (frame.type == FrameType::Error) {
            WireError error;
            try {
                error = decodeError(frame.payload, backend.name);
            } catch (const CorruptionError &) {
                backend.healthy.store(false);
                continue;
            }
            if (error.code == ErrorCode::BadRequest) {
                // The request itself is at fault; no replica will
                // disagree.  Relay the verdict.
                outcome.kind = GroupOutcome::Kind::BadRequest;
                outcome.errorPayload = std::move(frame.payload);
                return outcome;
            }
            continue; // Overloaded/Unavailable/Internal: fail over
        }
        if (frame.type != wantType) {
            std::lock_guard<std::mutex> lock(backend.streamMutex);
            backend.stream.reset();
            backend.healthy.store(false);
            continue;
        }
        std::vector<std::vector<std::uint8_t>> replyItems;
        bool degraded = false;
        try {
            if (batch) {
                replyItems = decodeBatchItems(frame.payload,
                                              backend.name);
                if (replyItems.size() != items.size())
                    throw CorruptionError(
                        backend.name, kNoFilePosition, 0,
                        "sub-batch reply has " +
                            std::to_string(replyItems.size()) +
                            " items, request had " +
                            std::to_string(items.size()));
            } else {
                replyItems.push_back(std::move(frame.payload));
            }
            for (const std::vector<std::uint8_t> &item : replyItems) {
                WireResponse reply = decodeResponse(item, backend.name);
                degraded = degraded || reply.response.degraded;
            }
        } catch (const CorruptionError &) {
            backend.healthy.store(false);
            continue;
        }
        if (degraded) {
            if (!degradedItems) {
                // Hold the degraded answer, hunt for a clean replica.
                ++metrics_.counter(kDegradedHeld);
                degradedItems = std::move(replyItems);
            }
            advance = Advance::AfterDegradedHold;
            continue;
        }
        outcome.kind = GroupOutcome::Kind::Relayed;
        outcome.items = std::move(replyItems);
        return outcome;
    }

    if (degradedItems) {
        // Every replica is degraded (or down): the degraded answer is
        // still *correct* — host unification scrubbed the candidates —
        // so return it rather than failing the query.
        ++metrics_.counter(kRelayedDegraded);
        outcome.kind = GroupOutcome::Kind::Relayed;
        outcome.items = std::move(*degradedItems);
        return outcome;
    }
    outcome.kind = GroupOutcome::Kind::Unavailable;
    return outcome;
}

void
Router::relayRequest(Connection &conn,
                     const std::vector<std::uint8_t> &payload)
{
    ++metrics_.counter(kRequests);

    if (conn.outbound.size() - conn.outboundAt >
        config_.maxOutboundBytes) {
        ++metrics_.counter(kShed);
        queueFrame(conn, FrameType::Error,
                   encodeError(ErrorCode::Overloaded,
                               "outbound backlog limit reached"));
        return;
    }

    WireRequest request;
    try {
        // Only the predicate field matters here; the goal bytes stay
        // opaque and travel to the backend verbatim.
        request = decodeRequest(payload, conn.peer);
    } catch (const CorruptionError &e) {
        ++metrics_.counter(kBadRequests);
        queueFrame(conn, FrameType::Error,
                   encodeError(ErrorCode::BadRequest, e.what()));
        return;
    }

    GroupOutcome outcome =
        relayToReplicas(replicasOf(request.predicate), {payload});
    switch (outcome.kind) {
      case GroupOutcome::Kind::BadRequest:
        ++metrics_.counter(kBadRequests);
        queueFrame(conn, FrameType::Error, outcome.errorPayload);
        return;
      case GroupOutcome::Kind::Relayed:
        ++metrics_.counter(kRelayed);
        queueFrame(conn, FrameType::Response, outcome.items[0]);
        return;
      case GroupOutcome::Kind::Unavailable:
        break;
    }
    ++metrics_.counter(kUnavailable);
    queueFrame(conn, FrameType::Error,
               encodeError(ErrorCode::Unavailable,
                           "no replica could answer"));
}

void
Router::relayBatch(Connection &conn,
                   const std::vector<std::uint8_t> &payload)
{
    ++metrics_.counter(kBatches);

    if (conn.outbound.size() - conn.outboundAt >
        config_.maxOutboundBytes) {
        ++metrics_.counter(kShed);
        queueFrame(conn, FrameType::Error,
                   encodeError(ErrorCode::Overloaded,
                               "outbound backlog limit reached"));
        return;
    }

    std::vector<std::vector<std::uint8_t>> items;
    try {
        items = decodeBatchItems(payload, conn.peer);
    } catch (const CorruptionError &e) {
        ++metrics_.counter(kBadRequests);
        queueFrame(conn, FrameType::Error,
                   encodeError(ErrorCode::BadRequest, e.what()));
        return;
    }
    if (items.empty()) {
        queueFrame(conn, FrameType::BatchResponse,
                   encodeBatchItems({}));
        return;
    }
    metrics_.counter(kBatchItems) += items.size();

    // Scatter: group items by replica set, preserving batch order
    // within each group (the merge rebuilds the original order from
    // the group's index list).
    struct Group
    {
        std::vector<std::uint32_t> replicas;
        std::vector<std::size_t> itemIndex;
    };
    std::map<std::vector<std::uint32_t>, std::size_t> groupOf;
    std::vector<Group> groups;
    for (std::size_t i = 0; i < items.size(); ++i) {
        WireRequest request;
        try {
            request = decodeRequest(items[i], conn.peer);
        } catch (const CorruptionError &e) {
            ++metrics_.counter(kBadRequests);
            queueFrame(conn, FrameType::Error,
                       encodeError(ErrorCode::BadRequest, e.what()));
            return;
        }
        std::vector<std::uint32_t> replicas =
            replicasOf(request.predicate);
        auto [it, fresh] =
            groupOf.try_emplace(replicas, groups.size());
        if (fresh)
            groups.push_back(Group{std::move(replicas), {}});
        groups[it->second].itemIndex.push_back(i);
    }

    // Issue the per-shard sub-batches concurrently; each fan-out task
    // runs the same replica walk a single request does (the backend
    // streams are mutex-guarded, so two shards sharing a backend
    // serialize on its connection instead of interleaving frames).
    metrics_.counter(kSubbatches) += groups.size();
    std::vector<std::future<GroupOutcome>> futures;
    futures.reserve(groups.size());
    for (const Group &group : groups)
        futures.push_back(std::async(
            std::launch::async, [this, &group, &items] {
                // Groups partition the item indices, so concurrent
                // tasks move from disjoint elements of items.
                std::vector<std::vector<std::uint8_t>> sub;
                sub.reserve(group.itemIndex.size());
                for (std::size_t i : group.itemIndex)
                    sub.push_back(std::move(items[i]));
                return relayToReplicas(group.replicas, sub);
            }));
    std::vector<GroupOutcome> outcomes;
    outcomes.reserve(groups.size());
    for (std::future<GroupOutcome> &f : futures)
        outcomes.push_back(f.get());

    // Gather: any sub-batch verdict of BadRequest or Unavailable
    // fails the whole batch (a batch is one unit of work; partial
    // answers would silently drop items).
    for (const GroupOutcome &outcome : outcomes) {
        if (outcome.kind == GroupOutcome::Kind::BadRequest) {
            ++metrics_.counter(kBadRequests);
            queueFrame(conn, FrameType::Error, outcome.errorPayload);
            return;
        }
    }
    for (const GroupOutcome &outcome : outcomes) {
        if (outcome.kind == GroupOutcome::Kind::Unavailable) {
            ++metrics_.counter(kUnavailable);
            queueFrame(conn, FrameType::Error,
                       encodeError(ErrorCode::Unavailable,
                                   "no replica could answer a "
                                   "sub-batch"));
            return;
        }
    }

    // Merge in original batch order: item payloads travel back
    // verbatim, so the client decodes exactly the bytes the owning
    // backend's serveBatch() produced.
    std::vector<std::vector<std::uint8_t>> merged(items.size());
    for (std::size_t g = 0; g < groups.size(); ++g)
        for (std::size_t k = 0; k < groups[g].itemIndex.size(); ++k)
            merged[groups[g].itemIndex[k]] =
                std::move(outcomes[g].items[k]);
    ++metrics_.counter(kRelayed);
    queueFrame(conn, FrameType::BatchResponse,
               encodeBatchItems(merged));
}

void
Router::probeBackends()
{
    for (Backend &backend : backends_) {
        // The probe stream is this thread's own connection; sharing
        // the relay stream would serialize probes behind live traffic
        // (and vice versa) and reintroduce the stall this thread
        // exists to prevent.
        try {
            if (!backend.probeStream)
                backend.probeStream.emplace(
                    backend.port, backend.name + ":probe",
                    config_.backendTimeoutMillis);
            ReceivedFrame reply =
                backend.probeStream->call(FrameType::Health, {});
            bool ok = reply.type == FrameType::HealthReply;
            if (ok && !backend.healthy.load())
                ++metrics_.counter(kRecovered);
            backend.healthy.store(ok);
            if (!ok)
                backend.probeStream.reset();
        } catch (const Error &) {
            backend.probeStream.reset();
            backend.healthy.store(false);
        }
        ++metrics_.counter(kProbes);
    }
    std::uint64_t healthy = 0;
    for (const Backend &backend : backends_)
        healthy += backend.healthy.load() ? 1 : 0;
    metrics_.gauge(kHealthyBackends).set(static_cast<double>(healthy));
}

json::Value
Router::healthJson()
{
    json::Value doc = json::Value::object();
    doc.set("status", "ok");
    doc.set("role", "router");
    doc.set("replication",
            static_cast<std::uint64_t>(config_.replication));
    json::Value list = json::Value::array();
    for (const Backend &backend : backends_) {
        json::Value b = json::Value::object();
        b.set("port", static_cast<std::uint64_t>(backend.port));
        b.set("healthy", backend.healthy.load());
        list.push(std::move(b));
    }
    doc.set("backends", std::move(list));
    // The admin channel serves the live placement: with a catalog
    // loaded, operators read predicate → shard → replica assignments
    // from the same document that reports backend health.
    std::shared_ptr<const ShardCatalog> cat = catalog();
    doc.set("routing", cat ? "catalog" : "hash");
    if (cat)
        doc.set("catalog", cat->toJson());
    return doc;
}

void
Router::queueFrame(Connection &conn, FrameType type,
                   const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> frame;
    encodeFrame(type, payload, frame);
    conn.outbound.insert(conn.outbound.end(), frame.begin(),
                         frame.end());
}

bool
Router::writeReady(Connection &conn)
{
    while (conn.outboundAt < conn.outbound.size()) {
        ssize_t n = ::send(conn.fd.get(),
                           conn.outbound.data() + conn.outboundAt,
                           conn.outbound.size() - conn.outboundAt,
                           MSG_NOSIGNAL);
        if (n > 0) {
            conn.outboundAt += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    if (conn.outboundAt == conn.outbound.size()) {
        conn.outbound.clear();
        conn.outboundAt = 0;
    }
    updateEpoll(conn);
    return true;
}

void
Router::updateEpoll(Connection &conn)
{
    if (conn.outboundAt < conn.outbound.size()) {
        ssize_t n = ::send(conn.fd.get(),
                           conn.outbound.data() + conn.outboundAt,
                           conn.outbound.size() - conn.outboundAt,
                           MSG_NOSIGNAL);
        if (n > 0)
            conn.outboundAt += static_cast<std::size_t>(n);
        if (conn.outboundAt == conn.outbound.size()) {
            conn.outbound.clear();
            conn.outboundAt = 0;
        }
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    if (conn.outboundAt < conn.outbound.size())
        ev.events |= EPOLLOUT;
    ev.data.fd = conn.fd.get();
    ::epoll_ctl(epollFd_.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
}

void
Router::closeConnection(int fd)
{
    auto it = connections_.find(fd);
    if (it == connections_.end())
        return;
    ::epoll_ctl(epollFd_.get(), EPOLL_CTL_DEL, fd, nullptr);
    ++metrics_.counter(kClosed);
    connections_.erase(it);
}

} // namespace clare::net
