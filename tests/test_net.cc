/**
 * @file
 * The networked serving tier (ctest labels: net, faults).
 *
 * Codec layer: the frame envelope detects every single-bit flip in
 * header or payload; the TLV request/response/error payloads round
 * trip exactly (including the degraded / overflow flags) and tolerate
 * unknown tags; the recursive-PIF goal codec is a fixed point under
 * encode -> decode -> encode and rejects damaged streams with a typed
 * CorruptionError.
 *
 * Live loopback: a NetServer answers bit-identically (answers AND
 * modeled StageBreakdown ticks) to a local serve() of the same goal; a
 * 3-replica cluster behind the Router stays bit-identical even when
 * one backend's store is poisoned by the fault injector (the degraded
 * path is visible only in counters); wire faults (dropped, truncated,
 * bit-flipped, delayed frames) surface as typed IoError /
 * CorruptionError at the client and as failover — never a crash or a
 * wrong answer; admission control sheds with Error(Overloaded), and a
 * malformed request answers Error(BadRequest) without losing the
 * connection.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crs/server.hh"
#include "crs/store_io.hh"
#include "net/client.hh"
#include "net/frame.hh"
#include "net/router.hh"
#include "net/server.hh"
#include "net/term_codec.hh"
#include "net/wire.hh"
#include "support/fault_injector.hh"
#include "support/random.hh"
#include "term/term_reader.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

namespace clare {
namespace {

// ---------------------------------------------------------------------
// Frame envelope.
// ---------------------------------------------------------------------

TEST(FrameTest, RoundTrip)
{
    std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 7};
    std::vector<std::uint8_t> frame;
    net::encodeFrame(net::FrameType::Request, payload, frame);
    ASSERT_EQ(frame.size(), net::kFrameHeaderBytes + payload.size());

    net::FrameHeader header =
        net::decodeFrameHeader(frame.data(), "test");
    EXPECT_EQ(header.type, net::FrameType::Request);
    EXPECT_EQ(header.payloadBytes, payload.size());
    net::verifyFramePayload(header, frame.data() + net::kFrameHeaderBytes,
                            payload.size(), "test");
}

TEST(FrameTest, EmptyPayloadRoundTrip)
{
    std::vector<std::uint8_t> frame;
    net::encodeFrame(net::FrameType::Health, {}, frame);
    net::FrameHeader header =
        net::decodeFrameHeader(frame.data(), "test");
    EXPECT_EQ(header.type, net::FrameType::Health);
    EXPECT_EQ(header.payloadBytes, 0u);
    net::verifyFramePayload(header, nullptr, 0, "test");
}

TEST(FrameTest, EverySingleBitFlipIsDetected)
{
    std::vector<std::uint8_t> payload(64);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 37 + 5);
    std::vector<std::uint8_t> clean;
    net::encodeFrame(net::FrameType::Response, payload, clean);

    for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
        std::vector<std::uint8_t> frame = clean;
        frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));

        bool detected = false;
        try {
            net::FrameHeader header =
                net::decodeFrameHeader(frame.data(), "test");
            if (header.payloadBytes != payload.size()) {
                detected = true;    // receiver would misframe; the CRC
                                    // of the re-sliced payload catches
                                    // it — count the length mismatch.
            } else {
                net::verifyFramePayload(
                    header, frame.data() + net::kFrameHeaderBytes,
                    payload.size(), "test");
            }
        } catch (const CorruptionError &) {
            detected = true;
        }
        EXPECT_TRUE(detected) << "bit " << bit << " flipped undetected";
    }
}

TEST(FrameTest, InsaneLengthRejected)
{
    std::vector<std::uint8_t> frame;
    net::encodeFrame(net::FrameType::Request, {1, 2, 3}, frame);
    // Patch the length field to something past the payload bound.
    frame[8] = 0xff;
    frame[9] = 0xff;
    frame[10] = 0xff;
    frame[11] = 0x7f;
    EXPECT_THROW(net::decodeFrameHeader(frame.data(), "test"),
                 CorruptionError);
}

// ---------------------------------------------------------------------
// TLV payload codecs.
// ---------------------------------------------------------------------

TEST(WireCodecTest, RequestRoundTrip)
{
    net::WireRequest request;
    request.id = 0x1122334455667788ull;
    request.predicate = term::PredicateId{42, 3};
    request.goalPif = {9, 8, 7, 6};
    request.mode = crs::SearchMode::Fs2Only;
    request.bypassCache = true;

    net::WireRequest out =
        net::decodeRequest(net::encodeRequest(request), "test");
    EXPECT_EQ(out.id, request.id);
    EXPECT_EQ(out.predicate, request.predicate);
    EXPECT_EQ(out.goalPif, request.goalPif);
    ASSERT_TRUE(out.mode.has_value());
    EXPECT_EQ(*out.mode, crs::SearchMode::Fs2Only);
    EXPECT_TRUE(out.bypassCache);

    // Auto mode (absent field) round trips as absent.
    request.mode.reset();
    request.bypassCache = false;
    out = net::decodeRequest(net::encodeRequest(request), "test");
    EXPECT_FALSE(out.mode.has_value());
    EXPECT_FALSE(out.bypassCache);
}

/** A response with every field set to a distinctive value. */
crs::RetrievalResponse
sampleResponse()
{
    crs::RetrievalResponse r;
    r.mode = crs::SearchMode::TwoStage;
    r.candidates = {3, 5, 8, 13};
    r.answers = {5, 13};
    r.indexEntriesScanned = 1234;
    r.fs1Hits = 77;
    r.clausesExamined = 55;
    for (std::size_t i = 0; i < r.filterOps.size(); ++i)
        r.filterOps[i] = 1000 + i;
    r.breakdown.queueWait = 11;
    r.breakdown.cacheTime = 22;
    r.breakdown.indexTime = 33;
    r.breakdown.filterTime = 44;
    r.breakdown.hostUnifyTime = 55;
    r.elapsed = 165;
    r.degraded = true;
    r.corruptIndexPages = 2;
    r.resultOverflow = true;
    r.satisfiersRequeued = 9;
    return r;
}

TEST(WireCodecTest, ResponseRoundTripAllFields)
{
    crs::RetrievalResponse r = sampleResponse();
    net::WireResponse out =
        net::decodeResponse(net::encodeResponse(99, r), "test");
    EXPECT_EQ(out.id, 99u);
    EXPECT_TRUE(net::responsesIdentical(out.response, r));
    EXPECT_TRUE(out.response.degraded);
    EXPECT_TRUE(out.response.resultOverflow);
    EXPECT_EQ(out.response.corruptIndexPages, 2u);
    EXPECT_EQ(out.response.satisfiersRequeued, 9u);

    // And with the flag fields back at their defaults.
    r.degraded = false;
    r.resultOverflow = false;
    r.corruptIndexPages = 0;
    r.satisfiersRequeued = 0;
    out = net::decodeResponse(net::encodeResponse(7, r), "test");
    EXPECT_TRUE(net::responsesIdentical(out.response, r));
}

TEST(WireCodecTest, UnknownTagsAreSkipped)
{
    // A future peer appends a field this version has never heard of;
    // decoding must skip it and keep everything else.
    auto unknown = [](std::vector<std::uint8_t> payload) {
        payload.push_back(200);    // tag nobody owns
        payload.push_back(3);      // length, little-endian u32
        payload.push_back(0);
        payload.push_back(0);
        payload.push_back(0);
        payload.push_back(0xaa);
        payload.push_back(0xbb);
        payload.push_back(0xcc);
        return payload;
    };

    net::WireRequest request;
    request.id = 4;
    request.predicate = term::PredicateId{1, 2};
    request.goalPif = {1, 2, 3};
    net::WireRequest req_out = net::decodeRequest(
        unknown(net::encodeRequest(request)), "test");
    EXPECT_EQ(req_out.id, 4u);
    EXPECT_EQ(req_out.goalPif, request.goalPif);

    crs::RetrievalResponse r = sampleResponse();
    net::WireResponse rsp_out = net::decodeResponse(
        unknown(net::encodeResponse(5, r)), "test");
    EXPECT_TRUE(net::responsesIdentical(rsp_out.response, r));
}

TEST(WireCodecTest, ErrorRoundTrip)
{
    std::vector<std::uint8_t> payload =
        net::encodeError(net::ErrorCode::Overloaded, "go away");
    net::WireError out = net::decodeError(payload, "test");
    EXPECT_EQ(out.code, net::ErrorCode::Overloaded);
    EXPECT_EQ(out.message, "go away");
}

TEST(WireCodecTest, TruncatedPayloadIsTyped)
{
    crs::RetrievalResponse r = sampleResponse();
    std::vector<std::uint8_t> payload = net::encodeResponse(1, r);
    for (std::size_t cut : {1ul, 5ul, payload.size() / 2,
                            payload.size() - 1}) {
        std::vector<std::uint8_t> damaged(payload.begin(),
                                          payload.begin() + cut);
        EXPECT_THROW(net::decodeResponse(damaged, "test"),
                     CorruptionError)
            << "cut at " << cut;
    }
    EXPECT_THROW(net::decodeRequest({1, 2}, "test"), CorruptionError);
    EXPECT_THROW(net::decodeError({}, "test"), CorruptionError);
}

TEST(WireCodecTest, ResponseFuzzRoundTrip)
{
    Rng rng(2024);
    for (int round = 0; round < 200; ++round) {
        crs::RetrievalResponse r;
        r.mode = static_cast<crs::SearchMode>(rng.below(4));
        for (std::uint32_t i = 0; i < rng.below(20); ++i)
            r.candidates.push_back(
                static_cast<std::uint32_t>(rng.below(100000)));
        for (std::uint32_t i = 0; i < rng.below(10); ++i)
            r.answers.push_back(
                static_cast<std::uint32_t>(rng.below(100000)));
        r.indexEntriesScanned = rng.next();
        r.fs1Hits = rng.next();
        r.clausesExamined = rng.next();
        for (auto &op : r.filterOps)
            op = rng.next();
        r.breakdown.queueWait = rng.next();
        r.breakdown.cacheTime = rng.next();
        r.breakdown.indexTime = rng.next();
        r.breakdown.filterTime = rng.next();
        r.breakdown.hostUnifyTime = rng.next();
        r.elapsed = rng.next();
        r.degraded = rng.chance(0.5);
        r.resultOverflow = rng.chance(0.5);
        r.corruptIndexPages =
            static_cast<std::uint32_t>(rng.below(100));
        r.satisfiersRequeued =
            static_cast<std::uint32_t>(rng.below(64));

        std::uint64_t id = rng.next();
        net::WireResponse out = net::decodeResponse(
            net::encodeResponse(id, r), "fuzz");
        EXPECT_EQ(out.id, id) << "round " << round;
        EXPECT_TRUE(net::responsesIdentical(out.response, r))
            << "round " << round;
        EXPECT_EQ(out.response.degraded, r.degraded);
        EXPECT_EQ(out.response.resultOverflow, r.resultOverflow);
    }
}

TEST(WireCodecTest, DamagedPayloadFuzzNeverCrashes)
{
    // Bit-flip and truncate encoded payloads at random: decoding must
    // either succeed (the damage hit redundant bytes) or raise a typed
    // CorruptionError — nothing else.  (On the wire the frame CRC
    // catches these first; this is defense in depth for the codec.)
    crs::RetrievalResponse r = sampleResponse();
    std::vector<std::uint8_t> payload = net::encodeResponse(12, r);
    Rng rng(7);
    for (int round = 0; round < 500; ++round) {
        std::vector<std::uint8_t> damaged = payload;
        if (rng.chance(0.3))
            damaged.resize(rng.below(damaged.size()));
        for (std::uint32_t flips = 0; flips <= rng.below(4); ++flips) {
            if (damaged.empty())
                break;
            damaged[rng.below(damaged.size())] ^=
                static_cast<std::uint8_t>(1u << rng.below(8));
        }
        try {
            net::decodeResponse(damaged, "fuzz");
        } catch (const CorruptionError &) {
            // Typed rejection is the expected outcome.
        }
    }
}

// ---------------------------------------------------------------------
// Goal codec.
// ---------------------------------------------------------------------

class GoalCodecTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    term::TermReader reader{sym};
};

TEST_F(GoalCodecTest, EncodeDecodeEncodeIsFixedPoint)
{
    // Variable names do not travel, so decoded terms are not textually
    // identical — but the encoding is canonical in variable *slots*,
    // so re-encoding the decoded term must reproduce the exact bytes.
    const char *goals[] = {
        "p(a, b, c)",
        "p(X, Y, X)",    // sharing must be preserved
        "route(city(nyc), city(sf), Cost)",
        "p(f(g(h(X))), X)",
        "p([1, 2, 3], [a | T])",
        "p([], -17, 3.5)",
        "atom_goal",
        "p([a, f(X), [b, c] | Rest], X)",
    };
    for (const char *text : goals) {
        term::ParsedTerm goal = reader.parseTerm(text);
        std::vector<std::uint8_t> bytes =
            net::encodeGoal(goal.arena, goal.root);

        term::TermArena arena;
        term::TermRef decoded =
            net::decodeGoal(bytes, sym, arena, "test");
        std::vector<std::uint8_t> again =
            net::encodeGoal(arena, decoded);
        EXPECT_EQ(bytes, again) << text;
    }
}

TEST_F(GoalCodecTest, TruncatedStreamsAreTyped)
{
    term::ParsedTerm goal =
        reader.parseTerm("p(f(X, [1, 2]), g(X), h(a))");
    std::vector<std::uint8_t> bytes =
        net::encodeGoal(goal.arena, goal.root);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        std::vector<std::uint8_t> damaged(bytes.begin(),
                                          bytes.begin() + cut);
        term::TermArena arena;
        EXPECT_THROW(net::decodeGoal(damaged, sym, arena, "test"),
                     CorruptionError)
            << "cut at " << cut;
    }

    // Trailing garbage is also a malformed stream, not ignored.
    std::vector<std::uint8_t> extra = bytes;
    extra.push_back(0);
    term::TermArena arena;
    EXPECT_THROW(net::decodeGoal(extra, sym, arena, "test"),
                 CorruptionError);
}

TEST_F(GoalCodecTest, OverLimitTermsFailAtTheSender)
{
    // Arity past the 5-bit PIF field cannot travel.
    std::string wide = "p(a0";
    for (int i = 1; i < 40; ++i)
        wide += ", a" + std::to_string(i);
    wide += ")";
    term::ParsedTerm goal = reader.parseTerm(wide);
    EXPECT_THROW(net::encodeGoal(goal.arena, goal.root), Error);
}

// ---------------------------------------------------------------------
// Live loopback cluster.
// ---------------------------------------------------------------------

/** One in-process backend: its own copy of the persisted schema. */
struct Backend
{
    term::SymbolTable symbols;
    std::unique_ptr<crs::PredicateStore> store;
    std::unique_ptr<crs::ClauseRetrievalServer> server;
    std::unique_ptr<net::NetServer> net;
};

class NetClusterTest : public ::testing::Test
{
  protected:
    std::string dir_ = ::testing::TempDir() + "clare_net_store";
    term::SymbolTable sym_;
    term::Program program_;
    std::vector<workload::GeneratedQuery> queries_;
    std::unique_ptr<crs::PredicateStore> store_;
    /** The local reference: the same single authoritative serve(). */
    std::unique_ptr<crs::ClauseRetrievalServer> local_;
    std::vector<std::unique_ptr<Backend>> backends_;

    void
    SetUp() override
    {
        std::filesystem::remove_all(dir_);

        workload::KbGenerator kbgen(sym_);
        workload::KbSpec spec;
        spec.predicates = 3;
        spec.clausesPerPredicate = 48;
        spec.arityMin = 2;
        spec.arityMax = 3;
        spec.atomVocabulary = 40;
        spec.seed = 17;
        program_ = kbgen.generate(spec);

        // Queries BEFORE saveStore so their symbols persist in the
        // shared schema every backend loads.
        workload::QuerySpec qspec;
        qspec.seed = 9;
        qspec.boundArgProb = 0.7;
        workload::QueryGenerator qgen(sym_, qspec);
        Rng rng(5);
        for (int i = 0; i < 12; ++i) {
            const auto &pred = program_.predicates()[
                rng.below(program_.predicates().size())];
            queries_.push_back(qgen.generate(program_, pred));
        }

        store_ = std::make_unique<crs::PredicateStore>(
            sym_, scw::CodewordGenerator{});
        store_->addProgram(program_);
        store_->finalize();
        crs::saveStore(dir_, *store_, sym_);
        local_ = std::make_unique<crs::ClauseRetrievalServer>(
            sym_, *store_);
    }

    void
    TearDown() override
    {
        for (auto &b : backends_)
            if (b->net)
                b->net->stop();
        backends_.clear();
        std::filesystem::remove_all(dir_);
    }

    Backend &
    spawnBackend(crs::CrsConfig crs_config = {},
                 net::NetServerConfig net_config = {})
    {
        auto b = std::make_unique<Backend>();
        b->store = std::make_unique<crs::PredicateStore>(
            crs::loadStore(dir_, b->symbols));
        b->server = std::make_unique<crs::ClauseRetrievalServer>(
            b->symbols, *b->store, crs_config);
        b->net = std::make_unique<net::NetServer>(
            b->symbols, *b->store, *b->server, net_config);
        b->net->start();
        backends_.push_back(std::move(b));
        return *backends_.back();
    }

    crs::RetrievalResponse
    serveLocal(const workload::GeneratedQuery &q,
               std::optional<crs::SearchMode> mode)
    {
        crs::RetrievalRequest request;
        request.arena = &q.arena;
        request.goal = q.goal;
        request.mode = mode;
        return local_->serve(request);
    }
};

TEST_F(NetClusterTest, LoopbackServeIsBitIdenticalToLocal)
{
    Backend &backend = spawnBackend();
    net::NetClient client(backend.net->port(), "test-client");

    const std::optional<crs::SearchMode> modes[] = {
        std::nullopt, crs::SearchMode::SoftwareOnly,
        crs::SearchMode::Fs1Only, crs::SearchMode::Fs2Only,
        crs::SearchMode::TwoStage};
    for (const workload::GeneratedQuery &q : queries_) {
        for (const auto &mode : modes) {
            crs::RetrievalRequest request;
            request.arena = &q.arena;
            request.goal = q.goal;
            request.mode = mode;
            crs::RetrievalResponse wire = client.serve(request);
            crs::RetrievalResponse ref = serveLocal(q, mode);
            EXPECT_TRUE(net::responsesIdentical(wire, ref));
            EXPECT_EQ(wire.elapsed, ref.elapsed);
            EXPECT_EQ(wire.breakdown.indexTime, ref.breakdown.indexTime);
        }
    }
}

TEST_F(NetClusterTest, HealthProbeAnswersJson)
{
    Backend &backend = spawnBackend();
    net::NetClient client(backend.net->port(), "test-client");
    json::Value health = client.health();
    const json::Value *status = health.find("status");
    ASSERT_NE(status, nullptr);
    EXPECT_EQ(status->str(), "ok");
    const json::Value *predicates = health.find("predicates");
    ASSERT_NE(predicates, nullptr);
    EXPECT_EQ(static_cast<std::size_t>(predicates->number()),
              store_->predicates().size());
}

TEST_F(NetClusterTest, PoisonedReplicaIsInvisibleThroughTheRouter)
{
    // Backend 2's disk is poisoned: half its index page reads flip a
    // bit, so its own retrievals degrade (full FS2 scan fallback).
    // With replication 3 the router holds any degraded answer and
    // hunts a clean replica — every response through the router must
    // be bit-identical to the clean local serve(), degraded flag
    // included.
    support::FaultConfig fault_config;
    fault_config.seed = 42;
    fault_config.bitFlipRate = 0.5;
    support::FaultInjector injector(fault_config);
    crs::CrsConfig poisoned;
    poisoned.faults = &injector;

    spawnBackend();
    spawnBackend();
    spawnBackend(poisoned);

    net::RouterConfig router_config;
    for (auto &b : backends_)
        router_config.backendPorts.push_back(b->net->port());
    router_config.replication = 3;
    router_config.backendTimeoutMillis = 1000;
    net::Router router(router_config);
    router.start();

    net::NetClient client(router.port(), "test-client");
    for (const workload::GeneratedQuery &q : queries_) {
        for (crs::SearchMode mode : {crs::SearchMode::Fs1Only,
                                     crs::SearchMode::TwoStage}) {
            crs::RetrievalRequest request;
            request.arena = &q.arena;
            request.goal = q.goal;
            request.mode = mode;
            crs::RetrievalResponse wire = client.serve(request);
            crs::RetrievalResponse ref = serveLocal(q, mode);
            EXPECT_TRUE(net::responsesIdentical(wire, ref));
            EXPECT_FALSE(wire.degraded);
        }
    }
    EXPECT_GT(router.metrics().counter("router.relayed").value(), 0u);
    router.stop();
}

TEST_F(NetClusterTest, RouterShardsByPredicate)
{
    spawnBackend();
    spawnBackend();
    spawnBackend();
    net::RouterConfig router_config;
    for (auto &b : backends_)
        router_config.backendPorts.push_back(b->net->port());
    router_config.replication = 2;
    net::Router router(router_config);

    // The replica set is a pure function of the predicate: same
    // predicate -> same replicas (cache locality), and some pair of
    // predicates must land on different primaries with 3 backends.
    bool spread = false;
    std::vector<std::uint32_t> first;
    for (const term::PredicateId &pred : store_->predicates()) {
        std::vector<std::uint32_t> replicas = router.replicasOf(pred);
        ASSERT_EQ(replicas.size(), 2u);
        EXPECT_EQ(replicas, router.replicasOf(pred));
        if (first.empty())
            first = replicas;
        else if (replicas != first)
            spread = true;
    }
    EXPECT_TRUE(spread);
}

TEST_F(NetClusterTest, WireFaultsSurfaceTypedAndNeverWrong)
{
    // A hostile wire on the backend's outbound leg: drops, truncations,
    // bit flips, and delays, drawn per frame from the seeded oracle.
    // Every client call must either succeed with the bit-identical
    // response or throw the typed taxonomy; after a transport error the
    // client reconnects and continues.
    support::FaultConfig fault_config;
    fault_config.seed = 2027;
    fault_config.frameDropRate = 0.08;
    fault_config.frameTruncateRate = 0.08;
    fault_config.frameCorruptRate = 0.10;
    fault_config.frameDelayRate = 0.05;
    fault_config.frameDelayMillis = 5;
    support::FaultInjector injector(fault_config);
    net::NetServerConfig net_config;
    net_config.wireFaults = &injector;

    Backend &backend = spawnBackend({}, net_config);
    net::NetClient client(backend.net->port(), "test-client", 500);

    int ok = 0, transport = 0, corrupt = 0;
    for (int round = 0; round < 60; ++round) {
        const workload::GeneratedQuery &q =
            queries_[round % queries_.size()];
        crs::RetrievalRequest request;
        request.arena = &q.arena;
        request.goal = q.goal;
        request.mode = crs::SearchMode::TwoStage;
        try {
            crs::RetrievalResponse wire = client.serve(request);
            EXPECT_TRUE(net::responsesIdentical(
                wire, serveLocal(q, crs::SearchMode::TwoStage)));
            ++ok;
        } catch (const CorruptionError &) {
            ++corrupt;
        } catch (const IoError &) {
            ++transport;
        }
    }
    // The sweep is deterministic per seed; with these rates all three
    // outcomes must appear, and served answers were all identical.
    EXPECT_GT(ok, 0);
    EXPECT_GT(transport, 0);
    EXPECT_GT(corrupt, 0);
}

TEST_F(NetClusterTest, RouterFailsOverAHostileWire)
{
    // Backend 1 answers through a faulty wire; backend 2 is clean.
    // With replication 2 the router absorbs every wire fault as a
    // failover, so the client sees only clean, bit-identical answers.
    support::FaultConfig fault_config;
    fault_config.seed = 11;
    fault_config.frameDropRate = 0.2;
    fault_config.frameCorruptRate = 0.2;
    support::FaultInjector injector(fault_config);
    net::NetServerConfig faulty_wire;
    faulty_wire.wireFaults = &injector;

    spawnBackend({}, faulty_wire);
    spawnBackend();

    net::RouterConfig router_config;
    for (auto &b : backends_)
        router_config.backendPorts.push_back(b->net->port());
    router_config.replication = 2;
    router_config.backendTimeoutMillis = 300;
    net::Router router(router_config);
    router.start();

    net::NetClient client(router.port(), "test-client", 5000);
    for (const workload::GeneratedQuery &q : queries_) {
        crs::RetrievalRequest request;
        request.arena = &q.arena;
        request.goal = q.goal;
        request.mode = crs::SearchMode::TwoStage;
        crs::RetrievalResponse wire = client.serve(request);
        EXPECT_TRUE(net::responsesIdentical(
            wire, serveLocal(q, crs::SearchMode::TwoStage)));
    }
    router.stop();
}

TEST_F(NetClusterTest, AdmissionControlShedsExcessConnections)
{
    net::NetServerConfig net_config;
    net_config.maxConnections = 1;
    Backend &backend = spawnBackend({}, net_config);

    // First client occupies the only slot.
    net::NetClient first(backend.net->port(), "first", 1000);
    crs::RetrievalRequest request;
    request.arena = &queries_[0].arena;
    request.goal = queries_[0].goal;
    ASSERT_NO_THROW(first.serve(request));

    // The second connection is shed at the door: Error(Overloaded) if
    // the goodbye frame arrives, IoError if the close races it.
    net::NetClient second(backend.net->port(), "second", 1000);
    bool shed = false;
    try {
        second.serve(request);
    } catch (const net::RemoteError &e) {
        shed = e.code() == net::ErrorCode::Overloaded;
    } catch (const IoError &) {
        shed = true;
    }
    EXPECT_TRUE(shed);

    // The first client's slot still works.
    EXPECT_NO_THROW(first.serve(request));
}

TEST_F(NetClusterTest, BadRequestAnswersTypedAndKeepsConnection)
{
    Backend &backend = spawnBackend();
    net::ClientStream stream(backend.net->port(), "raw-client", 1000);

    // Garbage that passes the frame CRC but fails request validation.
    net::ReceivedFrame reply = stream.call(
        net::FrameType::Request, {0xde, 0xad, 0xbe, 0xef});
    ASSERT_EQ(reply.type, net::FrameType::Error);
    EXPECT_EQ(net::decodeError(reply.payload, "raw").code,
              net::ErrorCode::BadRequest);

    // An unknown predicate is validated before serve() can fault.
    net::WireRequest unknown_pred;
    unknown_pred.id = 1;
    unknown_pred.predicate = term::PredicateId{999999, 7};
    term::TermReader reader(sym_);
    term::ParsedTerm goal = reader.parseTerm("zzz_not_stored(a)");
    unknown_pred.goalPif = net::encodeGoal(goal.arena, goal.root);
    reply = stream.call(net::FrameType::Request,
                        net::encodeRequest(unknown_pred));
    ASSERT_EQ(reply.type, net::FrameType::Error);
    EXPECT_EQ(net::decodeError(reply.payload, "raw").code,
              net::ErrorCode::BadRequest);

    // Same connection, now a well-formed request: still served.
    const workload::GeneratedQuery &q = queries_[0];
    net::WireRequest good;
    good.id = 2;
    good.predicate =
        q.arena.kind(q.goal) == term::TermKind::Atom
            ? term::PredicateId{q.arena.atomSymbol(q.goal), 0}
            : term::PredicateId{q.arena.functor(q.goal),
                                q.arena.arity(q.goal)};
    good.goalPif = net::encodeGoal(q.arena, q.goal);
    reply = stream.call(net::FrameType::Request,
                        net::encodeRequest(good));
    ASSERT_EQ(reply.type, net::FrameType::Response);
    net::WireResponse wire = net::decodeResponse(reply.payload, "raw");
    EXPECT_EQ(wire.id, 2u);
    EXPECT_TRUE(net::responsesIdentical(wire.response,
                                        serveLocal(q, std::nullopt)));
}

TEST_F(NetClusterTest, RouterAnswersBadRequestsAndHealthOnOneConnection)
{
    Backend &backend = spawnBackend();
    net::RouterConfig router_config;
    router_config.backendPorts = {backend.net->port()};
    net::Router router(router_config);
    router.start();
    net::ClientStream stream(router.port(), "raw-client", 1000);

    // Passes the frame CRC but fails the router's own request decode:
    // answered by the router, never sent to a backend.
    net::ReceivedFrame reply = stream.call(
        net::FrameType::Request, {0xde, 0xad, 0xbe, 0xef});
    ASSERT_EQ(reply.type, net::FrameType::Error);
    EXPECT_EQ(net::decodeError(reply.payload, "raw").code,
              net::ErrorCode::BadRequest);

    // Decodes at the router, but the backend rejects the unknown
    // predicate; its BadRequest is relayed, not retried elsewhere.
    net::WireRequest unknown_pred;
    unknown_pred.id = 1;
    unknown_pred.predicate = term::PredicateId{999999, 7};
    term::TermReader reader(sym_);
    term::ParsedTerm goal = reader.parseTerm("zzz_not_stored(a)");
    unknown_pred.goalPif = net::encodeGoal(goal.arena, goal.root);
    reply = stream.call(net::FrameType::Request,
                        net::encodeRequest(unknown_pred));
    ASSERT_EQ(reply.type, net::FrameType::Error);
    EXPECT_EQ(net::decodeError(reply.payload, "raw").code,
              net::ErrorCode::BadRequest);

    // The router's own health document lists its healthy backend.
    reply = stream.call(net::FrameType::Health, {});
    ASSERT_EQ(reply.type, net::FrameType::HealthReply);
    std::optional<json::Value> health = json::Value::parse(
        std::string(reply.payload.begin(), reply.payload.end()));
    ASSERT_TRUE(health.has_value());
    ASSERT_NE(health->find("role"), nullptr);
    EXPECT_EQ(health->find("role")->str(), "router");
    const json::Value *backends = health->find("backends");
    ASSERT_NE(backends, nullptr);
    ASSERT_EQ(backends->size(), 1u);
    EXPECT_EQ(backends->at(0).find("port")->number(),
              static_cast<double>(backend.net->port()));
    EXPECT_TRUE(backends->at(0).find("healthy")->boolean());

    // Same connection, now a well-formed request: still served.
    const workload::GeneratedQuery &q = queries_[0];
    net::WireRequest good;
    good.id = 2;
    good.predicate =
        q.arena.kind(q.goal) == term::TermKind::Atom
            ? term::PredicateId{q.arena.atomSymbol(q.goal), 0}
            : term::PredicateId{q.arena.functor(q.goal),
                                q.arena.arity(q.goal)};
    good.goalPif = net::encodeGoal(q.arena, q.goal);
    reply = stream.call(net::FrameType::Request,
                        net::encodeRequest(good));
    ASSERT_EQ(reply.type, net::FrameType::Response);
    net::WireResponse wire = net::decodeResponse(reply.payload, "raw");
    EXPECT_EQ(wire.id, 2u);
    EXPECT_TRUE(net::responsesIdentical(wire.response,
                                        serveLocal(q, std::nullopt)));

    obs::MetricsRegistry &metrics = router.metrics();
    EXPECT_EQ(metrics.counter("router.requests").value(), 3u);
    EXPECT_EQ(metrics.counter("router.bad_requests").value(), 2u);
    EXPECT_EQ(metrics.counter("router.relayed").value(), 1u);
    router.stop();
}

// ---------------------------------------------------------------------
// Router event-loop and shed-path regressions.
// ---------------------------------------------------------------------

TEST_F(NetClusterTest, HungBackendProbeDoesNotStallUnrelatedClients)
{
    // Backend 1 is a bound listener that never accepts: a connect
    // parks in the backlog and a Health probe hangs until the backend
    // timeout.  Probes run on a dedicated thread, so the hang must
    // cost the event loop nothing — requests routed to the healthy
    // backend 0 keep completing while the probe thread waits out its
    // timeout.  (The regression: probes used to run inline on the
    // epoll thread, stalling every client for backendTimeoutMillis.)
    Backend &healthy = spawnBackend();
    net::Listener hung(0);

    net::RouterConfig router_config;
    router_config.backendPorts = {healthy.net->port(), hung.port()};
    router_config.backendTimeoutMillis = 1500;
    router_config.probeIntervalMillis = 50;
    net::Router router(router_config);

    // Pin every predicate to backend 0 so no request touches the
    // hung backend — only the probe thread does.
    net::ShardCatalog catalog;
    for (const term::PredicateId &pred : store_->predicates())
        catalog.assign(pred, 0);
    catalog.setReplicas(0, {0});
    router.setCatalog(catalog);
    router.start();

    // Let the probe thread enter its first hang.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));

    net::NetClient client(router.port(), "test-client", 5000);
    auto begin = std::chrono::steady_clock::now();
    for (int round = 0; round < 10; ++round) {
        const workload::GeneratedQuery &q = queries_[
            static_cast<std::size_t>(round) % queries_.size()];
        crs::RetrievalRequest request;
        request.arena = &q.arena;
        request.goal = q.goal;
        crs::RetrievalResponse wire = client.serve(request);
        EXPECT_TRUE(net::responsesIdentical(
            wire, serveLocal(q, std::nullopt)));
    }
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - begin);
    // Well under one backend timeout: a single inline probe stall
    // would already blow this budget.
    EXPECT_LT(elapsed.count(), 1200);
    router.stop();
}

TEST_F(NetClusterTest, RouterShedsWithACompleteErrorFrame)
{
    Backend &backend = spawnBackend();
    net::RouterConfig router_config;
    router_config.backendPorts = {backend.net->port()};
    router_config.maxConnections = 0; // every accept is shed
    net::Router router(router_config);
    router.start();

    // The goodbye must be a complete, decodable Error(Overloaded)
    // frame — never a torn header the client reports as corruption.
    // (The regression: the shed path used a single ::send and could
    // emit a partial frame.)
    for (int i = 0; i < 8; ++i) {
        net::NetClient client(router.port(), "shed-client", 1000);
        crs::RetrievalRequest request;
        request.arena = &queries_[0].arena;
        request.goal = queries_[0].goal;
        try {
            client.serve(request);
            FAIL() << "expected the shed goodbye";
        } catch (const net::RemoteError &e) {
            EXPECT_EQ(e.code(), net::ErrorCode::Overloaded);
        } catch (const IoError &) {
            // Close raced the send before the frame hit the socket —
            // acceptable; a CorruptionError (torn frame) is not.
        }
    }
    EXPECT_GT(router.metrics().counter("router.shed").value(), 0u);
    router.stop();
}

TEST_F(NetClusterTest, FailoversAndDegradedRetriesCountSeparately)
{
    // Replica order [poisoned, clean]: every degraded reply from the
    // poisoned replica is held while the clean twin is tried.  Those
    // hunts are degraded_retries, NOT failovers — nothing failed.
    support::FaultConfig fault_config;
    fault_config.seed = 42;
    fault_config.bitFlipRate = 0.5;
    support::FaultInjector injector(fault_config);
    crs::CrsConfig poisoned;
    poisoned.faults = &injector;
    spawnBackend(poisoned);
    spawnBackend();

    net::ShardCatalog catalog;
    for (const term::PredicateId &pred : store_->predicates())
        catalog.assign(pred, 0);

    {
        catalog.setReplicas(0, {0, 1});
        net::RouterConfig router_config;
        router_config.backendPorts = {backends_[0]->net->port(),
                                      backends_[1]->net->port()};
        router_config.probeIntervalMillis = 10000; // no probe interference
        net::Router router(router_config);
        router.setCatalog(catalog);
        router.start();

        net::NetClient client(router.port(), "test-client");
        for (const workload::GeneratedQuery &q : queries_) {
            crs::RetrievalRequest request;
            request.arena = &q.arena;
            request.goal = q.goal;
            request.mode = crs::SearchMode::Fs1Only;
            crs::RetrievalResponse wire = client.serve(request);
            EXPECT_TRUE(net::responsesIdentical(
                wire, serveLocal(q, crs::SearchMode::Fs1Only)));
        }
        EXPECT_GT(
            router.metrics().counter("router.degraded_retries").value(),
            0u);
        EXPECT_EQ(router.metrics().counter("router.failovers").value(),
                  0u);
        router.stop();
    }

    // Replica order [dead, clean]: the connect failure is a real
    // failover and must not count as a degraded retry.
    std::uint16_t deadPort;
    {
        net::Listener ephemeral(0);
        deadPort = ephemeral.port();
    } // closed: connections now refused
    {
        net::RouterConfig router_config;
        router_config.backendPorts = {deadPort,
                                      backends_[1]->net->port()};
        router_config.backendTimeoutMillis = 500;
        router_config.probeIntervalMillis = 10000;
        net::Router router(router_config);
        router.setCatalog(catalog);
        router.start();

        net::NetClient client(router.port(), "test-client");
        crs::RetrievalRequest request;
        request.arena = &queries_[0].arena;
        request.goal = queries_[0].goal;
        crs::RetrievalResponse wire = client.serve(request);
        EXPECT_TRUE(net::responsesIdentical(
            wire, serveLocal(queries_[0], std::nullopt)));
        EXPECT_GT(router.metrics().counter("router.failovers").value(),
                  0u);
        EXPECT_EQ(
            router.metrics().counter("router.degraded_retries").value(),
            0u);
        router.stop();
    }
}

} // namespace
} // namespace clare
