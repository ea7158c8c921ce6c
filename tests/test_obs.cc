/**
 * @file
 * Observability tests: span nesting and cross-thread recording, the
 * metrics registry under concurrency, histogram bucketing, the JSON
 * model round trip, config validation, and the integration guarantee
 * that a response's StageBreakdown accounts for its elapsed time at
 * any worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "crs/api.hh"
#include "crs/server.hh"
#include "crs/store.hh"
#include "support/alloc_counter.hh"
#include "support/json.hh"
#include "support/obs.hh"
#include "support/thread_pool.hh"
#include "term/term_reader.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

namespace clare {
namespace {

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

TEST(ObsSpan, ImplicitNestingFollowsScope)
{
    obs::Tracer tracer;
    {
        obs::ScopedSpan outer(&tracer, "outer");
        EXPECT_EQ(obs::currentSpan(), outer.id());
        {
            obs::ScopedSpan inner(&tracer, "inner");
            EXPECT_EQ(obs::currentSpan(), inner.id());
        }
        EXPECT_EQ(obs::currentSpan(), outer.id());
    }
    EXPECT_EQ(obs::currentSpan(), 0u);

    std::vector<obs::SpanRecord> spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    // Inner finishes first.
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[1].name, "outer");
    EXPECT_EQ(spans[0].parent, spans[1].id);
    EXPECT_EQ(spans[1].parent, 0u);
}

TEST(ObsSpan, NullTracerIsInert)
{
    obs::ScopedSpan span(nullptr, "ignored");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.id(), 0u);
    EXPECT_EQ(obs::currentSpan(), 0u);
    span.attr("k", std::uint64_t{1});   // must not crash
    span.setSimTicks(5);
}

TEST(ObsSpan, ExplicitParentCrossesThreads)
{
    obs::Tracer tracer;
    support::ThreadPool pool(3);
    obs::SpanId root_id = 0;
    {
        obs::ScopedSpan root(&tracer, "root");
        root_id = root.id();
        pool.parallelFor(8, [&](std::size_t i) {
            obs::ScopedSpan child(&tracer, "child", root_id);
            child.attr("index", static_cast<std::uint64_t>(i));
            child.addSimTicks(static_cast<Tick>(i));
        });
    }
    std::vector<obs::SpanRecord> spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 9u);
    std::size_t children = 0;
    for (const obs::SpanRecord &s : spans) {
        if (s.name == "child") {
            ++children;
            EXPECT_EQ(s.parent, root_id);
        }
    }
    EXPECT_EQ(children, 8u);
    // Ids are unique.
    std::vector<obs::SpanId> ids;
    for (const obs::SpanRecord &s : spans)
        ids.push_back(s.id);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(ObsSpan, AttrsAndSimTicksRecorded)
{
    obs::Tracer tracer;
    {
        obs::ScopedSpan span(&tracer, "s");
        span.attr("str", std::string("v"));
        span.attr("num", std::uint64_t{42});
        span.setSimTicks(7 * kMicrosecond);
    }
    std::vector<obs::SpanRecord> spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].simTicks, 7 * kMicrosecond);
    ASSERT_EQ(spans[0].attrs.size(), 2u);
    EXPECT_EQ(spans[0].attrs[0].key, "str");
    EXPECT_EQ(std::get<std::string>(spans[0].attrs[0].value), "v");
    EXPECT_EQ(std::get<std::uint64_t>(spans[0].attrs[1].value), 42u);
}

TEST(ObsSpan, ClearDropsSpansButNotIds)
{
    obs::Tracer tracer;
    { obs::ScopedSpan a(&tracer, "a"); }
    obs::SpanId before = 0;
    { obs::ScopedSpan b(&tracer, "b"); before = b.id(); }
    tracer.clear();
    EXPECT_EQ(tracer.spanCount(), 0u);
    obs::ScopedSpan c(&tracer, "c");
    EXPECT_GT(c.id(), before);
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

TEST(ObsMetrics, CounterGaugeBasics)
{
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("c", "a counter");
    ++c;
    c += 4;
    EXPECT_EQ(c.value(), 5u);
    // Same name returns the same instrument.
    EXPECT_EQ(&reg.counter("c"), &c);
    reg.gauge("g").set(2.5);
    EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 2.5);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
}

// Descriptions longer than the small-string buffer, so a name-keyed
// lookup would allocate building them.
const obs::CounterDef kRequestsDef{"test.requests", "requests received"};
const obs::CounterDef kUntouchedDef{"test.untouched",
                                    "never counted by any test"};
const obs::GaugeDef kDepthDef{"test.depth", "queue depth at last sample"};
const obs::HistogramDef kLatencyDef{"test.latency_us", {1.0, 10.0, 100.0},
                                    "request latency in microseconds"};

TEST(ObsMetrics, DescriptorsRegisterOnFirstTouch)
{
    obs::MetricsRegistry reg;
    EXPECT_TRUE(reg.counters().empty());
    // A name-keyed registration and the descriptor share one
    // instrument, whichever comes first; the first registration's
    // description is the one the dump shows.
    obs::Counter &by_name = reg.counter("test.requests");
    obs::Counter &by_def = reg.counter(kRequestsDef);
    EXPECT_EQ(&by_name, &by_def);
    reg.histogram(kLatencyDef).record(5.0);
    EXPECT_EQ(&reg.histogram("test.latency_us", {}),
              &reg.histogram(kLatencyDef));
    reg.gauge(kDepthDef).set(3.0);

    // Dump order is first-touch order; untouched descriptors are absent.
    std::vector<obs::MetricsRegistry::CounterView> counters =
        reg.counters();
    ASSERT_EQ(counters.size(), 1u);
    EXPECT_EQ(counters[0].name, "test.requests");
    EXPECT_EQ(counters[0].desc, "");
    std::vector<obs::MetricsRegistry::HistogramView> hists =
        reg.histograms();
    ASSERT_EQ(hists.size(), 1u);
    EXPECT_EQ(hists[0].desc, kLatencyDef.desc());
    EXPECT_EQ(hists[0].bounds, kLatencyDef.bounds);
    EXPECT_EQ(hists[0].count, 1u);
    ASSERT_EQ(reg.gauges().size(), 1u);
    EXPECT_DOUBLE_EQ(reg.gauges()[0].value, 3.0);
    EXPECT_NE(kUntouchedDef.slot(), kRequestsDef.slot());

    // Another registry resolves the same descriptor to its own
    // instrument, registered with the descriptor's description.
    obs::MetricsRegistry other;
    ++other.counter(kRequestsDef);
    EXPECT_NE(&other.counter(kRequestsDef), &by_def);
    EXPECT_EQ(other.counters()[0].desc, kRequestsDef.desc());
    EXPECT_EQ(by_def.value(), 0u);
}

TEST(ObsMetrics, TouchedDescriptorsResolveWithoutAllocating)
{
    if (!support::allocCountingEnabled())
        GTEST_SKIP() << "build with -DCLARE_COUNT_ALLOCS=ON";
    obs::MetricsRegistry reg;
    ++reg.counter(kRequestsDef);
    reg.gauge(kDepthDef).set(0.0);
    reg.histogram(kLatencyDef).record(0.0);

    std::uint64_t before = support::allocationCount();
    for (int i = 0; i < 1000; ++i)
        ++reg.counter(kRequestsDef);
    for (int i = 0; i < 1000; ++i)
        reg.gauge(kDepthDef).set(static_cast<double>(i));
    for (int i = 0; i < 1000; ++i)
        reg.histogram(kLatencyDef).record(static_cast<double>(i));
    EXPECT_EQ(support::allocationCount() - before, 0u);

    EXPECT_EQ(reg.counter(kRequestsDef).value(), 1001u);
    EXPECT_DOUBLE_EQ(reg.gauge(kDepthDef).value(), 999.0);
    EXPECT_EQ(reg.histogram(kLatencyDef).count(), 1001u);
}

TEST(ObsMetrics, CountersAreThreadSafe)
{
    obs::MetricsRegistry reg;
    support::ThreadPool pool(4);
    constexpr std::size_t kTasks = 64;
    constexpr std::uint64_t kPerTask = 1000;
    pool.parallelFor(kTasks, [&](std::size_t) {
        // Registration from many threads must also be safe.
        obs::Counter &c = reg.counter("shared");
        for (std::uint64_t i = 0; i < kPerTask; ++i)
            ++c;
    });
    EXPECT_EQ(reg.counter("shared").value(), kTasks * kPerTask);
}

TEST(ObsMetrics, HistogramBucketing)
{
    obs::Histogram h({1.0, 10.0, 100.0});
    ASSERT_EQ(h.buckets(), 4u);     // 3 bounds + overflow
    h.record(0.5);      // <= 1
    h.record(1.0);      // exact bound lands in its own bucket
    h.record(5.0);      // <= 10
    h.record(100.0);    // exact last bound
    h.record(1e6);      // overflow
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(ObsMetrics, HistogramConcurrentRecords)
{
    obs::MetricsRegistry reg;
    obs::Histogram &h = reg.histogram("lat", {10.0, 100.0});
    support::ThreadPool pool(4);
    pool.parallelFor(32, [&](std::size_t i) {
        for (int j = 0; j < 100; ++j)
            h.record(static_cast<double>(i));
    });
    EXPECT_EQ(h.count(), 3200u);
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < h.buckets(); ++b)
        total += h.bucketCount(b);
    EXPECT_EQ(total, 3200u);
}

TEST(ObsMetrics, ExponentialBounds)
{
    std::vector<double> b = obs::Histogram::exponential(1.0, 10.0, 4);
    ASSERT_EQ(b.size(), 4u);
    EXPECT_DOUBLE_EQ(b[0], 1.0);
    EXPECT_DOUBLE_EQ(b[3], 1000.0);
}

TEST(ObsMetrics, HistogramPercentile)
{
    obs::Histogram h({10.0, 20.0, 40.0});
    EXPECT_DOUBLE_EQ(obs::histogramPercentile(h, 0.5), 0.0); // empty

    // 10 samples in [0,10], 10 in (10,20] — the median sits exactly at
    // the first bucket's upper bound, p75 halfway into the second.
    for (int i = 0; i < 10; ++i)
        h.record(5.0);
    for (int i = 0; i < 10; ++i)
        h.record(15.0);
    EXPECT_DOUBLE_EQ(obs::histogramPercentile(h, 0.5), 10.0);
    EXPECT_DOUBLE_EQ(obs::histogramPercentile(h, 0.75), 15.0);
    EXPECT_DOUBLE_EQ(obs::histogramPercentile(h, 1.0), 20.0);
    // q = 0 clamps to the first sample's rank, interpolated from the
    // bucket's lower edge.
    EXPECT_DOUBLE_EQ(obs::histogramPercentile(h, 0.0), 1.0);

    // Overflow samples pin the estimate to the last finite bound.
    h.record(1e9);
    EXPECT_DOUBLE_EQ(obs::histogramPercentile(h, 1.0), 40.0);
}

// ---------------------------------------------------------------------
// JSON model and exporters.
// ---------------------------------------------------------------------

TEST(ObsJson, ValueRoundTrip)
{
    json::Value doc = json::Value::object();
    doc.set("name", "bench \"quoted\" \n");
    doc.set("count", std::uint64_t{123456789012345});
    doc.set("rate", 0.25);
    doc.set("flag", true);
    doc.set("nothing", json::Value());
    json::Value arr = json::Value::array();
    arr.push(1).push(2).push(3);
    doc.set("items", std::move(arr));

    for (int indent : {0, 2}) {
        std::string text = doc.dump(indent);
        std::string err;
        std::optional<json::Value> back = json::Value::parse(text, &err);
        ASSERT_TRUE(back.has_value()) << err;
        EXPECT_EQ(back->find("name")->str(), "bench \"quoted\" \n");
        // Integers below 2^53 survive exactly.
        EXPECT_EQ(back->find("count")->number(), 123456789012345.0);
        EXPECT_DOUBLE_EQ(back->find("rate")->number(), 0.25);
        EXPECT_TRUE(back->find("flag")->boolean());
        EXPECT_TRUE(back->find("nothing")->isNull());
        ASSERT_EQ(back->find("items")->size(), 3u);
        EXPECT_EQ(back->find("items")->at(2).number(), 3.0);
    }
}

TEST(ObsJson, ParseRejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(json::Value::parse("{", &err).has_value());
    EXPECT_FALSE(json::Value::parse("[1, 2,]", &err).has_value());
    EXPECT_FALSE(json::Value::parse("{\"a\": 1} trailing",
                                    &err).has_value());
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(json::Value::parse("\"unterminated", &err).has_value());
}

TEST(ObsJson, UnicodeEscapesDecodeToUtf8)
{
    std::optional<json::Value> v =
        json::Value::parse("\"a\\u00e9\\u20ac\"");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->str(), "a\xc3\xa9\xe2\x82\xac");
}

TEST(ObsJson, ExportRoundTrip)
{
    obs::MetricsRegistry reg;
    reg.counter("hits", "stuff") += 7;
    reg.gauge("workers").set(4);
    reg.histogram("lat", {1.0, 10.0}).record(3.0);
    obs::Tracer tracer;
    {
        obs::ScopedSpan root(&tracer, "root");
        obs::ScopedSpan child(&tracer, "child");
        child.setSimTicks(11);
    }

    json::Value doc = obs::exportJson(&reg, &tracer);
    std::string err;
    std::optional<json::Value> back = json::Value::parse(doc.dump(2),
                                                         &err);
    ASSERT_TRUE(back.has_value()) << err;

    const json::Value *metrics = back->find("metrics");
    ASSERT_NE(metrics, nullptr);
    const json::Value *counters = metrics->find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_EQ(counters->size(), 1u);
    EXPECT_EQ(counters->at(0).find("name")->str(), "hits");
    EXPECT_EQ(counters->at(0).find("value")->number(), 7.0);
    const json::Value *hists = metrics->find("histograms");
    ASSERT_NE(hists, nullptr);
    EXPECT_EQ(hists->at(0).find("count")->number(), 1.0);

    const json::Value *spans = back->find("spans");
    ASSERT_NE(spans, nullptr);
    ASSERT_EQ(spans->size(), 2u);
    // Completion order: child first, rooted under "root".
    EXPECT_EQ(spans->at(0).find("name")->str(), "child");
    EXPECT_EQ(spans->at(0).find("parent")->number(),
              spans->at(1).find("id")->number());
    EXPECT_EQ(spans->at(0).find("sim_ticks")->number(), 11.0);
}

TEST(ObsJson, CsvRows)
{
    obs::MetricsRegistry reg;
    reg.counter("a.b") += 2;
    reg.histogram("h", {1.0}).record(0.5);
    std::string csv = obs::metricsCsv(reg);
    EXPECT_NE(csv.find("kind,name,value\n"), std::string::npos);
    EXPECT_NE(csv.find("counter,a.b,2"), std::string::npos);
    EXPECT_NE(csv.find("histogram,h.le_1,1"), std::string::npos);
    EXPECT_NE(csv.find("histogram,h.overflow,0"), std::string::npos);
}

// ---------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------

TEST(ObsConfig, ValidateAcceptsDefaults)
{
    crs::CrsConfig config;
    EXPECT_NO_THROW(config.validate());
    config.workers = 8;
    config.fs1.paceScale = 4.0;
    EXPECT_NO_THROW(config.validate());
}

TEST(ObsConfig, ValidateNamesTheOffendingField)
{
    auto field_of = [](crs::CrsConfig config) -> std::string {
        try {
            config.validate();
        } catch (const crs::ConfigError &e) {
            return e.field();
        }
        return "";
    };

    crs::CrsConfig config;
    config.workers = 0;
    EXPECT_EQ(field_of(config), "workers");

    config = {};
    config.fs1.scanRate = 0.0;
    EXPECT_EQ(field_of(config), "fs1.scanRate");

    config = {};
    config.fs1.paceScale = -1.0;
    EXPECT_EQ(field_of(config), "fs1.paceScale");

    config = {};
    config.fs2.level = 0;
    EXPECT_EQ(field_of(config), "fs2.level");

    config = {};
    config.fs2.resultSlotBytes = config.fs2.resultMemoryBytes + 1;
    EXPECT_EQ(field_of(config), "fs2.resultSlotBytes");

    config = {};
    config.host.perCandidateUnify = 2 * kSecond;
    EXPECT_EQ(field_of(config), "host.perCandidateUnify");
}

TEST(ObsConfig, ServerConstructorValidates)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::Program program;
    for (auto &c : reader.parseProgram("p(a).\n"))
        program.add(std::move(c));
    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();

    crs::CrsConfig config;
    config.workers = 0;
    EXPECT_THROW(crs::ClauseRetrievalServer(sym, store, config),
                 crs::ConfigError);
}

// ---------------------------------------------------------------------
// Integration: the unified front door and its accounting.
// ---------------------------------------------------------------------

class ObsPipelineTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym;
    std::unique_ptr<crs::PredicateStore> store;
    std::vector<workload::GeneratedQuery> queries;

    void
    SetUp() override
    {
        workload::KbGenerator kbgen(sym);
        workload::KbSpec spec;
        spec.predicates = 1;
        spec.clausesPerPredicate = 600;
        spec.atomVocabulary = 120;
        spec.varProb = 0.05;
        spec.structProb = 0.2;
        spec.seed = 77;
        term::Program program = kbgen.generate(spec);
        const auto &pred = program.predicates()[0];

        store = std::make_unique<crs::PredicateStore>(
            sym, scw::CodewordGenerator{});
        store->addProgram(program);
        store->finalize();

        workload::QuerySpec qspec;
        qspec.boundArgProb = 0.8;
        qspec.sharedVarProb = 0.1;
        qspec.seed = 5;
        workload::QueryGenerator qgen(sym, qspec);
        for (int i = 0; i < 12; ++i)
            queries.push_back(qgen.generate(program, pred));
    }

    std::vector<crs::RetrievalRequest>
    makeBatch(bool trace = false) const
    {
        std::vector<crs::RetrievalRequest> batch;
        for (std::size_t i = 0; i < queries.size(); ++i) {
            crs::RetrievalRequest r;
            r.arena = &queries[i].arena;
            r.goal = queries[i].goal;
            if (i % 2 == 0)
                r.mode = crs::SearchMode::TwoStage;
            r.trace.enabled = trace;
            batch.push_back(r);
        }
        return batch;
    }

    std::unique_ptr<crs::ClauseRetrievalServer>
    makeServer(std::uint32_t workers)
    {
        crs::CrsConfig config;
        config.workers = workers;
        return std::make_unique<crs::ClauseRetrievalServer>(
            sym, *store, config);
    }
};

TEST_F(ObsPipelineTest, BreakdownSumsToElapsedSequential)
{
    auto server = makeServer(1);
    for (const crs::RetrievalRequest &req : makeBatch()) {
        crs::RetrievalResponse r = server->serve(req);
        // workers == 1: no queueing, the sum is exact.
        EXPECT_EQ(r.breakdown.queueWait, 0u);
        EXPECT_EQ(r.breakdown.serviceTime(), r.elapsed);
        EXPECT_EQ(r.breakdown.total(), r.elapsed);
        EXPECT_EQ(r.breakdown.indexTime + r.breakdown.filterTime +
                      r.breakdown.hostUnifyTime,
                  r.elapsed);
    }
}

TEST_F(ObsPipelineTest, BreakdownSumsToElapsedPipelined)
{
    auto seq = makeServer(1);
    auto par = makeServer(4);
    std::vector<crs::RetrievalRequest> batch = makeBatch();
    std::vector<crs::RetrievalResponse> base = seq->serveBatch(batch);
    std::vector<crs::RetrievalResponse> out = par->serveBatch(batch);
    ASSERT_EQ(out.size(), base.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        // Queue wait is extra accounting on top of the (identical)
        // service time: total() minus the wait is exactly elapsed.
        EXPECT_EQ(out[i].breakdown.total() - out[i].breakdown.queueWait,
                  out[i].elapsed);
        EXPECT_EQ(out[i].breakdown.serviceTime(), out[i].elapsed);
        EXPECT_EQ(out[i].elapsed, base[i].elapsed) << i;
        EXPECT_EQ(out[i].candidates, base[i].candidates) << i;
        EXPECT_EQ(out[i].answers, base[i].answers) << i;
    }
}

TEST_F(ObsPipelineTest, ServeIsDeterministicAcrossInstances)
{
    // Two freshly constructed servers over the same store answer the
    // unified front door bit-identically -- the property the networked
    // tier's replicas rely on.
    auto a = makeServer(1);
    auto b = makeServer(1);
    for (const workload::GeneratedQuery &q : queries) {
        crs::RetrievalRequest req;
        req.arena = &q.arena;
        req.goal = q.goal;
        req.mode = crs::SearchMode::TwoStage;
        crs::RetrievalResponse ra = a->serve(req);
        crs::RetrievalResponse rb = b->serve(req);
        EXPECT_EQ(ra.candidates, rb.candidates);
        EXPECT_EQ(ra.answers, rb.answers);
        EXPECT_EQ(ra.elapsed, rb.elapsed);

        crs::RetrievalRequest auto_req;
        auto_req.arena = &q.arena;
        auto_req.goal = q.goal;
        crs::RetrievalResponse aa = a->serve(auto_req);
        crs::RetrievalResponse ab = b->serve(auto_req);
        EXPECT_EQ(aa.mode, ab.mode);
        EXPECT_EQ(aa.answers, ab.answers);
    }

    std::vector<crs::RetrievalRequest> batch = makeBatch();
    std::vector<crs::RetrievalResponse> many = a->serveBatch(batch);
    std::vector<crs::RetrievalResponse> served = b->serveBatch(batch);
    ASSERT_EQ(many.size(), served.size());
    for (std::size_t i = 0; i < many.size(); ++i) {
        EXPECT_EQ(many[i].candidates, served[i].candidates);
        EXPECT_EQ(many[i].answers, served[i].answers);
        EXPECT_EQ(many[i].elapsed, served[i].elapsed);
    }
}

TEST_F(ObsPipelineTest, TracingIsPerRequestOptIn)
{
    auto server = makeServer(1);

    crs::RetrievalRequest plain;
    plain.arena = &queries[0].arena;
    plain.goal = queries[0].goal;
    plain.mode = crs::SearchMode::TwoStage;
    crs::RetrievalResponse r0 = server->serve(plain);
    EXPECT_EQ(r0.traceSpan, 0u);
    EXPECT_EQ(server->tracer().spanCount(), 0u);

    crs::RetrievalRequest traced = plain;
    traced.trace.enabled = true;
    crs::RetrievalResponse r1 = server->serve(traced);
    EXPECT_NE(r1.traceSpan, 0u);
    ASSERT_GT(server->tracer().spanCount(), 0u);

    // The trace is a tree rooted at the response's span: every span
    // is the root or has a recorded parent, and the stage spans are
    // present under it.
    std::vector<obs::SpanRecord> spans = server->tracer().snapshot();
    std::map<obs::SpanId, const obs::SpanRecord *> by_id;
    for (const obs::SpanRecord &s : spans)
        by_id[s.id] = &s;
    std::size_t fs1_spans = 0, fs2_spans = 0, unify_spans = 0;
    for (const obs::SpanRecord &s : spans) {
        if (s.id != r1.traceSpan) {
            ASSERT_TRUE(by_id.count(s.parent) == 1)
                << s.name << " has unknown parent";
        }
        fs1_spans += s.name == "fs1.scan";
        fs2_spans += s.name == "fs2.search";
        unify_spans += s.name == "crs.host_unify";
    }
    EXPECT_EQ(by_id.at(r1.traceSpan)->name, "crs.retrieve");
    EXPECT_EQ(by_id.at(r1.traceSpan)->simTicks, r1.elapsed);
    EXPECT_EQ(fs1_spans, 1u);
    EXPECT_EQ(fs2_spans, 1u);
    EXPECT_EQ(unify_spans, 1u);
}

TEST_F(ObsPipelineTest, MetricsAccumulateAcrossRetrievals)
{
    auto server = makeServer(2);
    std::vector<crs::RetrievalRequest> batch = makeBatch();
    server->serveBatch(batch);
    obs::MetricsRegistry &m = server->metrics();
    EXPECT_EQ(m.counter("crs.queries").value(), batch.size());
    EXPECT_EQ(m.counter("crs.batches").value(), 1u);
    EXPECT_GT(m.counter("fs1.searches").value(), 0u);
    EXPECT_GT(m.counter("fs1.entries_scanned").value(), 0u);
    EXPECT_GT(m.counter("fs2.clauses_examined").value(), 0u);
    EXPECT_GT(m.counter("crs.host_unify_clauses").value(), 0u);
    EXPECT_EQ(m.histogram("crs.elapsed_us", {}).count(), batch.size());

    // The Table 1 op mix surfaces as fs2.op.* counters.
    bool any_op = false;
    for (const auto &view : m.counters())
        any_op = any_op || view.name.rfind("fs2.op.", 0) == 0;
    EXPECT_TRUE(any_op);
}

TEST_F(ObsPipelineTest, BatchTraceParentsShardScans)
{
    auto server = makeServer(4);
    std::vector<crs::RetrievalRequest> batch = makeBatch(true);
    std::vector<crs::RetrievalResponse> out = server->serveBatch(batch);
    std::vector<obs::SpanRecord> spans = server->tracer().snapshot();
    ASSERT_FALSE(spans.empty());
    std::map<obs::SpanId, const obs::SpanRecord *> by_id;
    for (const obs::SpanRecord &s : spans)
        by_id[s.id] = &s;
    // Exactly one batch root; every other span reaches it through
    // recorded parents (i.e. pool-side scan spans are not orphaned).
    std::size_t roots = 0;
    for (const obs::SpanRecord &s : spans) {
        if (s.parent == 0) {
            ++roots;
            EXPECT_EQ(s.name, "crs.batch");
        } else {
            EXPECT_EQ(by_id.count(s.parent), 1u) << s.name;
        }
    }
    EXPECT_EQ(roots, 1u);
    for (const crs::RetrievalResponse &r : out)
        EXPECT_NE(r.traceSpan, 0u);
}

} // namespace
} // namespace clare
