#include "support/obs.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "support/logging.hh"

namespace clare::obs {

// ---------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------

void
Tracer::record(SpanRecord rec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(rec));
}

std::vector<SpanRecord>
Tracer::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
}

std::uint64_t
Tracer::sinceEpochNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

// ---------------------------------------------------------------------
// ScopedSpan.
// ---------------------------------------------------------------------

namespace {

/** The innermost open span of this thread (implicit parenting). */
thread_local SpanId tCurrentSpan = 0;

} // namespace

SpanId
currentSpan()
{
    return tCurrentSpan;
}

ScopedSpan::ScopedSpan(Tracer *tracer, std::string name)
{
    open(tracer, std::move(name), tCurrentSpan);
}

ScopedSpan::ScopedSpan(Tracer *tracer, std::string name, SpanId parent)
{
    open(tracer, std::move(name), parent);
}

void
ScopedSpan::open(Tracer *tracer, std::string name, SpanId parent)
{
    if (tracer == nullptr)
        return;
    tracer_ = tracer;
    open_ = true;
    rec_.id = tracer->allocate();
    rec_.parent = parent;
    rec_.name = std::move(name);
    rec_.wallStartNs = tracer->sinceEpochNs();
    prevCurrent_ = tCurrentSpan;
    tCurrentSpan = rec_.id;
}

ScopedSpan &
ScopedSpan::attr(std::string key, AttrValue value)
{
    if (open_)
        rec_.attrs.push_back(SpanAttr{std::move(key), std::move(value)});
    return *this;
}

void
ScopedSpan::finish()
{
    if (!open_)
        return;
    open_ = false;
    rec_.wallNs = tracer_->sinceEpochNs() - rec_.wallStartNs;
    tCurrentSpan = prevCurrent_;
    tracer_->record(std::move(rec_));
}

// ---------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1)
{
    for (std::size_t i = 1; i < bounds_.size(); ++i)
        clare_assert(bounds_[i - 1] < bounds_[i],
                     "histogram bounds must be ascending");
}

void
Histogram::record(double v)
{
    std::size_t bucket = static_cast<std::size_t>(
        std::upper_bound(bounds_.begin(), bounds_.end(), v) -
        bounds_.begin());
    // upper_bound finds the first bound strictly greater; a sample
    // exactly on a bound belongs to that bound's bucket.
    if (bucket > 0 && bounds_[bucket - 1] == v)
        --bucket;
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t expected = sumBits_.load(std::memory_order_relaxed);
    while (true) {
        double updated = std::bit_cast<double>(expected) + v;
        if (sumBits_.compare_exchange_weak(
                expected, std::bit_cast<std::uint64_t>(updated),
                std::memory_order_relaxed)) {
            break;
        }
    }
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    clare_assert(i < counts_.size(), "histogram bucket %zu out of range",
                 i);
    return counts_[i].load(std::memory_order_relaxed);
}

double
Histogram::sum() const
{
    return std::bit_cast<double>(
        sumBits_.load(std::memory_order_relaxed));
}

void
Histogram::reset()
{
    for (auto &c : counts_)
        c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sumBits_.store(0, std::memory_order_relaxed);
}

std::vector<double>
Histogram::exponential(double first, double factor, std::size_t n)
{
    clare_assert(first > 0 && factor > 1,
                 "exponential bounds need first > 0 and factor > 1");
    std::vector<double> bounds;
    bounds.reserve(n);
    double v = first;
    for (std::size_t i = 0; i < n; ++i) {
        bounds.push_back(v);
        v *= factor;
    }
    return bounds;
}

double
histogramPercentile(const Histogram &h, double q)
{
    clare_assert(q >= 0.0 && q <= 1.0, "quantile %f out of [0,1]", q);
    std::uint64_t total = h.count();
    if (total == 0)
        return 0.0;
    // Rank of the target sample (1-based, ceil so q=1 is the max).
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    if (rank == 0)
        rank = 1;

    const std::vector<double> &bounds = h.bounds();
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < h.buckets(); ++i) {
        std::uint64_t in_bucket = h.bucketCount(i);
        if (seen + in_bucket < rank) {
            seen += in_bucket;
            continue;
        }
        if (i >= bounds.size())    // overflow bucket: pin to last bound
            return bounds.empty() ? 0.0 : bounds.back();
        double lo = i == 0 ? 0.0 : bounds[i - 1];
        double hi = bounds[i];
        double frac = static_cast<double>(rank - seen) /
            static_cast<double>(in_bucket);
        return lo + (hi - lo) * frac;
    }
    return bounds.empty() ? 0.0 : bounds.back();
}

// ---------------------------------------------------------------------
// MetricsRegistry.
// ---------------------------------------------------------------------

namespace {

std::size_t
nextDefSlot()
{
    static std::atomic<std::size_t> next{0};
    std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
    clare_assert(slot < kMaxInstrumentDefs,
                 "more than %zu instrument descriptors; raise "
                 "kMaxInstrumentDefs", kMaxInstrumentDefs);
    return slot;
}

template <typename Entries, typename Make>
auto &
findOrCreate(Entries &entries, const std::string &name,
             const std::string &desc, Make make)
{
    for (auto &entry : entries)
        if (entry.name == name)
            return *entry.instrument;
    entries.push_back({name, desc, make()});
    return *entries.back().instrument;
}

} // namespace

InstrumentDef::InstrumentDef(std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc)),
      slot_(nextDefSlot())
{}

Counter &
MetricsRegistry::counter(const std::string &name, const std::string &desc)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return findOrCreate(counters_, name, desc,
                        [] { return std::make_unique<Counter>(); });
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &desc)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return findOrCreate(gauges_, name, desc,
                        [] { return std::make_unique<Gauge>(); });
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> bounds,
                           const std::string &desc)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return findOrCreate(histograms_, name, desc, [&] {
        return std::make_unique<Histogram>(std::move(bounds));
    });
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &entry : counters_)
        entry.instrument->reset();
    for (auto &entry : gauges_)
        entry.instrument->reset();
    for (auto &entry : histograms_)
        entry.instrument->reset();
}

std::vector<MetricsRegistry::CounterView>
MetricsRegistry::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<CounterView> out;
    out.reserve(counters_.size());
    for (const auto &entry : counters_)
        out.push_back({entry.name, entry.desc,
                       entry.instrument->value()});
    return out;
}

std::vector<MetricsRegistry::GaugeView>
MetricsRegistry::gauges() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<GaugeView> out;
    out.reserve(gauges_.size());
    for (const auto &entry : gauges_)
        out.push_back({entry.name, entry.desc,
                       entry.instrument->value()});
    return out;
}

std::vector<MetricsRegistry::HistogramView>
MetricsRegistry::histograms() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<HistogramView> out;
    out.reserve(histograms_.size());
    for (const auto &entry : histograms_) {
        HistogramView view;
        view.name = entry.name;
        view.desc = entry.desc;
        view.bounds = entry.instrument->bounds();
        view.counts.reserve(entry.instrument->buckets());
        for (std::size_t i = 0; i < entry.instrument->buckets(); ++i)
            view.counts.push_back(entry.instrument->bucketCount(i));
        view.count = entry.instrument->count();
        view.sum = entry.instrument->sum();
        out.push_back(std::move(view));
    }
    return out;
}

// ---------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------

namespace {

json::Value
attrJson(const AttrValue &value)
{
    if (const auto *u = std::get_if<std::uint64_t>(&value))
        return json::Value(*u);
    if (const auto *i = std::get_if<std::int64_t>(&value))
        return json::Value(*i);
    if (const auto *d = std::get_if<double>(&value))
        return json::Value(*d);
    return json::Value(std::get<std::string>(value));
}

} // namespace

json::Value
metricsJson(const MetricsRegistry &metrics)
{
    json::Value doc = json::Value::object();

    json::Value counters = json::Value::array();
    for (const auto &view : metrics.counters()) {
        json::Value c = json::Value::object();
        c.set("name", view.name);
        if (!view.desc.empty())
            c.set("desc", view.desc);
        c.set("value", view.value);
        counters.push(std::move(c));
    }
    doc.set("counters", std::move(counters));

    json::Value gauges = json::Value::array();
    for (const auto &view : metrics.gauges()) {
        json::Value g = json::Value::object();
        g.set("name", view.name);
        if (!view.desc.empty())
            g.set("desc", view.desc);
        g.set("value", view.value);
        gauges.push(std::move(g));
    }
    doc.set("gauges", std::move(gauges));

    json::Value histograms = json::Value::array();
    for (const auto &view : metrics.histograms()) {
        json::Value h = json::Value::object();
        h.set("name", view.name);
        if (!view.desc.empty())
            h.set("desc", view.desc);
        json::Value bounds = json::Value::array();
        for (double b : view.bounds)
            bounds.push(b);
        h.set("bounds", std::move(bounds));
        json::Value counts = json::Value::array();
        for (std::uint64_t c : view.counts)
            counts.push(c);
        h.set("counts", std::move(counts));
        h.set("count", view.count);
        h.set("sum", view.sum);
        histograms.push(std::move(h));
    }
    doc.set("histograms", std::move(histograms));
    return doc;
}

json::Value
spansJson(const Tracer &tracer)
{
    json::Value spans = json::Value::array();
    for (const SpanRecord &rec : tracer.snapshot()) {
        json::Value s = json::Value::object();
        s.set("id", rec.id);
        s.set("parent", rec.parent);
        s.set("name", rec.name);
        s.set("wall_start_ns", rec.wallStartNs);
        s.set("wall_ns", rec.wallNs);
        s.set("sim_ticks", rec.simTicks);
        if (!rec.attrs.empty()) {
            json::Value attrs = json::Value::object();
            for (const SpanAttr &attr : rec.attrs)
                attrs.set(attr.key, attrJson(attr.value));
            s.set("attrs", std::move(attrs));
        }
        spans.push(std::move(s));
    }
    return spans;
}

json::Value
exportJson(const MetricsRegistry *metrics, const Tracer *tracer)
{
    json::Value doc = json::Value::object();
    if (metrics != nullptr)
        doc.set("metrics", metricsJson(*metrics));
    if (tracer != nullptr)
        doc.set("spans", spansJson(*tracer));
    return doc;
}

std::string
metricsCsv(const MetricsRegistry &metrics)
{
    std::string out = "kind,name,value\n";
    char buf[64];
    for (const auto &view : metrics.counters()) {
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(view.value));
        out += "counter," + view.name + "," + buf + "\n";
    }
    for (const auto &view : metrics.gauges()) {
        std::snprintf(buf, sizeof(buf), "%.17g", view.value);
        out += "gauge," + view.name + "," + buf + "\n";
    }
    for (const auto &view : metrics.histograms()) {
        for (std::size_t i = 0; i < view.counts.size(); ++i) {
            std::string bucket;
            if (i < view.bounds.size()) {
                std::snprintf(buf, sizeof(buf), "%g", view.bounds[i]);
                bucket = std::string("le_") + buf;
            } else {
                bucket = "overflow";
            }
            std::snprintf(buf, sizeof(buf), "%llu",
                          static_cast<unsigned long long>(
                              view.counts[i]));
            out += "histogram," + view.name + "." + bucket + "," + buf +
                "\n";
        }
    }
    return out;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        warn("cannot open '%s' for writing", path.c_str());
        return false;
    }
    std::size_t written = std::fwrite(content.data(), 1, content.size(),
                                      f);
    std::fclose(f);
    if (written != content.size()) {
        warn("short write to '%s'", path.c_str());
        return false;
    }
    return true;
}

} // namespace clare::obs
