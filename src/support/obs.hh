/**
 * @file
 * Pipeline observability: a lightweight span tracer, a metrics
 * registry, and JSON/CSV exporters.
 *
 * The retrieval pipeline is instrumented at every layer — FS1 shard
 * scans, FS2 streams and double-buffer fills, disk transfers, host
 * unification, and per-query roots in the CRS — and this module is
 * the common substrate:
 *
 *  - Spans are RAII-scoped (ScopedSpan) and dual-clocked: wall time is
 *    measured on the host's steady clock, simulated time is attached
 *    by the component that computed it (the pipeline's Tick model is
 *    analytic, not sampled).  Parents nest implicitly through a
 *    thread-local current span, or explicitly by id for work handed
 *    to pool workers.
 *
 *  - Metrics are monotonically increasing counters, last-value
 *    gauges, and fixed-bucket histograms.  Each instrument is declared
 *    once, as a namespace-scope descriptor (CounterDef, GaugeDef,
 *    HistogramDef) next to the component that counts it; a descriptor
 *    owns a process-wide slot in every registry's table of instrument
 *    pointers.  The first touch in a registry registers the instrument
 *    by name (under the registry lock, so a dump lists instruments in
 *    first-touch order and never shows one nothing has counted yet);
 *    every later touch is one acquire load.  All updates are
 *    lock-free atomics so engines shared by the parallel retrieval
 *    pipeline can account concurrently, and references stay valid for
 *    the registry's lifetime.
 *
 *  - Exporters render a registry and/or tracer as a json::Value tree
 *    (machine-diffable bench output) or CSV rows.
 *
 * Producers receive an Observer — a {tracer, metrics} pointer pair —
 * and must accept a null tracer (tracing is per-request opt-in) and a
 * null metrics registry (standalone engine use).
 */

#ifndef CLARE_SUPPORT_OBS_HH
#define CLARE_SUPPORT_OBS_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "support/json.hh"
#include "support/sim_time.hh"

namespace clare::obs {

/** Span identifier; 0 means "no span". */
using SpanId = std::uint64_t;

/** Attribute payload attached to a span. */
using AttrValue =
    std::variant<std::uint64_t, std::int64_t, double, std::string>;

struct SpanAttr
{
    std::string key;
    AttrValue value;
};

/** A finished span as stored by the tracer. */
struct SpanRecord
{
    SpanId id = 0;
    SpanId parent = 0;
    std::string name;
    /** Wall-clock start, ns since the tracer's epoch. */
    std::uint64_t wallStartNs = 0;
    /** Wall-clock duration in ns. */
    std::uint64_t wallNs = 0;
    /** Simulated duration attached by the producer (0 if none). */
    Tick simTicks = 0;
    std::vector<SpanAttr> attrs;
};

/**
 * Collects finished spans.  Allocation of ids and appending records
 * are thread-safe; one tracer serves the whole retrieval pipeline.
 */
class Tracer
{
  public:
    Tracer() : epoch_(std::chrono::steady_clock::now()) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Reserve the next span id. */
    SpanId
    allocate()
    {
        return next_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Append a finished span. */
    void record(SpanRecord rec);

    /** Copy of every finished span, in completion order. */
    std::vector<SpanRecord> snapshot() const;

    std::size_t spanCount() const;

    /** Drop all recorded spans (ids keep increasing). */
    void clear();

    /** Nanoseconds of wall time since this tracer was constructed. */
    std::uint64_t sinceEpochNs() const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::atomic<SpanId> next_{1};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/** The calling thread's innermost open span (0 outside any span). */
SpanId currentSpan();

/**
 * RAII span.  A default-constructed or null-tracer span is inert and
 * costs a few branches; an active span measures wall time from
 * construction to finish()/destruction and records itself into the
 * tracer.  While open it is the thread's current span, so same-thread
 * children nest under it automatically.
 */
class ScopedSpan
{
  public:
    ScopedSpan() = default;

    /** Open a span whose parent is the thread's current span. */
    ScopedSpan(Tracer *tracer, std::string name);

    /** Open a span under an explicit parent (0 for a root). */
    ScopedSpan(Tracer *tracer, std::string name, SpanId parent);

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan() { finish(); }

    bool active() const { return open_; }

    /** This span's id (0 when inert). */
    SpanId id() const { return rec_.id; }

    /** Attach simulated duration. */
    void addSimTicks(Tick t) { rec_.simTicks += t; }
    void setSimTicks(Tick t) { rec_.simTicks = t; }

    /** Attach an attribute (no-op when inert). */
    ScopedSpan &attr(std::string key, AttrValue value);

    /** Close and record the span now (idempotent). */
    void finish();

  private:
    void open(Tracer *tracer, std::string name, SpanId parent);

    Tracer *tracer_ = nullptr;
    bool open_ = false;
    SpanRecord rec_;
    SpanId prevCurrent_ = 0;
};

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

/** A monotonically increasing counter (relaxed atomic). */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    Counter &
    operator+=(std::uint64_t n)
    {
        add(n);
        return *this;
    }

    Counter &
    operator++()
    {
        add(1);
        return *this;
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** A last-value gauge. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { set(0.0); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * A fixed-bucket histogram.  Bucket i counts samples <= bounds[i]
 * (bounds ascending); one extra overflow bucket counts the rest.
 * record() is lock-free.
 */
class Histogram
{
  public:
    /** @param bounds ascending bucket upper bounds (may be empty) */
    explicit Histogram(std::vector<double> bounds);

    void record(double v);

    const std::vector<double> &bounds() const { return bounds_; }

    /** Bucket count including the overflow bucket. */
    std::size_t buckets() const { return counts_.size(); }

    std::uint64_t bucketCount(std::size_t i) const;

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const;

    void reset();

    /**
     * Geometric bucket bounds: first, first*factor, ... (n values).
     * The default metrics use these for latency distributions.
     */
    static std::vector<double> exponential(double first, double factor,
                                           std::size_t n);

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> counts_;
    std::atomic<std::uint64_t> count_{0};
    /** Sum of samples, stored as a double bit pattern (CAS updates). */
    std::atomic<std::uint64_t> sumBits_{0};
};

/**
 * Estimated value at quantile @p q in [0, 1] (0.5 = median, 0.99 =
 * p99) from the histogram's bucket counts, linearly interpolated
 * inside the containing bucket.  Samples landing in the overflow
 * bucket pin the estimate to the last finite bound — pick bounds that
 * cover the tail you care about.  Returns 0 for an empty histogram.
 */
double histogramPercentile(const Histogram &h, double q);

/** Descriptor slots per registry; every descriptor in the process. */
inline constexpr std::size_t kMaxInstrumentDefs = 256;

/**
 * The identity of one instrument: its name, description, and a slot
 * index assigned when the descriptor is constructed (static init for
 * the namespace-scope descriptors this is meant for).  Descriptors
 * must outlive every registry that resolves them.
 */
class InstrumentDef
{
  public:
    InstrumentDef(const InstrumentDef &) = delete;
    InstrumentDef &operator=(const InstrumentDef &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }
    std::size_t slot() const { return slot_; }

  protected:
    InstrumentDef(std::string name, std::string desc);

  private:
    std::string name_, desc_;
    std::size_t slot_;
};

struct CounterDef : InstrumentDef
{
    CounterDef(std::string name, std::string desc)
        : InstrumentDef(std::move(name), std::move(desc))
    {}
};

struct GaugeDef : InstrumentDef
{
    GaugeDef(std::string name, std::string desc)
        : InstrumentDef(std::move(name), std::move(desc))
    {}
};

struct HistogramDef : InstrumentDef
{
    HistogramDef(std::string name, std::vector<double> bounds,
                 std::string desc)
        : InstrumentDef(std::move(name), std::move(desc)),
          bounds(std::move(bounds))
    {}

    std::vector<double> bounds;
};

/**
 * @p N counter descriptors named @p prefix + suffix(i), one per value
 * of an enum (per-mode, per-operation families).
 */
template <std::size_t N, typename Suffix>
std::array<CounterDef, N>
counterFamily(const std::string &prefix, Suffix suffix,
              const std::string &desc)
{
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
        return std::array<CounterDef, N>{
            CounterDef(prefix + suffix(I), desc)...};
    }(std::make_index_sequence<N>{});
}

/**
 * A named collection of metrics.  Registration returns references
 * valid for the registry's lifetime; looking up an existing name
 * returns the same instrument, whether by name or by descriptor.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The descriptor's instrument; registers it on first touch. */
    Counter &counter(const CounterDef &def) { return resolve<Counter>(def); }
    Gauge &gauge(const GaugeDef &def) { return resolve<Gauge>(def); }
    Histogram &histogram(const HistogramDef &def)
    {
        return resolve<Histogram>(def);
    }

    // Name-keyed registration: a lock and a scan per call.  The
    // descriptor overloads take it once per registry; tests and
    // benches use it to read instruments back by name.
    Counter &counter(const std::string &name,
                     const std::string &desc = "");
    Gauge &gauge(const std::string &name, const std::string &desc = "");
    /** @p bounds is used only when the histogram is first created. */
    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds,
                         const std::string &desc = "");

    /** Zero every instrument (registrations persist). */
    void reset();

    // Read-side snapshots, in registration order.
    struct CounterView
    {
        std::string name, desc;
        std::uint64_t value;
    };
    struct GaugeView
    {
        std::string name, desc;
        double value;
    };
    struct HistogramView
    {
        std::string name, desc;
        std::vector<double> bounds;
        std::vector<std::uint64_t> counts;
        std::uint64_t count;
        double sum;
    };

    std::vector<CounterView> counters() const;
    std::vector<GaugeView> gauges() const;
    std::vector<HistogramView> histograms() const;

  private:
    template <typename T> struct Entry
    {
        std::string name, desc;
        std::unique_ptr<T> instrument;
    };

    Counter &registerDef(const CounterDef &def)
    {
        return counter(def.name(), def.desc());
    }
    Gauge &registerDef(const GaugeDef &def)
    {
        return gauge(def.name(), def.desc());
    }
    Histogram &registerDef(const HistogramDef &def)
    {
        return histogram(def.name(), def.bounds, def.desc());
    }

    /**
     * Racing first touches all register the same instrument, so
     * whichever store lands last writes the same pointer; the
     * release/acquire pair publishes its construction to readers.
     */
    template <typename T, typename Def>
    T &
    resolve(const Def &def)
    {
        std::atomic<void *> &slot = slots_[def.slot()];
        if (void *p = slot.load(std::memory_order_acquire))
            return *static_cast<T *>(p);
        T &instrument = registerDef(def);
        slot.store(&instrument, std::memory_order_release);
        return instrument;
    }

    /** Descriptor slot -> its instrument here (null until touched). */
    std::array<std::atomic<void *>, kMaxInstrumentDefs> slots_{};

    mutable std::mutex mutex_;
    std::vector<Entry<Counter>> counters_;
    std::vector<Entry<Gauge>> gauges_;
    std::vector<Entry<Histogram>> histograms_;
};

// ---------------------------------------------------------------------
// The producer-facing handle and the exporters.
// ---------------------------------------------------------------------

/**
 * What instrumented components receive: both pointers optional.  A
 * null tracer disables spans (per-request opt-in); a null registry
 * disables metrics (standalone engine use).
 */
struct Observer
{
    Tracer *tracer = nullptr;
    MetricsRegistry *metrics = nullptr;

    bool tracing() const { return tracer != nullptr; }
};

/** Render a registry as {"counters": [...], "gauges": ..., ...}. */
json::Value metricsJson(const MetricsRegistry &metrics);

/** Render a tracer's spans as an array of span objects. */
json::Value spansJson(const Tracer &tracer);

/** Combined export; either argument may be null. */
json::Value exportJson(const MetricsRegistry *metrics,
                       const Tracer *tracer);

/** "kind,name,value" CSV rows (histogram buckets flattened). */
std::string metricsCsv(const MetricsRegistry &metrics);

/** Write a string to a file; false (with a warning) on failure. */
bool writeFile(const std::string &path, const std::string &content);

} // namespace clare::obs

#endif // CLARE_SUPPORT_OBS_HH
