/**
 * @file
 * Shared machinery of the clarebench program: strict arguments, raw
 * latency samples, the metric report and its final JSON line, the
 * per-process scratch directory, the in-memory span log of traced
 * runs, the answer digest, and the exactness gate.
 */

#ifndef CLAREBENCH_HARNESS_HH
#define CLAREBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "crs/api.hh"
#include "crs/server.hh"

namespace clarebench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Microseconds from @p a to @p b. */
inline double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** The command line, validated strictly (see usage()). */
struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    unsigned seconds = 10;
    bool trace = false;
};

/** Usage text printed with every argument error. */
const char *usage();

/**
 * Parse argv; nullopt (after printing the error and the usage text to
 * stderr) on an unknown flag, a missing or malformed value, or a value
 * out of range.
 */
std::optional<Args> parseArgs(int argc, char **argv);

/**
 * Raw latency samples in a buffer of fixed size.  Up to kCapacity
 * values every value is kept; past that the set thins itself to a
 * systematic subsample (every stride-th value, the stride doubling
 * each time the buffer fills), so percentiles stay exact order
 * statistics of raw values, drawn evenly over the whole phase, while
 * the memory the benchmark holds does not grow with the number of
 * requests and cannot move peak_rss_mb.  A failed or refused request
 * is recorded as +infinity, a miss of every latency limit, so it sorts
 * above every success and a percentile that reaches it reads
 * +infinity.  Add nothing after the first percentile.
 */
class Samples
{
  public:
    static constexpr std::size_t kCapacity = std::size_t{1} << 16;

    /** Allocates and touches the whole buffer. */
    Samples();

    void add(double v) { keep(v); }
    void addFailed()
    {
        ++failed_;
        keep(std::numeric_limits<double>::infinity());
    }
    /** Merge another set, thinning both to the same stride. */
    void append(const Samples &other);

    /** Requests recorded, successes and failures. */
    std::uint64_t seen() const { return seen_; }
    std::uint64_t failed() const { return failed_; }
    /** Samples the percentiles are drawn from. */
    std::size_t count() const { return values_.size(); }

    /** Nearest-rank percentile over the kept samples, q in (0, 1]. */
    double percentile(double q) const;
    /** Kept samples strictly above the q-percentile's rank. */
    std::size_t beyond(double q) const;
    /** Mean of the kept successes. */
    double mean() const;

  private:
    mutable std::vector<double> values_;
    mutable bool sorted_ = false;
    std::uint64_t stride_ = 1;
    std::uint64_t seen_ = 0;
    std::uint64_t failed_ = 0;

    void keep(double v);
    /** Drop every other kept value and double the stride. */
    void halve();
    void sort() const;
};

/** Metrics of one run, printed by name with unit, then as JSON. */
class Report
{
  public:
    /** Record a metric; @p note is printed on its human-readable line. */
    void set(const std::string &name, double value,
             const std::string &unit, const std::string &note = "");
    /** Record percentile @p q of @p s with its sample count. */
    void percentile(const std::string &name, const Samples &s, double q);

    bool has(const std::string &name) const;

    /** Human-readable lines, one per metric, in insertion order. */
    void printLines() const;
    /**
     * The last line of standard output: exactly `correct`,
     * `attempted`, `failed` and `metrics` (name -> value, unit).
     */
    void printJson(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
        std::string note;
    };
    std::vector<Entry> entries_;
};

/**
 * A directory private to this process, under `.bench_scratch/` of the
 * working directory, removed when the object dies.  Stores, WALs and
 * probe files of one run live here, so concurrent runs never share a
 * path.  The directory name starts with the pid so a parent process
 * can also remove it after a crash.
 */
class Scratch
{
  public:
    Scratch();
    ~Scratch();
    Scratch(const Scratch &) = delete;
    Scratch &operator=(const Scratch &) = delete;

    const std::string &path() const { return path_; }
    /** A fresh subdirectory path (not created). */
    std::string sub(const std::string &name) const;

  private:
    std::string path_;
};

/**
 * Spans recorded by the benchmark's own code around calls into the
 * program's public functions: name, start, end, parent span and
 * request id.  Kept in memory; written out once when the run ends.
 * Thread-safe; spans past kMaxSpans are counted and dropped.
 */
class SpanLog
{
  public:
    using Id = std::uint32_t;

    static constexpr std::size_t kMaxSpans = std::size_t{1} << 20;

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /** Switch recording; only between phases, never while threads log. */
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span; returns 0 when disabled or @p name is null. */
    Id begin(const char *name, Id parent, std::uint64_t request);
    void end(Id id);

    /** Total duration (us) of every span called @p name. */
    double totalUs(const std::string &name) const;
    std::size_t size() const;
    std::size_t dropped() const;

    /** Write every span as one tab-separated line. */
    void write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        Id parent;
        std::uint64_t request;
        Clock::time_point start;
        Clock::time_point end;
    };
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::size_t dropped_ = 0;
};

/** RAII span; a no-op when the log is disabled. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name, SpanLog::Id parent = 0,
          std::uint64_t request = 0)
        : log_(log), id_(log.begin(name, parent, request))
    {
    }
    ~Scope() { log_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    SpanLog::Id id() const { return id_; }

  private:
    SpanLog &log_;
    SpanLog::Id id_;
};

/** 64-bit FNV-1a over (answers, modeled ticks) of responses. */
class Digest
{
  public:
    void add(const clare::crs::RetrievalResponse &r);
    std::size_t count() const { return n_; }
    std::string hex() const;

  private:
    void mix(std::uint64_t v);
    std::uint64_t h_ = 1469598103934665603ull;
    std::size_t n_ = 0;
};

/**
 * Exactness gate: is @p got one of the responses the reference path
 * (caches off, workers 1) legally yields for the same goal and store
 * version?  Legal shapes are the reference response itself, its L3
 * goal-cache hit shape, and its L2 survivor-replay shape.  The
 * reference's queueWait is always 0, so @p got's batch queue wait is
 * excluded from the comparison (it enters the digest instead).
 */
bool legalResponse(const clare::crs::RetrievalResponse &got,
                   const clare::crs::RetrievalResponse &reference,
                   const clare::crs::CacheConfig &cache);

/** Everything one run accumulates beside its metrics. */
struct Run
{
    explicit Run(const Args &a) : args(a), spans(a.trace) {}

    Args args;
    Scratch scratch;
    Report report;
    SpanLog spans;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Exactness-gate and digest failures; any makes the run fail. */
    std::vector<std::string> mismatches;

    void mismatch(const std::string &what);
};

/** What one timed phase of a workload measured. */
struct PhaseStats
{
    Samples latencyUs;       ///< per request (batch, frame or serve())
    std::uint64_t goals = 0; ///< goals answered
    double seconds = 0;      ///< length of the phase

    /** Add another loop's counts of the same phase. */
    void merge(const PhaseStats &other)
    {
        latencyUs.append(other.latencyUs);
        goals += other.goals;
    }

    double goalsPerS() const
    {
        return seconds > 0 ? static_cast<double>(goals) / seconds : 0.0;
    }
};

/**
 * The end-to-end metrics every workload reports besides setup_s:
 * goals_per_s, request_p50_us, request_p99_us and peak_rss_mb (the
 * high-water mark since resetPeakRss(), read now, so call it right
 * after the timed phase).
 */
void reportEndToEnd(Run &run, const PhaseStats &reads);

/**
 * Pin the calling thread, and so every thread it creates afterwards, to
 * one CPU it may run on: the highest-numbered one no other clarebench
 * process in this working directory holds (a lock file under
 * `.bench_scratch/`, kept until exit), or the highest one when all are
 * held.  Returns that CPU.
 */
int pinToCpu();

/**
 * Start peak_rss_mb's window: return freed heap pages to the kernel
 * (the generator's program and the temporary compiled store of every
 * set-up) and reset the kernel's resident high-water mark to the
 * current resident set, so the peak reflects what the serving process
 * holds, not the benchmark's input generator.
 */
void resetPeakRss();

/** Resident high-water mark (VmHWM) of this process, in MB. */
double peakRssMb();

/** Zipf(s) sampler over ranks [0, n). */
class Zipf
{
  public:
    Zipf(std::size_t n, double s);
    /** Map a uniform draw in [0, 1) to a rank. */
    std::size_t rank(double u) const;

  private:
    std::vector<double> cdf_;
};

} // namespace clarebench

#endif // CLAREBENCH_HARNESS_HH
