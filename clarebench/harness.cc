#include "harness.hh"

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <stdexcept>

#include "net/wire.hh"

namespace clarebench {

namespace fs = std::filesystem;

const char *
usage()
{
    return "usage: clarebench --workload {batch_cold|wire_hot} "
           "--seed N [--seconds 1..60] [--trace 0|1]\n"
           "  --workload  traffic mix to generate and drive\n"
           "  --seed      workload seed (0..2^64-1); the same seed makes "
           "the same inputs\n"
           "  --seconds   length of the timed phase (default 10)\n"
           "  --trace     0: end-to-end metrics, untraced; 1: per-layer "
           "metrics from a traced run (default 0)\n";
}

namespace {

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    if (text == nullptr || *text == '\0' || *text == '-' || *text == '+')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0')
        return false;
    out = v;
    return true;
}

} // namespace

std::optional<Args>
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveWorkload = false;
    bool haveSeed = false;
    auto fail = [](const std::string &why) -> std::optional<Args> {
        std::fprintf(stderr, "clarebench: %s\n%s", why.c_str(), usage());
        return std::nullopt;
    };
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--help" || flag == "-h")
            return fail("help requested");
        if (flag != "--workload" && flag != "--seed" &&
            flag != "--seconds" && flag != "--trace")
            return fail("unknown argument '" + flag + "'");
        if (i + 1 >= argc)
            return fail(flag + " needs a value");
        const char *value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            args.workload = value;
            if (args.workload != "batch_cold" && args.workload != "wire_hot")
                return fail("unknown workload '" + args.workload + "'");
            haveWorkload = true;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, n))
                return fail("--seed must be an unsigned integer, got '" +
                            std::string(value) + "'");
            args.seed = n;
            haveSeed = true;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, n) || n < 1 || n > 60)
                return fail("--seconds must be an integer in 1..60, got '" +
                            std::string(value) + "'");
            args.seconds = static_cast<unsigned>(n);
        } else {
            if (!parseUnsigned(value, n) || n > 1)
                return fail("--trace must be 0 or 1, got '" +
                            std::string(value) + "'");
            args.trace = n == 1;
        }
    }
    if (!haveWorkload)
        return fail("--workload is required");
    if (!haveSeed)
        return fail("--seed is required");
    return args;
}

// ---------------------------------------------------------------------
// Samples
// ---------------------------------------------------------------------

Samples::Samples()
{
    values_.resize(kCapacity);
    values_.clear();
}

void
Samples::keep(double v)
{
    const std::uint64_t i = seen_++;
    if (i % stride_ != 0)
        return;
    if (values_.size() == kCapacity) {
        halve();
        if (i % stride_ != 0)
            return;
    }
    values_.push_back(v);
    sorted_ = false;
}

void
Samples::halve()
{
    std::size_t out = 0;
    for (std::size_t j = 0; j < values_.size(); j += 2)
        values_[out++] = values_[j];
    values_.resize(out);
    stride_ *= 2;
}

void
Samples::append(const Samples &other)
{
    while (stride_ < other.stride_)
        halve();
    for (std::size_t j = 0; j < other.values_.size(); ++j) {
        // Other's j-th kept value is its (j * stride)-th request.
        if (j * other.stride_ % stride_ != 0)
            continue;
        if (values_.size() == kCapacity) {
            halve();
            if (j * other.stride_ % stride_ != 0)
                continue;
        }
        values_.push_back(other.values_[j]);
    }
    seen_ += other.seen_;
    failed_ += other.failed_;
    sorted_ = false;
}

void
Samples::sort() const
{
    if (!sorted_) {
        std::sort(values_.begin(), values_.end());
        sorted_ = true;
    }
}

double
Samples::percentile(double q) const
{
    std::size_t n = count();
    if (n == 0)
        throw std::runtime_error("percentile of an empty sample set");
    sort();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return values_[rank - 1];
}

std::size_t
Samples::beyond(double q) const
{
    std::size_t n = count();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    return n - std::clamp<std::size_t>(rank, 1, n);
}

double
Samples::mean() const
{
    double sum = 0;
    std::size_t n = 0;
    for (double v : values_) {
        if (std::isfinite(v)) {
            sum += v;
            ++n;
        }
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

void
Report::set(const std::string &name, double value, const std::string &unit,
            const std::string &note)
{
    if (!std::isfinite(value))
        throw std::runtime_error("metric " + name + " is not finite");
    for (Entry &e : entries_) {
        if (e.name == name) {
            e = Entry{name, value, unit, note};
            return;
        }
    }
    entries_.push_back(Entry{name, value, unit, note});
}

void
Report::percentile(const std::string &name, const Samples &s, double q)
{
    char note[128];
    std::snprintf(note, sizeof(note),
                  "(p%g of n=%zu kept of %llu, %zu beyond, %llu failed)",
                  q * 100.0, s.count(),
                  static_cast<unsigned long long>(s.seen()), s.beyond(q),
                  static_cast<unsigned long long>(s.failed()));
    set(name, s.percentile(q), "us", note);
}

bool
Report::has(const std::string &name) const
{
    for (const Entry &e : entries_)
        if (e.name == name)
            return true;
    return false;
}

void
Report::printLines() const
{
    for (const Entry &e : entries_)
        std::printf("metric %-40s %16.6f %-6s %s\n", e.name.c_str(),
                    e.value, e.unit.c_str(), e.note.c_str());
}

void
Report::printJson(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", e.value);
        if (i != 0)
            out += ", ";
        out += "\"" + e.name + "\": {\"value\": " + num +
            ", \"unit\": \"" + e.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Scratch
// ---------------------------------------------------------------------

Scratch::Scratch()
{
    fs::create_directories(".bench_scratch");
    std::string templ = ".bench_scratch/" + std::to_string(::getpid()) +
        "-XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr)
        throw std::runtime_error("cannot create a scratch directory under "
                                 ".bench_scratch: " +
                                 std::string(std::strerror(errno)));
    path_ = buf.data();
}

Scratch::~Scratch()
{
    std::error_code ec;
    fs::remove_all(path_, ec);
}

std::string
Scratch::sub(const std::string &name) const
{
    return path_ + "/" + name;
}

// ---------------------------------------------------------------------
// SpanLog
// ---------------------------------------------------------------------

SpanLog::Id
SpanLog::begin(const char *name, Id parent, std::uint64_t request)
{
    if (!enabled_ || name == nullptr)
        return 0;
    Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() >= kMaxSpans) {
        ++dropped_;
        return 0;
    }
    spans_.push_back(Span{name, parent, request, now, now});
    return static_cast<Id>(spans_.size());
}

void
SpanLog::end(Id id)
{
    if (id == 0)
        return;
    Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end = now;
}

double
SpanLog::totalUs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0;
    for (const Span &s : spans_)
        if (name == s.name)
            sum += microsBetween(s.start, s.end);
    return sum;
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::size_t
SpanLog::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

void
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot write spans to " + path);
    Clock::time_point epoch =
        spans_.empty() ? Clock::now() : spans_.front().start;
    out << std::fixed << std::setprecision(3);
    out << "id\tparent\trequest\tname\tstart_us\tend_us\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i + 1) << '\t' << s.parent << '\t' << s.request << '\t'
            << s.name << '\t' << microsBetween(epoch, s.start) << '\t'
            << microsBetween(epoch, s.end) << '\n';
    }
}

// ---------------------------------------------------------------------
// Digest and the exactness gate
// ---------------------------------------------------------------------

void
Digest::mix(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 1099511628211ull;
    }
}

void
Digest::add(const clare::crs::RetrievalResponse &r)
{
    mix(static_cast<std::uint64_t>(r.mode));
    mix(r.answers.size());
    for (std::uint32_t a : r.answers)
        mix(a);
    const clare::crs::StageBreakdown &b = r.breakdown;
    mix(b.queueWait);
    mix(b.cacheTime);
    mix(b.indexTime);
    mix(b.filterTime);
    mix(b.hostUnifyTime);
    mix(r.elapsed);
    ++n_;
}

std::string
Digest::hex() const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

bool
legalResponse(const clare::crs::RetrievalResponse &got,
              const clare::crs::RetrievalResponse &reference,
              const clare::crs::CacheConfig &cache)
{
    using clare::net::responsesIdentical;
    clare::crs::RetrievalResponse g = got;
    g.breakdown.queueWait = 0;
    if (responsesIdentical(g, reference))
        return true;

    clare::crs::RetrievalResponse hit = reference;
    hit.breakdown = clare::crs::StageBreakdown{};
    hit.breakdown.cacheTime = cache.goalHitCost;
    hit.elapsed = hit.breakdown.serviceTime();
    if (responsesIdentical(g, hit))
        return true;

    clare::crs::RetrievalResponse replay = reference;
    replay.breakdown.indexTime = 0;
    replay.breakdown.cacheTime = cache.survivorHitCost;
    replay.elapsed = replay.breakdown.serviceTime();
    return responsesIdentical(g, replay);
}

void
Run::mismatch(const std::string &what)
{
    if (mismatches.size() < 16)
        std::fprintf(stderr, "clarebench: MISMATCH %s\n", what.c_str());
    mismatches.push_back(what);
}

void
reportEndToEnd(Run &run, const PhaseStats &reads)
{
    Report &r = run.report;
    r.set("goals_per_s", reads.goalsPerS(), "1/s",
          "(" + std::to_string(reads.goals) + " goals in " +
              std::to_string(reads.seconds) + " s)");
    r.percentile("request_p50_us", reads.latencyUs, 0.50);
    r.percentile("request_p99_us", reads.latencyUs, 0.99);
    r.set("peak_rss_mb", peakRssMb(), "MB",
          "(resident high-water mark from the end of set-up)");
}

int
pinToCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    std::vector<int> cpus;
    for (int c = CPU_SETSIZE - 1; c >= 0; --c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    if (cpus.empty())
        throw std::runtime_error("no CPU to pin to");
    // Claim a CPU with a lock file so that concurrent runs do not share
    // one; the descriptor stays open, and the lock held, until exit.
    int cpu = cpus.front();
    fs::create_directories(".bench_scratch");
    for (int c : cpus) {
        std::string path = ".bench_scratch/cpu" + std::to_string(c) + ".lock";
        int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
        if (fd < 0)
            continue;
        if (::flock(fd, LOCK_EX | LOCK_NB) == 0) {
            cpu = c;
            break;
        }
        ::close(fd);
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof(one), &one) != 0)
        throw std::runtime_error("sched_setaffinity failed");
    return cpu;
}

void
resetPeakRss()
{
    ::malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    if (!clear)
        throw std::runtime_error("cannot reset the resident high-water "
                                 "mark through /proc/self/clear_refs");
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

Zipf::Zipf(std::size_t n, double s)
{
    cdf_.reserve(n);
    double sum = 0;
    for (std::size_t k = 1; k <= n; ++k) {
        sum += 1.0 / std::pow(static_cast<double>(k), s);
        cdf_.push_back(sum);
    }
    for (double &c : cdf_)
        c /= sum;
}

std::size_t
Zipf::rank(double u) const
{
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

} // namespace clarebench
