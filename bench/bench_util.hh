/**
 * @file
 * Shared helpers for the benchmark harnesses: program-to-store
 * compilation, formatting, strict command-line parsing, and
 * machine-readable JSON export (`--json <path>`).
 */

#ifndef CLARE_BENCH_BENCH_UTIL_HH
#define CLARE_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crs/server.hh"
#include "crs/store.hh"
#include "support/fault_injector.hh"
#include "support/json.hh"
#include "support/obs.hh"
#include "term/clause.hh"
#include "term/symbol_table.hh"

namespace clare::bench {

/** A compiled store plus its server, owned together. */
struct CompiledStore
{
    std::unique_ptr<crs::PredicateStore> store;
    std::unique_ptr<crs::ClauseRetrievalServer> server;
};

/** Compile a program into a predicate store and bring up a CRS. */
inline CompiledStore
compileStore(term::SymbolTable &symbols, const term::Program &program,
             scw::ScwConfig scw_config = {},
             crs::CrsConfig crs_config = {})
{
    CompiledStore out;
    out.store = std::make_unique<crs::PredicateStore>(
        symbols, scw::CodewordGenerator(scw_config));
    out.store->addProgram(program);
    out.store->finalize();
    out.server = std::make_unique<crs::ClauseRetrievalServer>(
        symbols, *out.store, crs_config);
    return out;
}

/** One goal through the unified front door. */
inline crs::RetrievalResponse
serveOne(crs::ClauseRetrievalServer &server, const term::TermArena &arena,
         term::TermRef goal, std::optional<crs::SearchMode> mode = {})
{
    crs::RetrievalRequest request;
    request.arena = &arena;
    request.goal = goal;
    request.mode = mode;
    return server.serve(request);
}

/** "12.34 ms" style human duration from ticks. */
inline std::string
formatTime(Tick t)
{
    char buf[64];
    double ns = static_cast<double>(t) / kNanosecond;
    if (ns < 1e3)
        std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
    else if (ns < 1e6)
        std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
    else if (ns < 1e9)
        std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
    else
        std::snprintf(buf, sizeof(buf), "%.3f s", ns / 1e9);
    return buf;
}

/** "4.25 MB/s" from a bytes-per-second rate. */
inline std::string
formatRate(double bytes_per_second)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f MB/s", bytes_per_second / 1e6);
    return buf;
}

/**
 * One harness's command line.  Each *Arg() parser below consumes the
 * arguments it recognizes; finish() exits 2 with the usage text when
 * any argument is left over, so a typo or a flag the harness does not
 * take fails loudly instead of running the default configuration.
 */
class Args
{
  public:
    Args(int argc, char **argv)
        : program_(argc > 0 ? argv[0] : "bench"),
          args_(argv + (argc > 0 ? 1 : 0), argv + argc),
          used_(args_.size(), false)
    {
    }

    /** Consume every `name`; true when at least one was present. */
    bool
    flag(const char *name, const char *help)
    {
        usage_.push_back(std::string(name) + "  " + help);
        bool seen = false;
        for (std::size_t i = 0; i < args_.size(); ++i) {
            if (!used_[i] && args_[i] == name) {
                used_[i] = true;
                seen = true;
            }
        }
        return seen;
    }

    /**
     * Consume every `name=V` (and `name V`); the last V, or null when
     * absent.  @p meta names the value in the usage text.
     */
    const char *
    value(const char *name, const char *meta, const char *help)
    {
        usage_.push_back(std::string(name) + "=" + meta + "  " + help);
        const std::string eq = std::string(name) + "=";
        const char *last = nullptr;
        for (std::size_t i = 0; i < args_.size(); ++i) {
            if (used_[i])
                continue;
            if (args_[i].compare(0, eq.size(), eq) == 0) {
                used_[i] = true;
                last = args_[i].c_str() + eq.size();
            } else if (args_[i] == name && i + 1 < args_.size()) {
                used_[i] = used_[i + 1] = true;
                last = args_[++i].c_str();
            }
        }
        return last;
    }

    /** Exit 2 with the usage text if any argument went unconsumed. */
    void
    finish() const
    {
        for (std::size_t i = 0; i < args_.size(); ++i) {
            if (!used_[i]) {
                std::fprintf(stderr, "%s: unknown argument '%s'\n",
                             program_.c_str(), args_[i].c_str());
                std::fprintf(stderr, "usage: %s%s\n", program_.c_str(),
                             usage_.empty() ? "" : " [options]");
                for (const std::string &line : usage_)
                    std::fprintf(stderr, "  %s\n", line.c_str());
                std::exit(2);
            }
        }
    }

  private:
    std::string program_;
    std::vector<std::string> args_;
    std::vector<bool> used_;
    std::vector<std::string> usage_;
};

/** `--json <path>` / `--json=<path>`; empty string when absent. */
inline std::string
jsonPathArg(Args &args)
{
    const char *path = args.value("--json", "PATH",
                                  "write machine-readable results");
    return path != nullptr ? path : "";
}

/**
 * Parse the optional fault-injection knobs: `--fault-seed=N` arms the
 * deterministic injector, and `--fault-flip=R` / `--fault-transient=R`
 * / `--fault-delay=R` set the per-chunk fault rates (in [0,1]).
 * Returns nullopt unless --fault-seed was given, so a default run is
 * bit-identical to a fault-free build.
 */
inline std::optional<support::FaultConfig>
faultConfigArg(Args &args)
{
    const char *seed = args.value("--fault-seed", "N",
                                  "arm the deterministic fault injector");
    const char *flip = args.value("--fault-flip", "R",
                                  "bit-flip rate per chunk");
    const char *transient = args.value("--fault-transient", "R",
                                       "transient read-error rate");
    const char *delay = args.value("--fault-delay", "R",
                                   "delayed-read rate");
    std::optional<support::FaultConfig> config;
    if (seed == nullptr)
        return config;
    config.emplace();
    config->seed = std::strtoull(seed, nullptr, 10);
    auto rate = [](const char *v) {
        return v != nullptr ? std::strtod(v, nullptr) : 0.0;
    };
    config->bitFlipRate = rate(flip);
    config->transientReadRate = rate(transient);
    config->delayRate = rate(delay);
    return config;
}

/**
 * Parsed `--cache-*` knobs shared by the bench harnesses.  Absent
 * flags leave everything disabled, so a default run is bit-identical
 * to a cache-free build.
 */
struct CacheKnobs
{
    /** `--cache`: enable L2/L3 at the server defaults. */
    bool enabled = false;
    /** `--cache-l3=N`: L3 goal-cache capacity (entries; implies on). */
    std::uint32_t l3Capacity = 0;
    /** `--cache-l2=N`: L2 survivor-memo capacity (implies on). */
    std::uint32_t l2Capacity = 0;
    /** `--cache-l1-tracks=N`: L1 track-cache capacity per disk. */
    std::uint32_t l1Tracks = 0;
    /** `--cache-bypass`: set bypassCache on every request served. */
    bool bypass = false;

    /** Fold the L2/L3 knobs into a server config. */
    void
    apply(crs::CrsConfig &config) const
    {
        config.cache.enabled = enabled;
        if (l3Capacity > 0)
            config.cache.goalCapacity = l3Capacity;
        if (l2Capacity > 0)
            config.cache.survivorCapacity = l2Capacity;
    }

    /** Configure the store's L1 track caches when requested. */
    void
    apply(crs::PredicateStore &store) const
    {
        if (l1Tracks > 0)
            store.configureDiskCaches({.capacityTracks = l1Tracks});
    }
};

/**
 * Parse the cache-hierarchy knobs: `--cache` enables the server-side
 * caches at their defaults, `--cache-l3=N` / `--cache-l2=N` size the
 * goal cache and the survivor memo (either implies
 * `--cache`), `--cache-l1-tracks=N` sizes the per-disk track cache,
 * and `--cache-bypass` serves every request with bypassCache set.
 */
inline CacheKnobs
cacheConfigArg(Args &args)
{
    auto count = [](const char *v) {
        return v != nullptr
            ? static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10))
            : 0u;
    };
    CacheKnobs knobs;
    knobs.enabled = args.flag("--cache", "enable the L2/L3 caches");
    const char *l3 = args.value("--cache-l3", "N",
                                "L3 goal-cache entries");
    const char *l2 = args.value("--cache-l2", "N",
                                "L2 survivor-memo entries");
    knobs.l3Capacity = count(l3);
    knobs.l2Capacity = count(l2);
    knobs.l1Tracks = count(args.value("--cache-l1-tracks", "N",
                                      "L1 track-cache tracks per disk"));
    knobs.bypass = args.flag("--cache-bypass",
                             "serve every request with bypassCache");
    knobs.enabled = knobs.enabled || l3 != nullptr || l2 != nullptr;
    return knobs;
}

/** One retrieval as a JSON row (shared shape across harnesses). */
inline json::Value
responseJson(const crs::RetrievalResponse &r)
{
    json::Value row = json::Value::object();
    row.set("mode", crs::searchModeSlug(r.mode));
    row.set("candidates", static_cast<std::uint64_t>(r.candidates.size()));
    row.set("answers", static_cast<std::uint64_t>(r.answers.size()));
    row.set("false_drop_rate", r.falseDropRate());
    row.set("elapsed_ticks", r.elapsed);
    row.set("breakdown", crs::toJson(r.breakdown));
    return row;
}

/**
 * Write the harness's machine-readable output: the per-experiment
 * results plus the server's cumulative metrics (and spans, when any
 * were traced).  No-op when @p path is empty.
 */
inline bool
writeBenchJson(const std::string &path, const std::string &bench,
               json::Value results,
               const crs::ClauseRetrievalServer *server = nullptr)
{
    if (path.empty())
        return true;
    json::Value doc = json::Value::object();
    doc.set("bench", bench);
    doc.set("results", std::move(results));
    if (server != nullptr) {
        doc.set("metrics", obs::metricsJson(server->metrics()));
        if (server->tracer().spanCount() > 0)
            doc.set("spans", obs::spansJson(server->tracer()));
    }
    return obs::writeFile(path, doc.dump(2) + "\n");
}

} // namespace clare::bench

#endif // CLARE_BENCH_BENCH_UTIL_HH
