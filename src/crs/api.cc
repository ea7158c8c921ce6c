#include "crs/api.hh"

#include <cmath>

#include "crs/server.hh"

namespace clare::crs {

json::Value
toJson(const StageBreakdown &breakdown)
{
    json::Value doc = json::Value::object();
    doc.set("queue_wait_ticks", breakdown.queueWait);
    // Only cache-served retrievals carry the cache stage, so a
    // default (cache-off) run's JSON stays byte-stable.
    if (breakdown.cacheTime > 0)
        doc.set("cache_ticks", breakdown.cacheTime);
    doc.set("index_ticks", breakdown.indexTime);
    doc.set("filter_ticks", breakdown.filterTime);
    doc.set("host_unify_ticks", breakdown.hostUnifyTime);
    doc.set("total_ticks", breakdown.total());
    return doc;
}

namespace {

void
require(bool ok, const char *field, const std::string &why)
{
    if (!ok)
        throw ConfigError(field, why);
}

} // namespace

void
CrsConfig::validate() const
{
    // Host cost model: the per-item costs multiply clause and
    // candidate counts, so a cost above one simulated second is a
    // unit mistake (they are all microsecond-scale) and risks Tick
    // overflow over large predicates.
    require(host.perClause <= kSecond, "host.perClause",
            "per-clause cost above one second — Tick is picoseconds");
    require(host.perOp <= kSecond, "host.perOp",
            "per-op cost above one second — Tick is picoseconds");
    require(host.perCandidateUnify <= kSecond, "host.perCandidateUnify",
            "per-candidate cost above one second — Tick is picoseconds");

    // FS1: the scan rate divides byte counts (busy time) and, on the
    // paced-replay path, real sleep durations — zero or negative
    // rates produce infinite times rather than a clamped fallback.
    require(std::isfinite(fs1.scanRate) && fs1.scanRate > 0,
            "fs1.scanRate", "scan rate must be a positive byte rate");
    require(std::isfinite(fs1.paceScale) && fs1.paceScale >= 0,
            "fs1.paceScale", "pace scale must be >= 0 (0 disables)");

    // FS2: the microprogram is assembled for levels 1-3; the stream
    // needs a non-empty double buffer bank and result slots that fit
    // the result memory.
    require(fs2.level >= 1 && fs2.level <= 3, "fs2.level",
            "matching level must be 1, 2, or 3");
    require(fs2.doubleBufferBank > 0, "fs2.doubleBufferBank",
            "double buffer bank must hold at least one byte");
    require(fs2.resultSlotBytes > 0, "fs2.resultSlotBytes",
            "result slots must hold at least one byte");
    require(fs2.resultSlotBytes <= fs2.resultMemoryBytes,
            "fs2.resultSlotBytes",
            "result slot larger than the result memory");
    require(fs2.sequencerOverhead <= kMillisecond,
            "fs2.sequencerOverhead",
            "per-microinstruction overhead above a millisecond — "
            "Tick is picoseconds");

    // Caches: a zero-capacity enabled level would mean "consult a
    // cache that can never hold anything" — hit costs would still be
    // charged on the replay paths, so reject the contradiction.  The
    // hit costs are memory-scale lookups; anything above a simulated
    // second is a unit mistake (Tick is picoseconds).
    if (cache.enabled) {
        require(cache.goalCapacity >= 1, "cache.goalCapacity",
                "an enabled goal cache needs at least one entry");
        require(cache.survivorCapacity >= 1, "cache.survivorCapacity",
                "an enabled survivor memo needs at least one entry");
        require(cache.goalHitCost <= kSecond, "cache.goalHitCost",
                "hit cost above one second — Tick is picoseconds");
        require(cache.survivorHitCost <= kSecond,
                "cache.survivorHitCost",
                "hit cost above one second — Tick is picoseconds");
    }

    // Pipeline: 0 workers would mean "no thread runs retrievals";
    // the sequential path is workers == 1, and silent clamping hid
    // that distinction before.
    require(workers >= 1, "workers",
            "need at least the calling thread (sequential path is 1)");
    require(workers <= 1024, "workers",
            "more than 1024 workers is a configuration error");

    // Fault handling: zero attempts would mean "never read anything";
    // an unbounded retry count turns a permanently bad sector into a
    // hang, so the bound is part of the contract.
    require(retry.maxAttempts >= 1, "retry.maxAttempts",
            "need at least one read attempt per chunk");
    require(retry.maxAttempts <= 64, "retry.maxAttempts",
            "more than 64 retries only hides a dead device");
}

} // namespace clare::crs
