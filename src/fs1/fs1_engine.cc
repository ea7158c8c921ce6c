#include "fs1/fs1_engine.hh"

#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "fs1/sliced_matcher.hh"
#include "support/logging.hh"

namespace clare::fs1 {

namespace {

const obs::CounterDef kSearches{"fs1.searches",
                                "FS1 index scans performed"};
const obs::CounterDef kEntriesScanned{"fs1.entries_scanned",
                                      "index entries examined"};
const obs::CounterDef kHits{"fs1.hits",
                            "entries passing the codeword match"};
const obs::CounterDef kBytesScanned{"fs1.bytes_scanned",
                                    "secondary file bytes streamed"};
const obs::CounterDef kWordOps{"fs1.sliced.word_ops",
                               "64-bit plane operations in sliced scans"};

/**
 * Every stored predicate carries a plane over its whole index (a live
 * version's base + delta pair goes through the split search), so a
 * missing or short plane is a broken invariant, not a fallback case.
 */
void
requireFullPlane(const scw::SecondaryFile &index,
                 const scw::BitSlicedIndex *sliced)
{
    clare_assert(sliced != nullptr &&
                     sliced->entryCount() == index.entryCount(),
                 "FS1 plane covers %zu of %zu index entries",
                 sliced != nullptr ? sliced->entryCount() : 0,
                 index.entryCount());
}

} // namespace

Fs1Engine::Fs1Engine(scw::CodewordGenerator generator, Fs1Config config)
    : generator_(std::move(generator)), config_(config)
{
}

Tick
Fs1Engine::busyTicks(std::uint64_t bytes) const
{
    return static_cast<Tick>(std::llround(
        static_cast<double>(bytes) / config_.scanRate *
        static_cast<double>(kSecond)));
}

void
Fs1Engine::pace(std::uint64_t bytes) const
{
    if (config_.paceScale <= 0)
        return;
    // Paced replay: wait out this share of the device time in scaled
    // real time.  Concurrent shards wait concurrently.
    double device_s = static_cast<double>(bytes) / config_.scanRate /
        config_.paceScale;
    std::this_thread::sleep_for(std::chrono::duration<double>(device_s));
}

Fs1Engine::ShardScan
Fs1Engine::scanRange(const scw::BitSlicedIndex &plane,
                     std::size_t entry_bytes,
                     const scw::Signature &query,
                     const scw::EntryRange &range,
                     std::uint64_t prefix_bytes,
                     const obs::Observer &obs, obs::SpanId parent) const
{
    // Shard scans run on pool workers, so the parent is explicit (the
    // thread-local current span belongs to whatever that worker last
    // ran).
    obs::ScopedSpan span(obs.tracer, "fs1.shard", parent);
    // Shard ranges need not be word-aligned; the matcher edge-masks
    // partial words, so per-shard hit lists still concatenate into
    // exactly the sequential order.
    SlicedMatcher matcher;
    SlicedMatcher::Hits hits = matcher.scanRange(plane, query, range);
    ShardScan scan;
    scan.clauseOffsets = std::move(hits.clauseOffsets);
    scan.ordinals = std::move(hits.ordinals);
    scan.wordOps = hits.wordOps;
    scan.entriesScanned = range.size();
    scan.bytesScanned = range.size() * entry_bytes;
    if (span.active()) {
        span.attr("entries", scan.entriesScanned);
        span.attr("hits",
                  static_cast<std::uint64_t>(scan.ordinals.size()));
        span.attr("bytes", scan.bytesScanned);
        span.attr("word_ops", scan.wordOps);
        // This shard's share of the device busy time, computed as a
        // difference of *cumulative* conversions: shards are
        // contiguous, so the per-shard spans telescope to exactly the
        // merged busyTime (an independent per-shard conversion could
        // drift from the summed total by a sub-tick per shard).
        span.setSimTicks(busyTicks(prefix_bytes + scan.bytesScanned) -
                         busyTicks(prefix_bytes));
    }
    pace(scan.bytesScanned);
    return scan;
}

Fs1Result
Fs1Engine::merge(std::vector<ShardScan> shards,
                 const obs::Observer &obs) const
{
    Fs1Result result;
    result.shards = shards.empty()
        ? 1 : static_cast<std::uint32_t>(shards.size());
    std::uint64_t word_ops = 0;
    // Shards are contiguous and processed here in shard order, so the
    // concatenation reproduces the sequential scan order exactly.
    for (ShardScan &scan : shards) {
        result.clauseOffsets.insert(result.clauseOffsets.end(),
                                    scan.clauseOffsets.begin(),
                                    scan.clauseOffsets.end());
        result.ordinals.insert(result.ordinals.end(),
                               scan.ordinals.begin(),
                               scan.ordinals.end());
        result.entriesScanned += scan.entriesScanned;
        result.bytesScanned += scan.bytesScanned;
        word_ops += scan.wordOps;
    }
    // Sum bytes across shards first, then convert once, rounding to
    // the nearest tick: truncating the cast undercounted by up to one
    // tick per conversion, compounding across sharded sub-scans.
    // scanRange() derives each shard's span from the same cumulative
    // conversion, so the per-shard span ticks sum to exactly this.
    result.busyTime = busyTicks(result.bytesScanned);

    // One metrics update per search, not per shard: workers
    // accumulate into their ShardScan and the merge folds the totals
    // into the registry, which aggregates across the pipeline.
    if (obs.metrics != nullptr) {
        ++obs.metrics->counter(kSearches);
        obs.metrics->counter(kEntriesScanned) += result.entriesScanned;
        obs.metrics->counter(kHits) += result.ordinals.size();
        obs.metrics->counter(kBytesScanned) += result.bytesScanned;
        obs.metrics->counter(kWordOps) += word_ops;
    }
    return result;
}

Fs1Result
Fs1Engine::search(const scw::SecondaryFile &index,
                  const scw::BitSlicedIndex *sliced,
                  const scw::Signature &query,
                  support::ThreadPool *pool, std::uint32_t shards,
                  const obs::Observer &obs, obs::SpanId parent) const
{
    requireFullPlane(index, sliced);
    std::vector<scw::EntryRange> ranges;
    if (pool != nullptr && pool->threadCount() > 0 && shards > 1)
        ranges = index.shardRanges(shards);
    if (ranges.size() <= 1)
        ranges.assign(1, scw::EntryRange{0, index.entryCount()});

    obs::ScopedSpan span(obs.tracer, "fs1.scan", parent);
    std::vector<ShardScan> scans(ranges.size());
    // Cumulative byte offsets of each shard, for the telescoping
    // span-tick conversion (shards are contiguous and ordered).
    std::vector<std::uint64_t> prefix(ranges.size(), 0);
    for (std::size_t s = 1; s < ranges.size(); ++s)
        prefix[s] = prefix[s - 1] + index.rangeBytes(ranges[s - 1]);
    auto scanShard = [&](std::size_t s) {
        scans[s] = scanRange(*sliced, index.entryBytes(), query,
                             ranges[s], prefix[s], obs, span.id());
    };
    if (ranges.size() == 1)
        scanShard(0);
    else
        pool->parallelFor(ranges.size(), scanShard);
    Fs1Result result = merge(std::move(scans), obs);
    if (span.active()) {
        span.attr("shards", static_cast<std::uint64_t>(result.shards));
        span.attr("hits",
                  static_cast<std::uint64_t>(result.ordinals.size()));
        span.setSimTicks(result.busyTime);
    }
    return result;
}

Fs1Result
Fs1Engine::search(const scw::SecondaryFile &index,
                  const scw::BitSlicedIndex *sliced,
                  const scw::BitSlicedIndex *delta,
                  std::size_t base_entries,
                  const scw::Signature &query,
                  support::ThreadPool *pool, std::uint32_t shards,
                  const obs::Observer &obs, obs::SpanId parent) const
{
    if (delta == nullptr)
        return search(index, sliced, query, pool, shards, obs, parent);
    clare_assert((base_entries == 0 ||
                  (sliced != nullptr &&
                   sliced->entryCount() == base_entries)) &&
                     base_entries + delta->entryCount() ==
                         index.entryCount(),
                 "FS1 base plane (%zu entries) + delta plane (%zu) do "
                 "not tile %zu index entries",
                 base_entries, delta->entryCount(), index.entryCount());

    obs::ScopedSpan span(obs.tracer, "fs1.scan", parent);
    std::vector<ShardScan> scans;
    if (base_entries > 0)
        scans.push_back(scanRange(*sliced, index.entryBytes(), query,
                                  scw::EntryRange{0, base_entries}, 0,
                                  obs, span.id()));
    scans.push_back(scanRange(*delta, index.entryBytes(), query,
                              scw::EntryRange{0, delta->entryCount()},
                              base_entries * index.entryBytes(), obs,
                              span.id()));
    // merge() sums bytesScanned across both parts before the single
    // ticks conversion, so the split's busyTime matches the one-plane
    // scan of the composite file to the tick.
    Fs1Result result = merge(std::move(scans), obs);
    if (span.active()) {
        span.attr("shards", static_cast<std::uint64_t>(result.shards));
        span.attr("hits",
                  static_cast<std::uint64_t>(result.ordinals.size()));
        span.attr("delta_entries", static_cast<std::uint64_t>(
                      delta->entryCount()));
        span.setSimTicks(result.busyTime);
    }
    return result;
}

} // namespace clare::fs1
