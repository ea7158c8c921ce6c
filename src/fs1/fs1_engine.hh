/**
 * @file
 * The first stage filter (FS1): hardware index scanning over the
 * secondary file using superimposed codewords plus mask bits.
 *
 * The prototype described in the paper searches at up to 4.5 Mbyte/s
 * using PLAs and MSI parts.  This model applies the SCW+MB match rule
 * to every index entry streamed past it and collects the clause
 * addresses of the matches; its busy time is the scanned byte count
 * divided by the scan rate.  The caller (the Clause Retrieval Server)
 * combines that busy time with the disk streaming time — the engine
 * can only be as fast as the disk feeds it.
 *
 * The host evaluates the rule word-parallel over the bit-sliced plane
 * of the secondary file (SlicedMatcher, widest supported kernel); the
 * plane is part of every stored predicate.  The row-major entry scan
 * and the structural PLA model the plane replaced live in the
 * clare_oracle library, which the equivalence tests compare this
 * engine against in survivors and modeled time.
 *
 * The scan can be sharded: the secondary file is split into contiguous
 * entry ranges that are matched concurrently on a worker pool, and the
 * per-shard hit lists are concatenated in shard order so the merged
 * result is bit-identical to the sequential scan.  Counters accumulate
 * per worker and fold into the observer's metrics registry once at
 * merge time.  One engine may be shared by several threads: search()
 * is const and the registry's counters are atomic.
 */

#ifndef CLARE_FS1_FS1_ENGINE_HH
#define CLARE_FS1_FS1_ENGINE_HH

#include <cstdint>
#include <vector>

#include "scw/bit_sliced_index.hh"
#include "scw/codeword.hh"
#include "scw/index_file.hh"
#include "support/obs.hh"
#include "support/sim_time.hh"
#include "support/thread_pool.hh"

namespace clare::fs1 {

/** FS1 configuration. */
struct Fs1Config
{
    /** Hardware scan rate in bytes per second (paper: 4.5 MB/s). */
    double scanRate = 4.5e6;

    /**
     * When > 0, each scan shard *sleeps* its modeled device busy time
     * divided by this factor (paced replay): the engine behaves like
     * the real FS1 hardware the host waits on rather than computes.
     * Sharded scans then overlap device waits, which
     * yields genuine wall-clock speedup even on a single host core.
     * Simulated Ticks are unaffected.  0 (default) disables pacing.
     */
    double paceScale = 0.0;
};

/** Outcome of one FS1 index scan. */
struct Fs1Result
{
    /** Clause-file offsets of the matching clauses, in file order. */
    std::vector<std::uint32_t> clauseOffsets;
    /** Clause ordinals of the matching clauses, in file order. */
    std::vector<std::uint32_t> ordinals;

    std::uint64_t entriesScanned = 0;
    std::uint64_t bytesScanned = 0;
    /** Shards the scan was split into (1 = sequential). */
    std::uint32_t shards = 1;
    /**
     * Pure hardware time (bytes / scan rate), rounded to the nearest
     * tick.  For a sharded scan the per-shard byte counts are summed
     * *before* conversion, so the total never loses a sub-tick
     * fraction per shard.
     */
    Tick busyTime = 0;
};

/** The FS1 codeword-matching engine. */
class Fs1Engine
{
  public:
    explicit Fs1Engine(scw::CodewordGenerator generator,
                       Fs1Config config = {});

    const Fs1Config &config() const { return config_; }
    const scw::CodewordGenerator &generator() const { return generator_; }

    /**
     * Scan a secondary file against a query signature through its
     * bit-sliced plane, split into @p shards contiguous ranges matched
     * on @p pool (the calling thread participates).  Per-shard hits
     * concatenate in shard order, so the result is bit-identical at
     * every shard count.
     *
     * @param sliced the plane of @p index; it must cover every entry
     * @param pool worker pool; null or a 0-thread pool scans
     *        sequentially
     * @param shards desired shard count; clamped to the entry count
     * @param obs optional tracer/metrics sinks; a "fs1.scan" span
     *        wraps the search with one "fs1.shard" child per shard,
     *        and counters fs1.searches / fs1.entries_scanned /
     *        fs1.hits / fs1.bytes_scanned accumulate in the registry
     * @param parent span the "fs1.scan" span nests under (0 = root)
     */
    Fs1Result search(const scw::SecondaryFile &index,
                     const scw::BitSlicedIndex *sliced,
                     const scw::Signature &query,
                     support::ThreadPool *pool, std::uint32_t shards,
                     const obs::Observer &obs = {},
                     obs::SpanId parent = 0) const;

    /**
     * Scan a live (base + delta) predicate version: the base plane
     * covers entries [0, base_entries) of @p index and the delta
     * mini-plane covers the appended tail [base_entries, entryCount)
     * — the delta plane's entries carry composite ordinals and clause
     * offsets, so concatenating base hits then delta hits reproduces
     * the sequential order over the composite file exactly.
     * bytesScanned sums both parts before the one ticks conversion,
     * so busyTime is bit-identical to scanning a freshly rebuilt full
     * plane.
     *
     * With @p delta null this is the one-plane search() above (and
     * @p base_entries is ignored); otherwise the two planes must tile
     * the file.
     */
    Fs1Result search(const scw::SecondaryFile &index,
                     const scw::BitSlicedIndex *sliced,
                     const scw::BitSlicedIndex *delta,
                     std::size_t base_entries,
                     const scw::Signature &query,
                     support::ThreadPool *pool, std::uint32_t shards,
                     const obs::Observer &obs = {},
                     obs::SpanId parent = 0) const;

  private:
    /** Hits and counters of one shard, merged in shard order. */
    struct ShardScan
    {
        std::vector<std::uint32_t> clauseOffsets;
        std::vector<std::uint32_t> ordinals;
        std::uint64_t entriesScanned = 0;
        std::uint64_t bytesScanned = 0;
        /** 64-bit plane operations. */
        std::uint64_t wordOps = 0;
    };

    /**
     * Match @p range of @p plane, whose entries are stored @p entry_bytes
     * apiece in the modeled secondary file.
     *
     * @param prefix_bytes bytes scanned by the shards before this one,
     *        so the shard's span ticks can be computed as a difference
     *        of cumulative conversions (see busyTicks()) and per-shard
     *        span totals telescope exactly to the merged busyTime
     */
    ShardScan scanRange(const scw::BitSlicedIndex &plane,
                        std::size_t entry_bytes,
                        const scw::Signature &query,
                        const scw::EntryRange &range,
                        std::uint64_t prefix_bytes,
                        const obs::Observer &obs,
                        obs::SpanId parent) const;

    /** Cumulative bytes-to-ticks conversion shared by spans + merge. */
    Tick busyTicks(std::uint64_t bytes) const;

    /** Sleep @p bytes of modeled device time when pacing is on. */
    void pace(std::uint64_t bytes) const;

    Fs1Result merge(std::vector<ShardScan> shards,
                    const obs::Observer &obs) const;

    scw::CodewordGenerator generator_;
    Fs1Config config_;
};

} // namespace clare::fs1

#endif // CLARE_FS1_FS1_ENGINE_HH
