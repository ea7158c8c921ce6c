/**
 * @file
 * Parameterized model of the disks CLARE streams clauses from.
 *
 * The paper's target platform is a SUN3/160 with either a SCSI disk
 * (e.g. Micropolis 1325) or a faster SMD disk (e.g. Fujitsu M2351A,
 * peak transfer circa 2 Mbytes/s).  The evaluation argument rests on
 * the sustained transfer rate — the filters must keep up with it — and
 * on the one-track worst case used to size the Result Memory, so the
 * model captures transfer rate, track geometry, and average access
 * time, and delivers data in DMA chunks with timestamps.
 */

#ifndef CLARE_STORAGE_DISK_MODEL_HH
#define CLARE_STORAGE_DISK_MODEL_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>

#include "support/fault_injector.hh"
#include "support/lru.hh"
#include "support/obs.hh"
#include "support/sim_time.hh"

namespace clare::storage {

/**
 * Chunk re-reads after transient errors; counted here and by the
 * CRS's clause-data recovery, which retries the same reads.
 */
extern const obs::CounterDef kRetryAttempts;

/**
 * Bounded retry of transient device errors.  Each retry re-positions
 * the head, so it costs a full accessTime(); a chunk that fails every
 * attempt is a permanent failure (IoError).
 */
struct RetryPolicy
{
    std::uint32_t maxAttempts = 3;
};

/** Static description of a disk. */
struct DiskGeometry
{
    std::string name;
    std::uint32_t bytesPerSector = 512;
    std::uint32_t sectorsPerTrack = 64;     ///< 32 KB tracks by default
    std::uint32_t rpm = 3600;
    Tick averageSeek = 20 * kMillisecond;
    /** Sustained transfer rate in bytes per second. */
    double transferRate = 2.0e6;

    std::uint32_t
    trackBytes() const
    {
        return bytesPerSector * sectorsPerTrack;
    }

    /** SCSI disk option of the SUN3/160 (slower transfer). */
    static DiskGeometry micropolis1325();

    /** SMD disk option, tuned to its ~2 MB/s peak rate. */
    static DiskGeometry fujitsuM2351A();
};

/**
 * L1 of the retrieval cache hierarchy: an LRU track buffer in front
 * of the disk model.  A read whose tracks are all resident skips the
 * seek + rotational latency entirely and transfers at @ref cacheRate
 * (a memory-speed copy); a miss pays the usual access + stream and
 * then fills the touched tracks.  Fault injection applies to fills
 * only — a cached hit re-reads bytes that were already delivered and
 * CRC-verified once — and a fill that delivered corrupted bytes is
 * never admitted.
 */
struct DiskCacheConfig
{
    /** Capacity in tracks of the owning DiskGeometry; 0 disables. */
    std::uint32_t capacityTracks = 0;
    /** Hit transfer rate in bytes per second (memory-speed copy). */
    double cacheRate = 200.0e6;
};

/** Modeled timing of one read, cache-aware (see DiskModel::modelRead). */
struct ReadTiming
{
    Tick access = 0;    ///< seek + rotation (0 on a cache hit)
    Tick transfer = 0;  ///< at the disk or cache rate
    bool cacheHit = false;

    Tick total() const { return access + transfer; }
};

/**
 * The timing of a disk, streamed in DMA chunks.
 *
 * The model is deliberately simple: an access (seek + half rotation)
 * positions the head, then bytes arrive at the sustained transfer
 * rate.  Chunk delivery times are exact fractions of the rate so that
 * filter-vs-disk rate comparisons are faithful.
 *
 * The model holds no bytes.  A store places its images at offsets on
 * the disk and keeps the images themselves; stream() borrows the
 * bytes it delivers from its caller.
 */
class DiskModel
{
  public:
    explicit DiskModel(DiskGeometry geometry);

    // Movable despite the cache mutex (stores are returned by value
    // from loaders); the mutex itself is freshly constructed and the
    // source is locked while its cache state is taken.
    DiskModel(DiskModel &&other) noexcept;
    DiskModel &operator=(DiskModel &&other) noexcept;

    const DiskGeometry &geometry() const { return geometry_; }

    /** Average positioning time: seek plus half a rotation. */
    Tick accessTime() const;

    /** Pure transfer time for a byte count at the sustained rate. */
    Tick transferTime(std::uint64_t bytes) const;

    /**
     * Enable (capacityTracks > 0) or disable (== 0) the LRU track
     * cache.  Reconfiguring drops all resident tracks.
     */
    void configureCache(DiskCacheConfig config);

    const DiskCacheConfig &cacheConfig() const { return cacheConfig_; }

    /** Tracks currently resident in the cache. */
    std::size_t cachedTracks() const;

    /**
     * Drop every resident track (e.g. after a store reload).  Const
     * like the read paths: only the mutable cache state changes.
     */
    void dropCache() const;

    /**
     * Analytic cache-aware read model, used by the CRS in place of
     * accessTime() + transferTime() for index streams and candidate
     * fetches.  A hit (every touched track resident) returns zero
     * access and a cacheRate transfer; a miss returns the usual disk
     * timing and admits the touched tracks (unless the range exceeds
     * the whole capacity — a scan that large would only flush the
     * cache without ever hitting).  With the cache disabled this is
     * exactly {accessTime(), transferTime(length), false} and touches
     * no counters, so clean runs stay bit-identical.
     *
     * Thread-safe; the LRU update is deterministic in call order.
     *
     * @param obs optional metrics sink: disk.cache.hit / miss / evict
     *        counters, created lazily only when the cache is enabled
     */
    ReadTiming modelRead(std::uint64_t offset, std::uint64_t length,
                         const obs::Observer &obs = {}) const;

    /**
     * Stream a byte range as DMA chunks.
     *
     * @param image the bytes the disk holds, from position 0; the
     *        caller owns them and the model keeps no copy
     * @param offset,length range within the image
     * @param chunk_bytes DMA chunk size (e.g. one Double Buffer bank)
     * @param start simulated time the command is issued
     * @param sink called per chunk with (data pointer, size,
     *        delivery-complete time); delivery times include the
     *        initial access time
     * @param obs optional sinks: a "disk.stream" span (simTicks = the
     *        modeled access + transfer time) and counters
     *        disk.streams / disk.bytes_streamed / disk.chunks (plus
     *        disk.retry.* when faults force re-reads)
     * @param parent span the "disk.stream" span nests under
     * @param faults optional fault oracle; transient errors force a
     *        bounded re-read (each costing a re-seek that shows in the
     *        delivery times), corrupt chunks are delivered from a
     *        scratch copy with the deterministic bit flipped, delayed
     *        chunks shift the rest of the stream
     * @param retry bound on the re-read attempts per chunk
     * @param site fault-oracle channel name the chunk keys live in
     * @return the time the final chunk completes (= start + access +
     *         transfer of all bytes + fault penalties), or start for
     *         an empty range
     * @throws IoError when a chunk fails every bounded attempt
     */
    Tick stream(std::span<const std::uint8_t> image,
                std::uint64_t offset, std::uint64_t length,
                std::uint32_t chunk_bytes, Tick start,
                const std::function<void(const std::uint8_t *,
                                         std::uint32_t, Tick)> &sink,
                const obs::Observer &obs = {},
                obs::SpanId parent = 0,
                const support::FaultInjector *faults = nullptr,
                RetryPolicy retry = {},
                std::string_view site = "disk.data") const;

  private:
    DiskGeometry geometry_;

    /**
     * L1 track cache.  Mutable behind a mutex: reads are logically
     * const (the server holds the store by const reference) but warm
     * the cache as a real track buffer would.  Keys are track
     * numbers; the value is unused.
     */
    DiskCacheConfig cacheConfig_;
    mutable std::mutex cacheMutex_;
    mutable support::LruCache<std::uint64_t, char> cache_;

    /** Hit test + LRU admission for a byte range; counts hit/miss. */
    bool cacheLookup(std::uint64_t offset, std::uint64_t length,
                     const obs::Observer &obs) const;

    /** Admit a cleanly-read range's tracks (fill path). */
    void cacheFill(std::uint64_t offset, std::uint64_t length,
                   const obs::Observer &obs) const;

    /** Hit-path transfer time at the memory-speed cache rate. */
    Tick cacheTransferTime(std::uint64_t bytes) const;
};

} // namespace clare::storage

#endif // CLARE_STORAGE_DISK_MODEL_HH
