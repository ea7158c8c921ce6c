#include "storage/disk_model.hh"

#include <algorithm>
#include <vector>

#include "support/errors.hh"
#include "support/logging.hh"

namespace clare::storage {

const obs::CounterDef kRetryAttempts{
    "disk.retry.attempts", "chunk re-reads after transient errors"};

namespace {

const obs::CounterDef kCacheHit{"disk.cache.hit",
                                "reads served from the track cache"};
const obs::CounterDef kCacheMiss{"disk.cache.miss",
                                 "reads that went to the platters"};
const obs::CounterDef kCacheEvict{"disk.cache.evict",
                                  "tracks evicted from the track cache"};
const obs::CounterDef kStreams{"disk.streams", "DMA stream commands"};
const obs::CounterDef kBytesStreamed{"disk.bytes_streamed",
                                     "bytes delivered by DMA streams"};
const obs::CounterDef kChunks{"disk.chunks", "DMA chunks delivered"};
const obs::CounterDef kRetryExhausted{
    "disk.retry.exhausted", "chunks unreadable after bounded retries"};
const obs::CounterDef kBitFlips{
    "disk.faults.bit_flips", "chunks delivered with an injected bit flip"};

} // namespace

DiskGeometry
DiskGeometry::micropolis1325()
{
    DiskGeometry g;
    g.name = "Micropolis 1325 (SCSI)";
    g.bytesPerSector = 512;
    g.sectorsPerTrack = 64;
    g.rpm = 3600;
    g.averageSeek = 28 * kMillisecond;
    g.transferRate = 1.0e6;     // SCSI-era sustained rate, ~1 MB/s
    return g;
}

DiskGeometry
DiskGeometry::fujitsuM2351A()
{
    DiskGeometry g;
    g.name = "Fujitsu M2351A (SMD)";
    g.bytesPerSector = 512;
    g.sectorsPerTrack = 64;
    g.rpm = 3961;
    g.averageSeek = 18 * kMillisecond;
    g.transferRate = 2.0e6;     // the paper's "circa 2 Mbytes/second"
    return g;
}

DiskModel::DiskModel(DiskGeometry geometry)
    : geometry_(std::move(geometry))
{
    clare_assert(geometry_.transferRate > 0, "transfer rate must be > 0");
}

Tick
DiskModel::accessTime() const
{
    // Half a rotation of latency on average.  Synthetic zero-rpm
    // geometries (e.g. a memory-backed feed) have no rotational
    // latency at all.
    if (geometry_.rpm == 0)
        return geometry_.averageSeek;
    double rotation_s = 60.0 / geometry_.rpm;
    Tick half_rotation = static_cast<Tick>(rotation_s / 2.0 * kSecond);
    return geometry_.averageSeek + half_rotation;
}

Tick
DiskModel::transferTime(std::uint64_t bytes) const
{
    double seconds = static_cast<double>(bytes) / geometry_.transferRate;
    return static_cast<Tick>(seconds * kSecond);
}

// ---------------------------------------------------------------------
// L1 track cache.
// ---------------------------------------------------------------------

DiskModel::DiskModel(DiskModel &&other) noexcept
    : geometry_(std::move(other.geometry_))
{
    std::lock_guard<std::mutex> lock(other.cacheMutex_);
    cacheConfig_ = other.cacheConfig_;
    cache_ = std::move(other.cache_);
}

DiskModel &
DiskModel::operator=(DiskModel &&other) noexcept
{
    if (this != &other) {
        std::scoped_lock lock(cacheMutex_, other.cacheMutex_);
        geometry_ = std::move(other.geometry_);
        cacheConfig_ = other.cacheConfig_;
        cache_ = std::move(other.cache_);
    }
    return *this;
}

void
DiskModel::configureCache(DiskCacheConfig config)
{
    clare_assert(config.capacityTracks == 0 || config.cacheRate > 0,
                 "cache hit rate must be a positive byte rate");
    std::lock_guard<std::mutex> lock(cacheMutex_);
    cacheConfig_ = config;
    cache_ = support::LruCache<std::uint64_t, char>(
        config.capacityTracks);
}

std::size_t
DiskModel::cachedTracks() const
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    return cache_.size();
}

void
DiskModel::dropCache() const
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    cache_.clear();
}

Tick
DiskModel::cacheTransferTime(std::uint64_t bytes) const
{
    double seconds = static_cast<double>(bytes) /
        cacheConfig_.cacheRate;
    return static_cast<Tick>(seconds * kSecond);
}

bool
DiskModel::cacheLookup(std::uint64_t offset, std::uint64_t length,
                       const obs::Observer &obs) const
{
    const std::uint64_t track_bytes = geometry_.trackBytes();
    std::uint64_t first = offset / track_bytes;
    std::uint64_t last = (offset + length - 1) / track_bytes;
    std::lock_guard<std::mutex> lock(cacheMutex_);
    bool hit = true;
    for (std::uint64_t t = first; t <= last && hit; ++t)
        hit = cache_.contains(t);
    if (hit) {
        // Promote the whole range: the read touched every track.
        for (std::uint64_t t = first; t <= last; ++t)
            cache_.get(t);
    }
    if (obs.metrics != nullptr)
        ++obs.metrics->counter(hit ? kCacheHit : kCacheMiss);
    return hit;
}

void
DiskModel::cacheFill(std::uint64_t offset, std::uint64_t length,
                     const obs::Observer &obs) const
{
    const std::uint64_t track_bytes = geometry_.trackBytes();
    std::uint64_t first = offset / track_bytes;
    std::uint64_t last = (offset + length - 1) / track_bytes;
    // A range wider than the whole cache would evict itself before it
    // could ever hit; leave the resident set alone (scan resistance).
    if (last - first + 1 > cacheConfig_.capacityTracks)
        return;
    std::uint64_t evictions = 0;
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        for (std::uint64_t t = first; t <= last; ++t)
            evictions += cache_.put(t, 0) ? 1 : 0;
    }
    if (evictions > 0 && obs.metrics != nullptr)
        obs.metrics->counter(kCacheEvict) += evictions;
}

ReadTiming
DiskModel::modelRead(std::uint64_t offset, std::uint64_t length,
                     const obs::Observer &obs) const
{
    ReadTiming timing;
    if (length == 0)
        return timing;
    if (cacheConfig_.capacityTracks == 0) {
        // Disabled: exactly the pre-cache timing, no counters, so the
        // default configuration stays bit-identical.
        timing.access = accessTime();
        timing.transfer = transferTime(length);
        return timing;
    }
    if (cacheLookup(offset, length, obs)) {
        timing.cacheHit = true;
        timing.transfer = cacheTransferTime(length);
        return timing;
    }
    timing.access = accessTime();
    timing.transfer = transferTime(length);
    cacheFill(offset, length, obs);
    return timing;
}

Tick
DiskModel::stream(std::span<const std::uint8_t> image,
                  std::uint64_t offset, std::uint64_t length,
                  std::uint32_t chunk_bytes, Tick start,
                  const std::function<void(const std::uint8_t *,
                                           std::uint32_t, Tick)> &sink,
                  const obs::Observer &obs, obs::SpanId parent,
                  const support::FaultInjector *faults,
                  RetryPolicy retry, std::string_view site) const
{
    clare_assert(chunk_bytes > 0, "chunk size must be positive");
    clare_assert(retry.maxAttempts >= 1,
                 "need at least one read attempt per chunk");
    if (length == 0)
        return start;
    clare_assert(offset + length <= image.size(),
                 "stream range [%llu, +%llu) exceeds image of %zu bytes",
                 static_cast<unsigned long long>(offset),
                 static_cast<unsigned long long>(length),
                 image.size());
    if (faults != nullptr && !faults->config().anyFaults())
        faults = nullptr;

    obs::ScopedSpan span(obs.tracer, "disk.stream", parent);

    if (cacheConfig_.capacityTracks > 0 &&
        cacheLookup(offset, length, obs)) {
        // Cache hit: no seek, no rotational latency, memory-speed
        // delivery — and no fault exposure, because the bytes were
        // already delivered and verified when the tracks were filled.
        Tick ready = start;
        std::uint64_t done = 0;
        std::uint64_t chunks = 0;
        while (done < length) {
            std::uint32_t n = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(chunk_bytes, length - done));
            Tick delivered = ready + cacheTransferTime(done + n);
            sink(image.data() + offset + done, n, delivered);
            done += n;
            ++chunks;
        }
        Tick end = ready + cacheTransferTime(length);
        if (span.active()) {
            span.attr("bytes", length);
            span.attr("chunks", chunks);
            span.attr("cache_hit", static_cast<std::uint64_t>(1));
            span.setSimTicks(end - start);
        }
        if (obs.metrics != nullptr) {
            ++obs.metrics->counter(kStreams);
            obs.metrics->counter(kBytesStreamed) += length;
            obs.metrics->counter(kChunks) += chunks;
        }
        return end;
    }

    // Fault penalties accumulate into the head position time, so a
    // retried or delayed chunk honestly pushes out every later chunk
    // of the stream.
    Tick ready = start + accessTime();
    std::uint64_t done = 0;
    std::uint64_t chunks = 0;
    std::uint64_t retries = 0;
    std::uint64_t flips = 0;
    std::vector<std::uint8_t> scratch;
    while (done < length) {
        std::uint32_t n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunk_bytes, length - done));
        const std::uint8_t *data = image.data() + offset + done;
        if (faults != nullptr) {
            std::uint64_t key = faults->chunkKey(offset + done);
            std::uint32_t attempt = 0;
            while (attempt < retry.maxAttempts &&
                   faults->transientError(site, key, attempt)) {
                ++attempt;
            }
            retries += attempt;
            // Each failed attempt forces a re-position before the
            // chunk can be read again.
            ready += static_cast<Tick>(attempt) * accessTime();
            if (attempt == retry.maxAttempts) {
                if (obs.metrics != nullptr) {
                    obs.metrics->counter(kRetryAttempts) += retries;
                    ++obs.metrics->counter(kRetryExhausted);
                }
                throw IoError(geometry_.name,
                              "chunk at byte " +
                              std::to_string(offset + done) +
                              " unreadable after " +
                              std::to_string(retry.maxAttempts) +
                              " attempts");
            }
            if (faults->corruptChunk(site, key)) {
                scratch.assign(data, data + n);
                faults->flipBit(site, key, scratch.data(),
                                scratch.size());
                data = scratch.data();
                ++flips;
            }
            ready += faults->chunkDelay(site, key);
        }
        // Delivery completes once all bytes of the chunk have been
        // transferred at the sustained rate.
        Tick delivered = ready + transferTime(done + n);
        sink(data, n, delivered);
        done += n;
        ++chunks;
    }
    Tick end = ready + transferTime(length);
    // Fill on the way out — but never admit a range whose delivered
    // copy was corrupted: CRC verification happens at fill time only,
    // so a poisoned track would keep serving flipped bits from then
    // on.  (The transient-retry path is fine: the eventual read is the
    // clean master image.)
    if (cacheConfig_.capacityTracks > 0 && flips == 0)
        cacheFill(offset, length, obs);
    if (span.active()) {
        span.attr("bytes", length);
        span.attr("chunks", chunks);
        if (retries > 0)
            span.attr("retries", retries);
        span.setSimTicks(end - start);
    }
    if (obs.metrics != nullptr) {
        ++obs.metrics->counter(kStreams);
        obs.metrics->counter(kBytesStreamed) += length;
        obs.metrics->counter(kChunks) += chunks;
        // Fault counters are created lazily, only on actual fault
        // events, so clean runs keep a bit-identical metrics dump.
        if (retries > 0)
            obs.metrics->counter(kRetryAttempts) += retries;
        if (flips > 0)
            obs.metrics->counter(kBitFlips) += flips;
    }
    return end;
}

} // namespace clare::storage
