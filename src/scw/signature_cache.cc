#include "scw/signature_cache.hh"

namespace clare::scw {

namespace {

const obs::CounterDef kSigHits{
    "scw.cache.sig_hits", "query signatures served from the encode memo"};
const obs::CounterDef kSigMisses{
    "scw.cache.sig_misses", "query signatures encoded from scratch"};

} // namespace

SignatureCache::SignatureCache(std::size_t capacity) : cache_(capacity)
{
}

std::optional<Signature>
SignatureCache::find(const std::string &key, const obs::Observer &obs)
{
    std::optional<Signature> found;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (Signature *sig = cache_.get(key))
            found = *sig;
    }
    if (obs.metrics != nullptr)
        ++obs.metrics->counter(found ? kSigHits : kSigMisses);
    return found;
}

void
SignatureCache::put(const std::string &key, const Signature &signature)
{
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.put(key, signature);
}

std::size_t
SignatureCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.size();
}

void
SignatureCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.clear();
}

} // namespace clare::scw
