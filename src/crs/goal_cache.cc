#include "crs/goal_cache.hh"

#include "crs/response_blob.hh"
#include "support/logging.hh"

namespace clare::crs {

GoalCache::GoalCache(std::size_t capacity) : cache_(capacity)
{
}

std::shared_ptr<const GoalCache::Entry>
GoalCache::find(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (std::shared_ptr<const Entry> *entry = cache_.get(key))
        return *entry;
    return nullptr;
}

bool
GoalCache::put(const std::string &key, const term::PredicateId &pred,
               RetrievalResponse response)
{
    // The stored response must not hold a blob handle of its own —
    // the entry's blob is the one authoritative encoding.
    response.replayBlob.reset();
    auto entry = std::make_shared<Entry>();
    entry->pred = pred;
    entry->response = std::move(response);
    // Bake outside the lock: encoding cost rides the miss path.
    entry->blob = bakeResponseBlob(entry->response);
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.put(key, std::shared_ptr<const Entry>(std::move(entry)));
}

std::size_t
GoalCache::invalidatePredicate(const term::PredicateId &pred)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.eraseIf(
        [&](const std::string &, const std::shared_ptr<const Entry> &entry) {
            return entry->pred == pred;
        });
}

std::size_t
GoalCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.size();
}

void
GoalCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.clear();
}

} // namespace clare::crs
