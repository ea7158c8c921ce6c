/**
 * @file
 * L3 of the retrieval cache hierarchy: a bounded goal-result cache in
 * the Clause Retrieval Server.
 *
 * Entries are keyed by the goal's canonical (variable-renaming-
 * invariant) key plus the resolved search mode — the same goal served
 * in two modes produces different candidate sets, so the mode is part
 * of the identity.  The stored value is the *hit-shaped*
 * RetrievalResponse (candidates, answers, and every filter statistic
 * verbatim; breakdown reduced to the modeled cache lookup cost the
 * server charges on a hit) plus a pre-encoded wire blob of that same
 * response (response_blob.hh) baked once at admission.
 *
 * A lookup hands back a shared_ptr to the immutable entry: nothing is
 * copied under the cache mutex, concurrent hits share the same
 * storage, and an entry evicted or invalidated mid-flight stays alive
 * until its last reader drops the pointer.
 *
 * Invalidation is per-predicate (through crs::Transaction commit via
 * the CacheInvalidationSink) or wholesale (store reload).  Degraded,
 * overflowed, or fault-touched responses are never admitted — the
 * server filters those before calling put().
 *
 * All access is mutex-guarded: the cache is shared across
 * serveBatch() workers and concurrent serve() callers.
 */

#ifndef CLARE_CRS_GOAL_CACHE_HH
#define CLARE_CRS_GOAL_CACHE_HH

#include <memory>
#include <mutex>
#include <string>

#include "crs/api.hh"
#include "support/lru.hh"
#include "term/clause.hh"

namespace clare::crs {

/** Canonical-goal+mode → RetrievalResponse cache (LRU-bounded). */
class GoalCache
{
  public:
    /** One immutable cached result, shared with in-flight readers. */
    struct Entry
    {
        term::PredicateId pred;
        /** Hit-shaped response (replayBlob deliberately empty). */
        RetrievalResponse response;
        /** response encoded with request id 0, sendable verbatim. */
        std::shared_ptr<const std::vector<std::uint8_t>> blob;
    };

    explicit GoalCache(std::size_t capacity);

    /**
     * Look up and promote.  Only the shared_ptr is copied under the
     * lock; the payload vectors are never touched.  Null on miss.
     */
    std::shared_ptr<const Entry> find(const std::string &key);

    /**
     * Admit a hit-shaped response under @p key, remembering @p pred
     * for per-predicate invalidation.  The wire blob is baked here
     * (outside the lock) so every entry carries one.  Returns true
     * when the insertion evicted the least-recent entry.
     */
    bool put(const std::string &key, const term::PredicateId &pred,
             RetrievalResponse response);

    /** Drop every entry of @p pred; returns the number removed. */
    std::size_t invalidatePredicate(const term::PredicateId &pred);

    std::size_t size() const;

    void clear();

  private:
    mutable std::mutex mutex_;
    support::LruCache<std::string, std::shared_ptr<const Entry>> cache_;
};

} // namespace clare::crs

#endif // CLARE_CRS_GOAL_CACHE_HH
