/**
 * @file
 * Disk-resident predicate storage managed by the CRS: per predicate, a
 * compiled clause file plus its secondary (codeword) file, laid out on
 * a modeled disk.
 */

#ifndef CLARE_CRS_STORE_HH
#define CLARE_CRS_STORE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "scw/bit_sliced_index.hh"
#include "scw/codeword.hh"
#include "scw/index_file.hh"
#include "storage/clause_file.hh"
#include "storage/disk_model.hh"
#include "support/arena.hh"
#include "term/cell_image.hh"
#include "term/clause.hh"
#include "term/symbol_table.hh"
#include "term/term_writer.hh"
#include "unify/bindings.hh"

namespace clare::crs {

/**
 * Decoded clause heads of one predicate version, for host
 * unification.  A head is parsed from its stored source text at most
 * once, the first time it becomes a candidate, and kept as a flat
 * term cell image; every later candidate decodes those cells straight
 * into the request's scratch arena.  MVCC versions are immutable, so
 * a slot is never invalidated: it dies with its version.
 *
 * Readers take a published slot lock-free with an acquire load.  A
 * fill parses outside the lock and publishes under the per-version
 * mutex, so racing fills of one ordinal keep exactly one image.
 */
class DecodedHeads
{
  public:
    /**
     * The cell image of the head of clause @p ordinal of @p file,
     * parsed (interning through @p symbols) on first touch.
     * @param decoded set to true iff this call parsed and published
     *        the head
     */
    const term::Cell *head(const storage::ClauseFile &file,
                           std::uint32_t ordinal,
                           term::SymbolTable &symbols, bool &decoded);

  private:
    using Slot = std::atomic<const term::Cell *>;

    std::mutex fillMutex_;
    /** One slot per ordinal, allocated by the first fill. */
    std::unique_ptr<Slot[]> slotStore_;
    /** slotStore_ as published to lock-free readers. */
    std::atomic<Slot *> slots_{nullptr};
    /** Append-only cell storage; never reset, so images stay put. */
    support::Arena cells_{64 * 1024};
};

struct StoredPredicate;

/**
 * Host full unification of one goal against the decoded heads of one
 * predicate version: the question unify::wouldUnify() asks of a
 * freshly parsed clause, without re-reading source text.  One scratch
 * arena and binding store serve every clause tested: each test
 * rewinds the arena, imports the goal, decodes the head standardized
 * apart past the goal's variables, unifies, and undoes the bindings.
 */
class HeadUnifier
{
  public:
    HeadUnifier(const StoredPredicate &stored, term::SymbolTable &symbols,
                const term::TermArena &q_arena, term::TermRef goal);

    /** Does the head of clause @p ordinal unify with the goal? */
    bool unifies(std::uint32_t ordinal);

    /** Heads this unifier parsed on first touch. */
    std::uint64_t decoded() const { return decoded_; }

  private:
    const StoredPredicate &stored_;
    term::SymbolTable &symbols_;
    const term::TermArena &qArena_;
    term::TermRef goal_;
    term::TermArena scratch_;
    unify::Bindings bindings_;
    std::uint64_t decoded_ = 0;
};

/** One predicate's on-disk artifacts. */
struct StoredPredicate
{
    storage::ClauseFile clauses;
    scw::SecondaryFile index;
    std::uint64_t clauseFileOffset = 0; ///< placement on the data disk
    std::uint64_t indexFileOffset = 0;  ///< placement on the index disk

    /** Fraction of clauses that are rules (body-carrying). */
    double ruleFraction = 0.0;

    /**
     * CRC-32 of each 4 KB page of the secondary file image, computed
     * at finalize().  The CRS verifies delivered index pages against
     * these so a corrupted index degrades the query to a full scan
     * instead of matching garbage codewords.
     */
    std::vector<std::uint32_t> indexPageCrcs;

    /**
     * Transposed (bit-sliced) plane of the secondary file, which the
     * FS1 engine scans.  Never null: it covers the whole index, or
     * entries [0, baseEntries) of a live composite version whose tail
     * `deltaSliced` covers.  Shared so cached IndexScans and
     * concurrent workers can hold it without copying.
     */
    std::shared_ptr<const scw::BitSlicedIndex> sliced;

    /**
     * MVCC generation this version was published at.  0 = the
     * immutable load-time base; live commits publish versions stamped
     * with monotonically increasing generations.
     */
    std::uint64_t generation = 0;

    /**
     * Entries of `index` covered by the base `sliced` plane.  A live
     * assertz commit concatenates new clauses onto the base images
     * without rebuilding the (large) base plane; the tail
     * [baseEntries, entryCount) is covered by `deltaSliced` instead.
     * Meaningful only when `deltaSliced` is set; otherwise `sliced`
     * covers the whole index.
     */
    std::size_t baseEntries = 0;

    /**
     * LSM-flavored delta mini-plane over the index tail appended since
     * the base plane was built.  Rebuilt O(delta) at each commit;
     * folded into a fresh full plane at checkpoint.  Null when the
     * version carries no un-sliced tail.
     */
    std::shared_ptr<const scw::BitSlicedIndex> deltaSliced;

    /**
     * Host-side decoded heads of `clauses`.  Filled lazily through a
     * const version (the pointer is const, the cache is not); owned
     * by this version alone, so a new version starts empty.
     */
    std::unique_ptr<DecodedHeads> heads =
        std::make_unique<DecodedHeads>();
};

/**
 * The predicate store: builds clause and secondary files from parsed
 * programs and lays them out on a pair of modeled disks (data and
 * index regions of one spindle in the real system; two images here
 * for clarity of accounting).
 */
class PredicateStore
{
  public:
    PredicateStore(const term::SymbolTable &symbols,
                   scw::CodewordGenerator generator,
                   storage::DiskGeometry geometry =
                       storage::DiskGeometry::fujitsuM2351A());

    /**
     * Compile and store every predicate of a program, each with its
     * bit-sliced plane.
     */
    void addProgram(const term::Program &program);

    /**
     * Insert an already-compiled predicate (the store-loading path);
     * the rule fraction is re-derived from the record flags.
     * @param sliced pre-built bit-sliced plane (e.g. deserialized from
     *        a v3 store), or null to transpose @p index here (index
     *        format v2 carries no plane)
     */
    void addStored(const term::PredicateId &pred,
                   storage::ClauseFile clauses,
                   scw::SecondaryFile index,
                   std::shared_ptr<const scw::BitSlicedIndex> sliced =
                       nullptr);

    /**
     * Finish layout: place every predicate's clause and index images
     * end to end on the data and index disks (clauseFileOffset,
     * indexFileOffset).  No bytes are copied; the disks model timing
     * only.
     */
    void finalize();

    bool has(const term::PredicateId &pred) const;

    /**
     * The head (newest) version of @p pred.  The reference stays valid
     * for the store's lifetime only for generation-0 predicates; under
     * live updates prefer predicateVersion(), which pins the version
     * with shared ownership.
     */
    const StoredPredicate &predicate(const term::PredicateId &pred) const;

    /**
     * Pin one MVCC version of @p pred: the newest version whose
     * generation is <= @p generation (or the head when omitted).
     * Returns null when the predicate does not exist, or existed only
     * after the requested generation.  The returned pointer keeps the
     * version (and its images) alive regardless of later commits, so
     * readers never block on or observe an in-flight writer.
     */
    std::shared_ptr<const StoredPredicate>
    predicateVersion(const term::PredicateId &pred,
                     std::optional<std::uint64_t> generation = {}) const;

    /** Generation of the newest published commit (0 = load-time). */
    std::uint64_t headGeneration() const;

    /**
     * Publish new versions of the given predicates as one atomic
     * commit.  Stamps every version with the new generation, appends
     * it to the version chains, and registers predicates not seen
     * before.  Readers pinned to older generations are unaffected.
     * @return the generation the versions were published at
     */
    std::uint64_t publish(
        std::map<term::PredicateId,
                 std::shared_ptr<StoredPredicate>> versions);

    const std::vector<term::PredicateId> &predicates() const
    {
        return order_;
    }

    const storage::DiskModel &dataDisk() const { return dataDisk_; }
    const storage::DiskModel &indexDisk() const { return indexDisk_; }
    const scw::CodewordGenerator &generator() const { return generator_; }

    /**
     * Configure the L1 track caches of both modeled disks (the store
     * owns the disks; the server only holds a const reference).  The
     * default-constructed config disables them, which is the seed
     * behaviour.
     */
    void configureDiskCaches(const storage::DiskCacheConfig &config)
    {
        dataDisk_.configureCache(config);
        indexDisk_.configureCache(config);
    }

    /** Drop all resident tracks, e.g. after reloading the images. */
    void dropDiskCaches() const
    {
        dataDisk_.dropCache();
        indexDisk_.dropCache();
    }

    /** Total bytes of clause data stored. */
    std::uint64_t dataBytes() const;
    /** Total bytes of index data stored. */
    std::uint64_t indexBytes() const;

  private:
    const term::SymbolTable &symbols_;
    scw::CodewordGenerator generator_;
    term::TermWriter writer_;
    storage::DiskModel dataDisk_;
    storage::DiskModel indexDisk_;
    std::map<term::PredicateId, StoredPredicate> preds_;

    /**
     * Predicate enumeration order.  Only publish() of a *new*
     * predicate appends here (under mvccMutex_); concurrent readers
     * iterating predicates() while a writer introduces a brand-new
     * predicate is the one enumeration hazard — the serving tier
     * resolves predicates by id, never by enumeration, on the hot
     * path.
     */
    std::vector<term::PredicateId> order_;
    bool finalized_ = false;

    /**
     * MVCC version chains, newest last, each entry (generation,
     * version).  Generation-0 versions live in preds_ (keeping every
     * pre-existing accessor valid); chains only exist for predicates
     * touched by a live commit.  Guarded by mvccMutex_ (unique_ptr so
     * the store stays movable before serving starts).
     */
    std::unique_ptr<std::shared_mutex> mvccMutex_;
    std::uint64_t headGeneration_ = 0;
    std::map<term::PredicateId,
             std::vector<std::pair<std::uint64_t,
                                   std::shared_ptr<const StoredPredicate>>>>
        versions_;
};

} // namespace clare::crs

#endif // CLARE_CRS_STORE_HH
