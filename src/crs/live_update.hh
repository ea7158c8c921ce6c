/**
 * @file
 * Live (online) updates of the compiled predicate store: WAL-backed
 * crash-recoverable assert/retract with MVCC snapshot publication.
 *
 * The PDBM store was built once and immutable; the paper lists
 * "transaction handling" for the CRS as ongoing work.  This module
 * supplies it:
 *
 *  - Durability: every update transaction appends its operation
 *    records plus one Commit record to a storage::Wal and syncs
 *    *before* the in-memory store publishes anything (write-ahead
 *    discipline).  A crash at any byte therefore recovers to exactly
 *    the last complete commit.
 *
 *  - Visibility: a commit builds fresh StoredPredicate versions for
 *    the touched predicates and publishes them atomically through
 *    PredicateStore::publish().  Readers pin a version (optionally a
 *    historical generation via RetrievalRequest::snapshot) and never
 *    block on or observe an in-flight writer.
 *
 *  - Index maintenance: an assertz-only commit appends to the
 *    predicate's images — composite clause/index files byte-identical
 *    to a from-scratch rebuild — and transposes only the appended
 *    tail into an LSM-flavored delta mini-plane (the base bit-sliced
 *    plane is shared untouched across commits).  asserta/retract
 *    trigger a per-predicate minor compaction: the predicate is
 *    rebuilt from its evolving source-text list, which is exactly the
 *    LSM tombstone-merge rule with a level count of one.  Either way
 *    the scan results (survivor order AND modeled Ticks) are
 *    bit-identical to a full rebuild.
 *
 * Writers are serialized by an internal mutex (single-writer,
 * many-reader); begin() holds it until commit()/abort() so retract
 * resolution and the WAL append happen against one consistent state.
 */

#ifndef CLARE_CRS_LIVE_UPDATE_HH
#define CLARE_CRS_LIVE_UPDATE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "crs/store.hh"
#include "crs/transaction.hh"
#include "storage/wal.hh"
#include "term/symbol_table.hh"
#include "term/term_writer.hh"

namespace clare::crs {

/**
 * One buffered update operation.  Clause *source text* is the replay
 * currency: the live commit path and WAL recovery both parse the same
 * text through the same reader, so the store states they produce are
 * bit-identical by construction.
 */
struct LiveOp
{
    enum class Kind : std::uint8_t
    {
        Assertz,    ///< append at the predicate's end
        Asserta,    ///< prepend (compaction at commit)
        Retract,    ///< remove one clause by evolving-list position
    };

    Kind kind = Kind::Assertz;
    term::PredicateId pred;
    std::string text;           ///< clause source (assert ops)
    /**
     * Retract target: the clause's position in the predicate's
     * *evolving* source-text list — head store state with this
     * transaction's earlier ops applied — at the op's sequence point.
     * Replay applies ops in order over the same evolving list, so the
     * position identifies the same clause on both paths.
     */
    std::uint32_t ordinal = 0;
};

/** The live-update front end over a compiled PredicateStore. */
class LiveStore
{
  public:
    /**
     * Attach live updates to @p store, opening (or creating) the WAL
     * at @p wal_path and replaying any committed records with LSN at
     * or above @p applied_lsn (the checkpoint watermark from the
     * store manifest; 0 for a store that never checkpointed).
     *
     * @param faults optional kill-point oracle threaded into the WAL
     *        and checkpoint writer (crash fuzzing)
     */
    LiveStore(PredicateStore &store, term::SymbolTable &symbols,
              const std::string &wal_path,
              std::uint64_t applied_lsn = 0,
              const support::FaultInjector *faults = nullptr);

    /**
     * Route commit-time invalidations to @p sink (the retrieval
     * server): after publish, every touched predicate's derived cache
     * state is dropped — never a wholesale invalidateCaches().
     */
    void attachSink(CacheInvalidationSink *sink) { sink_ = sink; }

    /** One pending update transaction (holds the writer lock). */
    class Update
    {
      public:
        Update(Update &&) = default;
        ~Update();

        /** Append a clause at the end of its predicate. */
        void assertz(const term::Clause &clause);
        /** Prepend a clause (forces a compaction at commit). */
        void asserta(const term::Clause &clause);

        /**
         * Retract the first clause matching @p pattern — a head term
         * (matches facts) or ':-'(Head, Body) — resolved against the
         * head store state plus this transaction's earlier ops.
         * @return true when a clause matched (and will be removed)
         */
        bool retract(const term::TermArena &arena,
                     term::TermRef pattern);

        /**
         * Make the transaction durable (WAL append + sync), apply it,
         * and publish one new MVCC generation.  An empty transaction
         * writes nothing.  @return the published (or current)
         * generation
         * @throws CrashError at an armed kill point — nothing was
         *         published; recovery replays to the pre-commit state
         */
        std::uint64_t commit();

        /** Drop the transaction; nothing was logged or published. */
        void abort();

        bool active() const { return active_; }

      private:
        friend class LiveStore;
        explicit Update(LiveStore &owner);

        /** Evolving source-text list of @p pred under this txn. */
        std::vector<std::string> &textsOf(const term::PredicateId &p);

        LiveStore *owner_;
        std::unique_lock<std::mutex> lock_;
        std::vector<LiveOp> ops_;
        std::map<term::PredicateId, std::vector<std::string>> working_;
        bool active_ = true;
    };

    /** Open a transaction (takes the writer lock until it ends). */
    Update begin();

    /** @name Single-op auto-commit conveniences */
    /// @{
    std::uint64_t assertz(const term::Clause &clause);
    std::uint64_t asserta(const term::Clause &clause);
    /** @return the generation when a clause matched, else nullopt. */
    std::optional<std::uint64_t> retract(const term::TermArena &arena,
                                         term::TermRef pattern);
    /// @}

    /**
     * Checkpoint: persist the current store under
     * `<root>/ckpt-<lsn>/`, atomically flip `<root>/CURRENT` to name
     * it (the LevelDB CURRENT discipline — the rename is the single
     * commit point), then reset the WAL to the applied watermark.  A
     * crash at any byte leaves either the old CURRENT (pre-state +
     * full WAL replay) or the new one (post-state, applied records
     * skipped) — never a third outcome.  Kill sites: "checkpoint"
     * (store + CURRENT bytes), "wal.checkpoint" (the log reset).
     */
    void checkpoint(const std::string &root);

    storage::Wal &wal() { return *wal_; }
    /** Watermark below which WAL records are already in the store. */
    std::uint64_t appliedLsn() const { return appliedLsn_; }
    /** Commit groups replayed from the WAL at construction. */
    std::size_t recoveredCommits() const { return recoveredCommits_; }
    /** Commits applied in-process (excludes recovery replay). */
    std::uint64_t commits() const { return commits_; }

  private:
    /**
     * The one apply path, shared by live commits, recovery replay,
     * and (indirectly) the oracle tests: log (unless replaying),
     * build per-predicate versions, publish, invalidate.
     */
    std::uint64_t commitOps(std::vector<LiveOp> ops, bool log);

    std::shared_ptr<StoredPredicate>
    buildComposite(const StoredPredicate &prev,
                   const std::vector<const LiveOp *> &ops);
    std::shared_ptr<StoredPredicate>
    buildCompacted(const StoredPredicate *prev,
                   const std::vector<const LiveOp *> &ops);
    void finishVersion(StoredPredicate &v,
                       const StoredPredicate *prev) const;

    /** Decode a recovered WAL record back into an op (replay path). */
    LiveOp decodeOp(const storage::Wal::Record &rec);

    PredicateStore &store_;
    term::SymbolTable &symbols_;
    term::TermWriter writer_;
    const support::FaultInjector *faults_;
    std::unique_ptr<storage::Wal> wal_;
    CacheInvalidationSink *sink_ = nullptr;

    std::mutex writerMutex_;
    std::uint64_t appliedLsn_ = 0;
    std::size_t recoveredCommits_ = 0;
    std::uint64_t commits_ = 0;
    /** Cumulative checkpoint bytes this process run (kill sweep). */
    std::uint64_t ckptCumulative_ = 0;
};

} // namespace clare::crs

#endif // CLARE_CRS_LIVE_UPDATE_HH
