/**
 * @file
 * Seeded inputs of the clarebench workloads and the write path they
 * share: knowledge-base and goal generation, persistence through
 * crs::saveStore / crs::loadStore (the clare_mkstore / clare_server
 * deployment), the writer's commit plan, the closed-loop commit probe,
 * and the standalone-WAL probe.
 */

#ifndef CLAREBENCH_KB_HH
#define CLAREBENCH_KB_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "crs/live_update.hh"
#include "crs/server.hh"
#include "crs/store.hh"
#include "harness.hh"
#include "term/clause.hh"
#include "term/symbol_table.hh"
#include "workload/query_generator.hh"

namespace clarebench {

/** Size and mix of a generated knowledge base. */
struct KbShape
{
    std::uint32_t predicates = 4;
    std::uint32_t clausesPerPredicate = 1000;
    /**
     * Every k-th predicate (p(k-1), p(2k-1), ...) is rule-intensive:
     * most of its clauses are rules with variable head arguments,
     * which defeats the codeword index.  0 = none.
     */
    std::uint32_t ruleIntensiveEvery = 0;
};

/**
 * A generated knowledge base.  The symbol table interns every name the
 * KB and the goals mention; it is the schema the saved store persists,
 * so a store loaded from disk assigns the same ids and goals built
 * here can be served by it.
 */
struct GeneratedKb
{
    std::unique_ptr<clare::term::SymbolTable> symbols;
    clare::term::Program program;
};

/**
 * Generate @p shape from @p seed.  Arity is fixed per predicate index
 * (2, 3, 4, 2, ...) rather than drawn, so every seed gives the same
 * KB shape and only its contents vary.
 */
GeneratedKb generateKb(const KbShape &shape, std::uint64_t seed);

/** One goal, in its own arena (ids from GeneratedKb::symbols). */
struct Goal
{
    clare::term::TermArena arena;
    clare::term::TermRef term = clare::term::kNoTerm;
    clare::term::PredicateId pred{};
    std::string key; ///< term::canonicalKey, for de-duplication

    clare::crs::RetrievalRequest request() const;
};

/** Does the goal bind at least one argument (is not all variables)? */
bool bindsAnArgument(const Goal &goal);

/** Generate one goal against @p pred with @p gen. */
Goal makeGoal(clare::workload::QueryGenerator &gen, const GeneratedKb &kb,
              const clare::term::PredicateId &pred);

/**
 * @p count distinct keyed goals (mostly bound arguments, at least one),
 * predicates drawn uniformly.  No goal binds nothing: such a goal
 * answers with the whole predicate, and whether one lands among the
 * most frequent goals would decide a run's cost more than the program
 * does.
 */
std::vector<Goal> keyedGoals(GeneratedKb &kb, std::size_t count,
                             std::uint64_t seed);

/** A response kept from a timed phase for the exactness gate. */
struct Sample
{
    std::size_t goal; ///< index into the workload's goals
    clare::crs::RetrievalResponse response;
};

/**
 * The exactness gate over @p gate: serve each sample's goal on a
 * reference server on @p store (caches off, workers 1) and check that
 * the kept response is one the reference legally yields
 * (legalResponse); any other response is a mismatch of @p run.
 */
void checkGate(Run &run, clare::term::SymbolTable &symbols,
               const clare::crs::PredicateStore &store,
               const std::vector<Goal> &goals,
               const std::vector<Sample> &gate,
               const clare::crs::CacheConfig &cache);

/** A store loaded from disk the way clare_server opens one. */
struct LoadedStore
{
    std::unique_ptr<clare::term::SymbolTable> symbols;
    std::unique_ptr<clare::crs::PredicateStore> store;
};

/** Compile @p kb and persist it with crs::saveStore (clare_mkstore). */
void saveKb(const GeneratedKb &kb, const std::string &dir);
/** crs::loadStore into a fresh symbol table (clare_server --store). */
LoadedStore loadKb(const std::string &dir);

/** One writer transaction: clause texts to assertz, facts to retract. */
struct CommitOps
{
    std::vector<std::string> asserts;
    std::vector<std::string> retracts;
    std::size_t userBytes() const;
};

/**
 * The write probe's commit sequence, on one predicate (the store's
 * first) so that commits of one kind all do the same work and the
 * latency percentiles sit inside one population rather than between
 * predicates of different sizes.  Each commit assertz a fresh ground
 * fact (integer arguments no generated clause uses, so no new symbol
 * is interned); every fourth also retracts the four oldest facts this
 * plan inserted, i.e. its group's four.  One commit in four therefore
 * runs a minor compaction, and the predicate stays within three
 * clauses of its base size.
 */
class WriterPlan
{
  public:
    WriterPlan(const clare::crs::PredicateStore &store,
               const clare::term::SymbolTable &symbols);
    CommitOps next();

  private:
    std::string name_;
    std::uint32_t arity_ = 0;
    std::deque<std::string> live_; ///< inserted, not yet retracted
    std::uint64_t commit_ = 0;
};

/** Apply one commit through LiveStore; throws on a failed retract. */
void applyCommit(clare::crs::LiveStore &live,
                 clare::term::SymbolTable &symbols, const CommitOps &ops);

/** What the write probe measured. */
struct WriteProbe
{
    Samples latencyUs;          ///< each commit, start to return
    std::vector<CommitOps> ops; ///< the commits, in order
};

/**
 * The write probe each workload runs after its timed phase, with
 * nothing else running: kProbeCommits commits of a WriterPlan through
 * a crs::LiveStore on @p store (WAL in the run's scratch directory,
 * fsync per commit, cache invalidations to @p server), closed loop.
 * Then the MVCC check: @p goals are served pinned to fixed generations
 * (RetrievalRequest::snapshot) on @p server and on a reference server
 * (caches off, workers 1); a server response the reference does not
 * legally yield is a mismatch.  The reference responses enter
 * @p digest, so the digest does not depend on what @p server's caches
 * held when the timed phase stopped.
 */
WriteProbe writeProbe(Run &run, clare::crs::PredicateStore &store,
                      clare::term::SymbolTable &symbols,
                      clare::crs::ClauseRetrievalServer &server,
                      const std::vector<const Goal *> &goals,
                      Digest &digest);

/** Result of replaying commits into a standalone storage::Wal. */
struct WalProbe
{
    double commitUs = 0;        ///< mean append + commit per transaction
    double bytesPerUserByte = 0; ///< WAL bytes / clause-text bytes
};

/** Append and commit @p ops to a fresh storage::Wal at @p path. */
WalProbe walProbe(const std::vector<CommitOps> &ops,
                  const std::string &path, SpanLog &spans);

} // namespace clarebench

#endif // CLAREBENCH_KB_HH
