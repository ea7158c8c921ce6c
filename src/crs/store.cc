#include "crs/store.hh"

#include <algorithm>

#include "support/crc32.hh"
#include "support/logging.hh"
#include "term/term_reader.hh"
#include "unify/unify.hh"

namespace clare::crs {

const term::Cell *
DecodedHeads::head(const storage::ClauseFile &file, std::uint32_t ordinal,
                   term::SymbolTable &symbols, bool &decoded)
{
    decoded = false;
    if (Slot *slots = slots_.load(std::memory_order_acquire)) {
        if (const term::Cell *cells =
                slots[ordinal].load(std::memory_order_acquire))
            return cells;
    }

    term::Clause clause =
        term::TermReader(symbols).parseClause(file.sourceText(ordinal));
    std::vector<term::Cell> image;
    term::encodeCells(clause.arena(), clause.head(), image);

    std::lock_guard<std::mutex> lock(fillMutex_);
    if (slotStore_ == nullptr) {
        slotStore_ = std::make_unique<Slot[]>(file.clauseCount());
        slots_.store(slotStore_.get(), std::memory_order_release);
    }
    Slot &slot = slotStore_[ordinal];
    if (const term::Cell *cells = slot.load(std::memory_order_relaxed))
        return cells;
    term::Cell *cells = cells_.allocArray<term::Cell>(image.size());
    std::copy(image.begin(), image.end(), cells);
    slot.store(cells, std::memory_order_release);
    decoded = true;
    return cells;
}

HeadUnifier::HeadUnifier(const StoredPredicate &stored,
                         term::SymbolTable &symbols,
                         const term::TermArena &q_arena, term::TermRef goal)
    : stored_(stored), symbols_(symbols), qArena_(q_arena), goal_(goal)
{
}

bool
HeadUnifier::unifies(std::uint32_t ordinal)
{
    bool fresh = false;
    const term::Cell *head =
        stored_.heads->head(stored_.clauses, ordinal, symbols_, fresh);
    decoded_ += fresh ? 1 : 0;
    scratch_.reset();
    term::TermRef g = scratch_.import(qArena_, goal_, 0);
    term::TermRef h =
        term::decodeCells(scratch_, head, qArena_.varCeiling());
    unify::TrailMark mark = bindings_.mark();
    bool hit = unify::unifyTerms(scratch_, g, h, bindings_);
    bindings_.undo(mark);
    return hit;
}

PredicateStore::PredicateStore(const term::SymbolTable &symbols,
                               scw::CodewordGenerator generator,
                               storage::DiskGeometry geometry)
    : symbols_(symbols), generator_(std::move(generator)),
      writer_(symbols_), dataDisk_(geometry), indexDisk_(geometry),
      mvccMutex_(std::make_unique<std::shared_mutex>())
{
}

void
PredicateStore::addProgram(const term::Program &program)
{
    clare_assert(!finalized_, "store already finalized");
    for (const term::PredicateId &pred : program.predicates()) {
        if (preds_.count(pred))
            clare_fatal("predicate %s/%u stored twice",
                        symbols_.name(pred.functor).c_str(), pred.arity);

        storage::ClauseFileBuilder builder(writer_);
        std::vector<scw::Signature> signatures;
        std::size_t rules = 0;
        const auto &ordinals = program.clausesOf(pred);
        for (std::size_t i : ordinals) {
            const term::Clause &clause = program.clause(i);
            builder.add(clause);
            signatures.push_back(generator_.encode(clause.arena(),
                                                   clause.head()));
            if (!clause.isFact())
                ++rules;
        }

        StoredPredicate stored;
        stored.clauses = builder.finish();
        stored.index = scw::SecondaryFile::build(generator_, signatures,
                                                 stored.clauses);
        stored.sliced = std::make_shared<scw::BitSlicedIndex>(
            scw::BitSlicedIndex::build(generator_, stored.index));
        stored.ruleFraction = ordinals.empty()
            ? 0.0
            : static_cast<double>(rules) /
              static_cast<double>(ordinals.size());
        preds_.emplace(pred, std::move(stored));
        order_.push_back(pred);
    }
}

void
PredicateStore::addStored(const term::PredicateId &pred,
                          storage::ClauseFile clauses,
                          scw::SecondaryFile index,
                          std::shared_ptr<const scw::BitSlicedIndex>
                              sliced)
{
    clare_assert(!finalized_, "store already finalized");
    if (preds_.count(pred))
        clare_fatal("predicate %s/%u stored twice",
                    symbols_.name(pred.functor).c_str(), pred.arity);
    StoredPredicate stored;
    std::size_t rules = 0;
    for (std::size_t i = 0; i < clauses.clauseCount(); ++i)
        rules += clauses.record(i).isFact() ? 0 : 1;
    stored.ruleFraction = clauses.clauseCount() == 0
        ? 0.0
        : static_cast<double>(rules) /
          static_cast<double>(clauses.clauseCount());
    stored.clauses = std::move(clauses);
    stored.index = std::move(index);
    stored.sliced = sliced != nullptr
        ? std::move(sliced)
        : std::make_shared<scw::BitSlicedIndex>(
              scw::BitSlicedIndex::build(generator_, stored.index));
    preds_.emplace(pred, std::move(stored));
    order_.push_back(pred);
}

void
PredicateStore::finalize()
{
    clare_assert(!finalized_, "store already finalized");
    // Lay the predicates' images end to end on the two disks.  Only
    // the offsets are kept: the disk models hold no bytes, and every
    // reader goes to the predicate's own images.
    std::uint64_t data_at = 0;
    std::uint64_t index_at = 0;
    for (const term::PredicateId &pred : order_) {
        StoredPredicate &stored = preds_.at(pred);
        stored.clauseFileOffset = data_at;
        data_at += stored.clauses.image().size();
        stored.indexFileOffset = index_at;
        index_at += stored.index.image().size();
        stored.indexPageCrcs = support::pageChecksums(
            stored.index.image().data(), stored.index.image().size());
    }
    finalized_ = true;
}

bool
PredicateStore::has(const term::PredicateId &pred) const
{
    if (preds_.count(pred) != 0)
        return true;
    std::shared_lock lock(*mvccMutex_);
    return versions_.count(pred) != 0;
}

const StoredPredicate &
PredicateStore::predicate(const term::PredicateId &pred) const
{
    {
        // Version chains only append, so the head version (and the
        // reference) stays alive for the store's lifetime even after
        // newer commits supersede it.
        std::shared_lock lock(*mvccMutex_);
        auto it = versions_.find(pred);
        if (it != versions_.end() && !it->second.empty())
            return *it->second.back().second;
    }
    auto it = preds_.find(pred);
    if (it == preds_.end())
        clare_fatal("predicate %s/%u is not stored",
                    symbols_.name(pred.functor).c_str(), pred.arity);
    return it->second;
}

std::shared_ptr<const StoredPredicate>
PredicateStore::predicateVersion(const term::PredicateId &pred,
                                 std::optional<std::uint64_t> generation)
    const
{
    {
        std::shared_lock lock(*mvccMutex_);
        auto it = versions_.find(pred);
        if (it != versions_.end()) {
            const auto &chain = it->second;
            // Newest version with generation <= the pin, scanning the
            // (short, append-only) chain backward.
            for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit)
                if (!generation || rit->first <= *generation)
                    return rit->second;
            // Every chained version is newer than the pin: fall back
            // to the generation-0 base below, if one exists.
        }
    }
    auto it = preds_.find(pred);
    if (it == preds_.end())
        return nullptr;
    // Generation 0 lives in preds_; alias the node (std::map nodes are
    // address-stable) with an empty control block — the store itself
    // keeps it alive.
    return std::shared_ptr<const StoredPredicate>(
        std::shared_ptr<const void>(), &it->second);
}

std::uint64_t
PredicateStore::headGeneration() const
{
    std::shared_lock lock(*mvccMutex_);
    return headGeneration_;
}

std::uint64_t
PredicateStore::publish(
    std::map<term::PredicateId,
             std::shared_ptr<StoredPredicate>> versions)
{
    std::unique_lock lock(*mvccMutex_);
    std::uint64_t gen = ++headGeneration_;
    for (auto &kv : versions) {
        kv.second->generation = gen;
        auto &chain = versions_[kv.first];
        bool brand_new = chain.empty() && preds_.count(kv.first) == 0;
        chain.emplace_back(gen, std::shared_ptr<const StoredPredicate>(
                                    std::move(kv.second)));
        if (brand_new)
            order_.push_back(kv.first);
    }
    return gen;
}

std::uint64_t
PredicateStore::dataBytes() const
{
    std::uint64_t n = 0;
    for (const auto &kv : preds_)
        n += kv.second.clauses.image().size();
    return n;
}

std::uint64_t
PredicateStore::indexBytes() const
{
    std::uint64_t n = 0;
    for (const auto &kv : preds_)
        n += kv.second.index.image().size();
    return n;
}

} // namespace clare::crs
