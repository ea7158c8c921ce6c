#include "crs/live_update.hh"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "crs/store_io.hh"
#include "storage/file_io.hh"
#include "support/crc32.hh"
#include "support/errors.hh"
#include "support/logging.hh"
#include "term/term_reader.hh"
#include "unify/unify.hh"

namespace clare::crs {

namespace fs = std::filesystem;

namespace {

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t
getU32(const std::vector<std::uint8_t> &in, std::size_t at)
{
    return static_cast<std::uint32_t>(in[at]) |
        static_cast<std::uint32_t>(in[at + 1]) << 8 |
        static_cast<std::uint32_t>(in[at + 2]) << 16 |
        static_cast<std::uint32_t>(in[at + 3]) << 24;
}

storage::Wal::RecordKind
walKind(const LiveOp &op)
{
    return op.kind == LiveOp::Kind::Retract
        ? storage::Wal::RecordKind::Retract
        : storage::Wal::RecordKind::Assert;
}

/** Serialize one op into its WAL payload (see Wal::RecordKind). */
std::vector<std::uint8_t>
encodePayload(const LiveOp &op, const term::SymbolTable &symbols)
{
    std::vector<std::uint8_t> payload;
    if (op.kind == LiveOp::Kind::Retract) {
        const std::string name = symbols.name(op.pred.functor);
        putU32(payload, op.pred.arity);
        putU32(payload, op.ordinal);
        putU32(payload, static_cast<std::uint32_t>(name.size()));
        payload.insert(payload.end(), name.begin(), name.end());
    } else {
        payload.push_back(op.kind == LiveOp::Kind::Asserta ? 1 : 0);
        putU32(payload, static_cast<std::uint32_t>(op.text.size()));
        payload.insert(payload.end(), op.text.begin(), op.text.end());
    }
    return payload;
}

/** Build the right-nested ','/2 conjunction of a clause body. */
term::TermRef
bodyConjunction(term::TermArena &arena, term::SymbolTable &symbols,
                const term::Clause &clause, term::VarId offset)
{
    if (clause.isFact())
        return arena.makeAtom(symbols.intern("true"));
    term::TermRef conj = arena.import(clause.arena(),
                                      clause.body().back(), offset);
    for (std::size_t i = clause.body().size() - 1; i-- > 0;) {
        term::TermRef g = arena.import(clause.arena(),
                                       clause.body()[i], offset);
        term::TermRef args[] = {g, conj};
        conj = arena.makeStruct(symbols.intern(","), args);
    }
    return conj;
}

/** Durably write a small file in one shot (the CURRENT.tmp path). */
void
writeFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        throw IoError(path, "cannot open for writing");
    if (!content.empty() &&
        std::fwrite(content.data(), 1, content.size(), f) !=
            content.size()) {
        std::fclose(f);
        throw IoError(path, "short write");
    }
    storage::syncFile(f, path);
    std::fclose(f);
}

} // namespace

LiveStore::LiveStore(PredicateStore &store, term::SymbolTable &symbols,
                     const std::string &wal_path,
                     std::uint64_t applied_lsn,
                     const support::FaultInjector *faults)
    : store_(store), symbols_(symbols), writer_(symbols),
      faults_(faults),
      wal_(std::make_unique<storage::Wal>(wal_path, faults)),
      appliedLsn_(applied_lsn)
{
    // A crash during checkpoint's reset() can leave a partial WAL
    // header, which recovery rewrites with baseLsn = 0 while the
    // manifest watermark already sits at appliedLsn.  Left alone, the
    // next commits would take LSNs below the watermark and the *next*
    // recovery would skip them as already applied — silent loss of
    // committed data.  Rebase the empty log onto the watermark before
    // accepting writes.  (A log with recovered records never needs
    // this: its tail is exactly the watermark the manifest recorded.)
    if (wal_->recovered().empty() && wal_->baseLsn() < appliedLsn_)
        wal_->reset(appliedLsn_);

    // Recovery replay: every committed record past the checkpoint
    // watermark flows through the exact commit path a live writer
    // uses, one published generation per commit group.  Records below
    // the watermark are already folded into the loaded store.
    std::vector<LiveOp> group;
    for (const storage::Wal::Record &rec : wal_->recovered()) {
        const bool applied = rec.lsn < appliedLsn_;
        switch (rec.kind) {
        case storage::Wal::RecordKind::Assert:
        case storage::Wal::RecordKind::Retract:
            if (!applied)
                group.push_back(decodeOp(rec));
            break;
        case storage::Wal::RecordKind::Commit:
            if (!group.empty()) {
                commitOps(std::move(group), /*log=*/false);
                ++recoveredCommits_;
            }
            group.clear();
            break;
        case storage::Wal::RecordKind::Checkpoint:
            group.clear();
            break;
        }
    }
}

LiveOp
LiveStore::decodeOp(const storage::Wal::Record &rec)
{
    LiveOp op;
    const std::vector<std::uint8_t> &p = rec.payload;
    if (rec.kind == storage::Wal::RecordKind::Retract) {
        if (p.size() < 12)
            throw CorruptionError(wal_->path(), kNoFilePosition,
                                  rec.lsn, "short retract payload");
        op.kind = LiveOp::Kind::Retract;
        op.pred.arity = getU32(p, 0);
        op.ordinal = getU32(p, 4);
        std::uint32_t len = getU32(p, 8);
        if (p.size() != 12 + static_cast<std::size_t>(len))
            throw CorruptionError(wal_->path(), kNoFilePosition,
                                  rec.lsn, "malformed retract payload");
        std::string name(p.begin() + 12, p.end());
        op.pred.functor = symbols_.intern(name);
        return op;
    }
    if (p.size() < 5)
        throw CorruptionError(wal_->path(), kNoFilePosition, rec.lsn,
                              "short assert payload");
    op.kind = p[0] != 0 ? LiveOp::Kind::Asserta : LiveOp::Kind::Assertz;
    std::uint32_t len = getU32(p, 1);
    if (p.size() != 5 + static_cast<std::size_t>(len))
        throw CorruptionError(wal_->path(), kNoFilePosition, rec.lsn,
                              "malformed assert payload");
    op.text.assign(p.begin() + 5, p.end());
    term::TermReader reader(symbols_);
    op.pred = reader.parseClause(op.text).predicate();
    return op;
}

LiveStore::Update
LiveStore::begin()
{
    return Update(*this);
}

std::uint64_t
LiveStore::assertz(const term::Clause &clause)
{
    Update txn = begin();
    txn.assertz(clause);
    return txn.commit();
}

std::uint64_t
LiveStore::asserta(const term::Clause &clause)
{
    Update txn = begin();
    txn.asserta(clause);
    return txn.commit();
}

std::optional<std::uint64_t>
LiveStore::retract(const term::TermArena &arena, term::TermRef pattern)
{
    Update txn = begin();
    if (!txn.retract(arena, pattern)) {
        txn.abort();
        return std::nullopt;
    }
    return txn.commit();
}

std::uint64_t
LiveStore::commitOps(std::vector<LiveOp> ops, bool log)
{
    if (ops.empty())
        return store_.headGeneration();

    if (log) {
        // Write-ahead: the records and the Commit boundary are durable
        // before any in-memory state changes.  A CrashError (or real
        // IoError) here propagates with nothing published — recovery
        // sees either no trace of the transaction or all of it.
        for (const LiveOp &op : ops)
            wal_->append(walKind(op), encodePayload(op, symbols_));
        wal_->commit();
    }

    // Group per predicate, preserving op order within each group.
    std::map<term::PredicateId, std::vector<const LiveOp *>> groups;
    for (const LiveOp &op : ops)
        groups[op.pred].push_back(&op);

    std::map<term::PredicateId, std::shared_ptr<StoredPredicate>>
        versions;
    for (const auto &[pred, group] : groups) {
        std::shared_ptr<const StoredPredicate> prev =
            store_.predicateVersion(pred);
        bool assertz_only = true;
        for (const LiveOp *op : group)
            if (op->kind != LiveOp::Kind::Assertz)
                assertz_only = false;
        // Pure appends ride the composite fast path: base images are
        // shared, only the tail is compiled and transposed.  Anything
        // order-changing (asserta) or removing (retract) triggers a
        // minor compaction of this one predicate.
        if (assertz_only && prev != nullptr)
            versions.emplace(pred, buildComposite(*prev, group));
        else
            versions.emplace(pred, buildCompacted(prev.get(), group));
    }

    std::uint64_t gen = store_.publish(std::move(versions));
    ++commits_;
    // Invalidate after publish: a reader racing the invalidation can
    // at worst re-cache a pre-commit result under the *old*
    // generation's key, which post-commit lookups never consult (the
    // goal/survivor keys embed the pinned version's generation).
    if (sink_ != nullptr)
        for (const auto &[pred, group] : groups)
            sink_->invalidatePredicate(pred);
    return gen;
}

std::shared_ptr<StoredPredicate>
LiveStore::buildComposite(const StoredPredicate &prev,
                          const std::vector<const LiveOp *> &ops)
{
    term::TermReader reader(symbols_);
    const scw::CodewordGenerator &gen = store_.generator();

    // Compile the appended tail exactly as a from-scratch build would
    // compile these clause positions: ordinals continue the base
    // file's, so the concatenated image is byte-identical to a full
    // rebuild (ClauseFile::concat asserts the contract).
    storage::ClauseFileBuilder tail_builder(
        writer_,
        static_cast<std::uint32_t>(prev.clauses.clauseCount()));
    std::vector<scw::Signature> sigs;
    for (const LiveOp *op : ops) {
        term::Clause clause = reader.parseClause(op->text);
        sigs.push_back(gen.encode(clause.arena(), clause.head()));
        tail_builder.add(clause);
    }
    storage::ClauseFile tail = tail_builder.finish();

    auto out = std::make_shared<StoredPredicate>();
    out->clauses = storage::ClauseFile::concat(prev.clauses, tail);

    // Composite secondary file: the base entry image plus the tail
    // entries serialized against the composite clause directory —
    // again byte-identical to SecondaryFile::build over all clauses.
    const std::size_t entry_bytes = gen.signatureBytes() + 8;
    std::vector<std::uint8_t> image = prev.index.image();
    const std::size_t base_count = prev.clauses.clauseCount();
    for (std::size_t k = 0; k < sigs.size(); ++k) {
        gen.serialize(sigs[k], image);
        const storage::ClauseRecord &rec =
            out->clauses.record(base_count + k);
        putU32(image, rec.offset);
        putU32(image, rec.ordinal);
    }
    const std::size_t total = out->clauses.clauseCount();
    out->index = scw::SecondaryFile::fromImage(std::move(image), total,
                                               entry_bytes);

    // LSM-flavored maintenance: share the base plane untouched and
    // transpose only [baseEntries, total) into a delta mini-plane.  FS1
    // scans both parts and sums the bytes before the one tick
    // conversion, so the split is tick-identical to scanning one full
    // plane.
    out->sliced = prev.sliced;
    const std::size_t base_entries = prev.deltaSliced == nullptr
        ? prev.index.entryCount()
        : prev.baseEntries;
    out->baseEntries = base_entries;
    std::vector<std::uint8_t> delta_image(
        out->index.image().begin() +
            static_cast<std::ptrdiff_t>(base_entries * entry_bytes),
        out->index.image().end());
    scw::SecondaryFile delta = scw::SecondaryFile::fromImage(
        std::move(delta_image), total - base_entries, entry_bytes);
    out->deltaSliced = std::make_shared<const scw::BitSlicedIndex>(
        scw::BitSlicedIndex::build(gen, delta));

    finishVersion(*out, &prev);
    return out;
}

std::shared_ptr<StoredPredicate>
LiveStore::buildCompacted(const StoredPredicate *prev,
                          const std::vector<const LiveOp *> &ops)
{
    // Replay the ops over the predicate's evolving source-text list
    // (the same sequence Update resolved retract ordinals against),
    // then rebuild the predicate from scratch — a minor compaction.
    std::vector<std::string> texts;
    if (prev != nullptr)
        for (std::size_t i = 0; i < prev->clauses.clauseCount(); ++i)
            texts.push_back(prev->clauses.sourceText(i));
    for (const LiveOp *op : ops) {
        switch (op->kind) {
        case LiveOp::Kind::Assertz:
            texts.push_back(op->text);
            break;
        case LiveOp::Kind::Asserta:
            texts.insert(texts.begin(), op->text);
            break;
        case LiveOp::Kind::Retract:
            clare_assert(op->ordinal < texts.size(),
                         "retract ordinal %u outside %zu clauses",
                         op->ordinal, texts.size());
            texts.erase(texts.begin() + op->ordinal);
            break;
        }
    }

    term::TermReader reader(symbols_);
    const scw::CodewordGenerator &gen = store_.generator();
    storage::ClauseFileBuilder builder(writer_);
    std::vector<scw::Signature> sigs;
    for (const std::string &text : texts) {
        term::Clause clause = reader.parseClause(text);
        sigs.push_back(gen.encode(clause.arena(), clause.head()));
        builder.add(clause);
    }
    auto out = std::make_shared<StoredPredicate>();
    out->clauses = builder.finish();
    out->index = scw::SecondaryFile::build(gen, sigs, out->clauses);
    // Full rebuild, full plane — no delta, base coverage resets.
    out->sliced = std::make_shared<const scw::BitSlicedIndex>(
        scw::BitSlicedIndex::build(gen, out->index));
    finishVersion(*out, prev);
    return out;
}

void
LiveStore::finishVersion(StoredPredicate &v,
                         const StoredPredicate *prev) const
{
    std::size_t rules = 0;
    for (std::size_t i = 0; i < v.clauses.clauseCount(); ++i)
        rules += v.clauses.record(i).isFact() ? 0 : 1;
    v.ruleFraction = v.clauses.clauseCount() == 0
        ? 0.0
        : static_cast<double>(rules) /
          static_cast<double>(v.clauses.clauseCount());
    v.indexPageCrcs = support::pageChecksums(v.index.image().data(),
                                             v.index.image().size());
    if (prev != nullptr) {
        v.clauseFileOffset = prev->clauseFileOffset;
        v.indexFileOffset = prev->indexFileOffset;
    }
}

void
LiveStore::checkpoint(const std::string &root)
{
    std::lock_guard<std::mutex> lock(writerMutex_);
    const std::uint64_t applied = wal_->tailLsn();
    const std::string name = "ckpt-" + std::to_string(applied);
    const std::string directory = root + "/" + name;

    StoreWalInfo info;
    info.present = true;
    info.appliedLsn = applied;
    saveStore(directory, store_, symbols_, &info);

    // Byte-granular kill realization: saveStore writes its files in a
    // deterministic order, so a crash "at byte N of the checkpoint
    // stream" is the file containing N truncated there and everything
    // after it never written.  The sweep runs post-hoc — equivalent to
    // crashing mid-write because nothing before the CURRENT flip is
    // reachable by a recovering process.
    std::vector<std::string> order;
    order.push_back(directory + "/symbols.tbl");
    for (const term::PredicateId &pred : store_.predicates()) {
        const std::string stem =
            directory + "/" + predicateFileStem(pred);
        order.push_back(stem + ".kbc");
        order.push_back(stem + ".idx");
    }
    order.push_back(directory + "/manifest.txt");
    if (faults_ != nullptr) {
        for (std::size_t i = 0; i < order.size(); ++i) {
            std::error_code ec;
            const std::uint64_t size = fs::file_size(order[i], ec);
            if (ec)
                throw IoError(order[i], "cannot stat checkpoint file: " +
                              ec.message());
            if (auto kill = faults_->killOffset("checkpoint",
                                                ckptCumulative_,
                                                ckptCumulative_ + size)) {
                fs::resize_file(order[i], *kill - ckptCumulative_, ec);
                for (std::size_t j = i + 1; j < order.size(); ++j)
                    fs::remove(order[j], ec);
                throw CrashError("checkpoint", *kill);
            }
            ckptCumulative_ += size;
        }
    }

    // Durability ordering: every checkpoint byte must be on stable
    // storage before CURRENT can name the directory, or a power loss
    // could publish a torn checkpoint.
    for (const std::string &file : order) {
        std::FILE *f = std::fopen(file.c_str(), "rb");
        if (f == nullptr)
            throw IoError(file, "cannot reopen checkpoint file to sync");
        storage::syncFile(f, file);
        std::fclose(f);
    }
    storage::syncDirectory(directory);

    // The commit point: CURRENT.tmp carries the checkpoint name and is
    // renamed over CURRENT atomically.  Before the rename a recovering
    // process sees the old store + the full WAL; after it, the new
    // store + records above the watermark (none yet).  No third state.
    const std::string content = name + "\n";
    const std::string tmp = root + "/CURRENT.tmp";
    if (faults_ != nullptr) {
        if (auto kill = faults_->killOffset(
                "checkpoint", ckptCumulative_,
                ckptCumulative_ + content.size())) {
            writeFile(tmp, content.substr(0, *kill - ckptCumulative_));
            throw CrashError("checkpoint", *kill);
        }
    }
    writeFile(tmp, content);
    ckptCumulative_ += content.size();
    std::error_code ec;
    fs::rename(tmp, root + "/CURRENT", ec);
    if (ec)
        throw IoError(root + "/CURRENT",
                      "cannot publish checkpoint: " + ec.message());
    // The rename is the commit point; fsync the directory so it
    // survives power loss too.
    storage::syncDirectory(root);

    // Applied records are folded into the checkpoint; restart the log
    // (kill site "wal.checkpoint" — a crash here leaves either the
    // old intact log, whose applied records replay is told to skip,
    // or a clean empty one).
    wal_->reset(applied);
    appliedLsn_ = applied;

    // Best-effort: drop superseded checkpoint directories.
    for (const auto &dirent : fs::directory_iterator(root, ec)) {
        const std::string base = dirent.path().filename().string();
        if (base.rfind("ckpt-", 0) == 0 && base != name) {
            std::error_code rm;
            fs::remove_all(dirent.path(), rm);
        }
    }
}

LiveStore::Update::Update(LiveStore &owner)
    : owner_(&owner), lock_(owner.writerMutex_)
{
}

LiveStore::Update::~Update()
{
    if (active_ && lock_.owns_lock())
        abort();
}

void
LiveStore::Update::abort()
{
    clare_assert(active_, "abort of a finished update");
    ops_.clear();
    working_.clear();
    active_ = false;
    if (lock_.owns_lock())
        lock_.unlock();
}

std::uint64_t
LiveStore::Update::commit()
{
    clare_assert(active_, "commit of a finished update");
    active_ = false;
    std::vector<LiveOp> ops = std::move(ops_);
    working_.clear();
    // On CrashError the update is already finished; the lock releases
    // via the unique_lock on unwind, and nothing was published.
    std::uint64_t gen = owner_->commitOps(std::move(ops), /*log=*/true);
    if (lock_.owns_lock())
        lock_.unlock();
    return gen;
}

std::vector<std::string> &
LiveStore::Update::textsOf(const term::PredicateId &pred)
{
    auto it = working_.find(pred);
    if (it != working_.end())
        return it->second;
    std::vector<std::string> texts;
    std::shared_ptr<const StoredPredicate> prev =
        owner_->store_.predicateVersion(pred);
    if (prev != nullptr)
        for (std::size_t i = 0; i < prev->clauses.clauseCount(); ++i)
            texts.push_back(prev->clauses.sourceText(i));
    return working_.emplace(pred, std::move(texts)).first->second;
}

void
LiveStore::Update::assertz(const term::Clause &clause)
{
    clare_assert(active_, "assert on a finished update");
    LiveOp op;
    op.kind = LiveOp::Kind::Assertz;
    op.pred = clause.predicate();
    op.text = owner_->writer_.writeClause(clause);
    textsOf(op.pred).push_back(op.text);
    ops_.push_back(std::move(op));
}

void
LiveStore::Update::asserta(const term::Clause &clause)
{
    clare_assert(active_, "assert on a finished update");
    LiveOp op;
    op.kind = LiveOp::Kind::Asserta;
    op.pred = clause.predicate();
    op.text = owner_->writer_.writeClause(clause);
    std::vector<std::string> &texts = textsOf(op.pred);
    texts.insert(texts.begin(), op.text);
    ops_.push_back(std::move(op));
}

bool
LiveStore::Update::retract(const term::TermArena &arena,
                           term::TermRef pattern)
{
    clare_assert(active_, "retract on a finished update");
    term::SymbolTable &symbols = owner_->symbols_;

    // Split the pattern into head and body-conjunction parts.
    term::TermRef head_pat = pattern;
    term::TermRef body_pat = term::kNoTerm;
    term::SymbolId neck = symbols.intern(":-");
    if (arena.kind(pattern) == term::TermKind::Struct &&
        arena.functor(pattern) == neck && arena.arity(pattern) == 2) {
        head_pat = arena.arg(pattern, 0);
        body_pat = arena.arg(pattern, 1);
    }

    term::PredicateId pred;
    term::TermKind hk = arena.kind(head_pat);
    if (hk == term::TermKind::Atom) {
        pred = term::PredicateId{arena.atomSymbol(head_pat), 0};
    } else if (hk == term::TermKind::Struct) {
        pred = term::PredicateId{arena.functor(head_pat),
                                 arena.arity(head_pat)};
    } else {
        clare_fatal("retract pattern head must be an atom or structure");
    }

    // Resolve against the evolving list: head store state plus this
    // transaction's earlier ops.  The matched *position* goes into the
    // WAL, so replay — which walks the same evolving list — removes
    // the same clause without re-running unification.
    std::vector<std::string> &texts = textsOf(pred);
    term::TermReader reader(symbols);
    for (std::size_t i = 0; i < texts.size(); ++i) {
        term::Clause clause = reader.parseClause(texts[i]);
        // A bare-head pattern matches facts only (retract(H) is
        // retract((H :- true))).
        if (body_pat == term::kNoTerm && !clause.isFact())
            continue;

        term::TermArena scratch;
        term::TermRef goal_head = scratch.import(arena, head_pat, 0);
        term::VarId offset = arena.varCeiling();
        term::TermRef clause_head = scratch.import(clause.arena(),
                                                   clause.head(),
                                                   offset);
        unify::Bindings bindings;
        if (!unify::unifyTerms(scratch, goal_head, clause_head,
                               bindings)) {
            continue;
        }
        if (body_pat != term::kNoTerm) {
            term::TermRef goal_body = scratch.import(arena, body_pat, 0);
            term::TermRef clause_body = bodyConjunction(
                scratch, symbols, clause, offset);
            if (!unify::unifyTerms(scratch, goal_body, clause_body,
                                   bindings)) {
                continue;
            }
        }

        LiveOp op;
        op.kind = LiveOp::Kind::Retract;
        op.pred = pred;
        op.ordinal = static_cast<std::uint32_t>(i);
        texts.erase(texts.begin() + static_cast<std::ptrdiff_t>(i));
        ops_.push_back(std::move(op));
        return true;
    }
    return false;
}

} // namespace clare::crs
