/**
 * @file
 * Randomized round-trip properties ("fuzz light"): arbitrary terms —
 * including operator-functor structures, negative literals, quoted
 * atoms, deep nesting and partial lists — must survive
 * write -> parse -> write as a fixed point, and their PIF encodings
 * must survive serialize -> deserialize exactly.
 *
 * The store-corruption fuzzer and the injected-fault sweep (ctest
 * label: faults) extend the same idea to the robustness layer: any
 * byte-level damage to a saved store, and any fault seed against a
 * live server, must end in a typed clare::Error or a correct answer —
 * never a crash, an abort, or silently wrong results.  Saved stores
 * carry the v3 bit-sliced plane section, so the corruption fuzzer also
 * exercises damaged planes; when a damaged store loads anyway, its
 * plane-backed scans must still answer exactly.
 *
 * The decoded-head fuzz stores random clause heads and checks that
 * host unification against their cell images answers exactly what
 * parsing each clause's source text and calling wouldUnify answers.
 *
 * The sliced-oracle fuzz drives the word-parallel SlicedMatcher, on
 * every block kernel the host supports, against the structural
 * PlaMatcher over random generator geometries, arities (including past
 * the encoding limit), mask densities, and entry counts — the matchers
 * must agree entry-for-entry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crs/server.hh"
#include "crs/store_io.hh"
#include "crs/transaction.hh"
#include "net/term_codec.hh"
#include "oracle/pla_matcher.hh"
#include "fs1/sliced_matcher.hh"
#include "pif/encoder.hh"
#include "scw/bit_sliced_index.hh"
#include "storage/file_io.hh"
#include "support/fault_injector.hh"
#include "support/random.hh"
#include "term/cell_image.hh"
#include "term/term_reader.hh"
#include "term/term_writer.hh"
#include "unify/oracle.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

namespace clare {
namespace {

/** One goal through the unified front door. */
crs::RetrievalResponse
serveOne(crs::ClauseRetrievalServer &server, const term::TermArena &arena,
         term::TermRef goal, std::optional<crs::SearchMode> mode = {})
{
    crs::RetrievalRequest request;
    request.arena = &arena;
    request.goal = goal;
    request.mode = mode;
    return server.serve(request);
}

/** Random term generator biased toward nasty shapes. */
class TermFuzzer
{
  public:
    TermFuzzer(term::SymbolTable &sym, std::uint64_t seed)
        : sym_(sym), rng_(seed)
    {}

    term::TermRef
    generate(term::TermArena &arena, int depth = 0)
    {
        double roll = rng_.uniform();
        if (depth >= 4)
            roll *= 0.55;   // force leaves at depth

        if (roll < 0.18) {
            static const char *atoms[] = {
                "a", "foo", "bar_baz", "q9", "[]", "mod", "is",
                "odd atom", "it's", "+", "with\\slash",
            };
            return arena.makeAtom(sym_.intern(
                atoms[rng_.below(std::size(atoms))]));
        }
        if (roll < 0.30)
            return arena.makeInt(rng_.range(-1000000, 1000000));
        if (roll < 0.36) {
            return arena.makeFloat(sym_.internFloat(
                static_cast<double>(rng_.range(-4000, 4000)) / 16.0));
        }
        if (roll < 0.46) {
            term::VarId v = static_cast<term::VarId>(rng_.below(6));
            return arena.makeVar(v, sym_.intern(
                "V" + std::to_string(v)));
        }
        if (roll < 0.70) {
            // Structures, sometimes with operator functors.
            static const char *functors[] = {
                "f", "g", "wrap", "+", "-", "*", "is", "=", "<",
                "\\+",
            };
            const char *name = functors[rng_.below(std::size(functors))];
            std::uint32_t arity;
            if (std::string(name) == "\\+") {
                arity = 1;
            } else if (std::string(name).find_first_of(
                           "+-*=<") != std::string::npos ||
                       std::string(name) == "is") {
                arity = 2;
            } else {
                arity = static_cast<std::uint32_t>(rng_.range(1, 3));
            }
            std::vector<term::TermRef> args;
            for (std::uint32_t i = 0; i < arity; ++i)
                args.push_back(generate(arena, depth + 1));
            return arena.makeStruct(sym_.intern(name), args);
        }
        // Lists, sometimes partial.
        std::uint32_t len = static_cast<std::uint32_t>(rng_.range(1, 4));
        std::vector<term::TermRef> elems;
        for (std::uint32_t i = 0; i < len; ++i)
            elems.push_back(generate(arena, depth + 1));
        term::TermRef tail = term::kNoTerm;
        if (rng_.chance(0.3)) {
            term::VarId v = static_cast<term::VarId>(6 + rng_.below(3));
            tail = arena.makeVar(v, sym_.intern(
                "T" + std::to_string(v)));
        }
        return arena.makeList(elems, tail);
    }

  private:
    term::SymbolTable &sym_;
    Rng rng_;
};

class FuzzRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FuzzRoundTrip, WriteParseWriteIsFixedPoint)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::TermWriter writer(sym);
    TermFuzzer fuzzer(sym, GetParam());

    for (int i = 0; i < 200; ++i) {
        term::TermArena arena;
        term::TermRef t = fuzzer.generate(arena);
        std::string first = writer.write(arena, t);
        term::ParsedTerm back;
        ASSERT_NO_THROW(back = reader.parseTerm(first))
            << "unparseable: " << first;
        std::string second = writer.write(back.arena, back.root);
        EXPECT_EQ(second, first) << "iteration " << i;
    }
}

TEST_P(FuzzRoundTrip, PifWireRoundTrip)
{
    term::SymbolTable sym;
    TermFuzzer fuzzer(sym, GetParam() ^ 0x9e3779b9u);
    pif::Encoder encoder;

    for (int i = 0; i < 200; ++i) {
        term::TermArena arena;
        std::vector<term::TermRef> args;
        std::uint32_t arity = 1 + (i % 4);
        for (std::uint32_t a = 0; a < arity; ++a)
            args.push_back(fuzzer.generate(arena));
        term::TermRef head = arena.makeStruct(sym.intern("pred"), args);

        for (pif::Side side : {pif::Side::Db, pif::Side::Query}) {
            pif::EncodedArgs encoded = encoder.encodeArgs(arena, head,
                                                          side);
            std::vector<std::uint8_t> wire;
            for (const auto &item : encoded.items)
                pif::serializeItem(item, wire);
            std::size_t at = 0;
            std::size_t n = 0;
            while (at < wire.size()) {
                pif::PifItem item = pif::deserializeItem(wire, at);
                ASSERT_LT(n, encoded.items.size());
                EXPECT_EQ(item, encoded.items[n]);
                ++n;
            }
            EXPECT_EQ(n, encoded.items.size());
        }
    }
}

TEST_P(FuzzRoundTrip, ClauseSourceTextReparses)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    term::TermWriter writer(sym);
    TermFuzzer fuzzer(sym, GetParam() + 17);

    for (int i = 0; i < 100; ++i) {
        term::TermArena arena;
        std::vector<term::TermRef> args;
        for (int a = 0; a < 2; ++a)
            args.push_back(fuzzer.generate(arena));
        term::TermRef head = arena.makeStruct(sym.intern("h"), args);
        std::vector<term::TermRef> body;
        if (i % 3 == 0)
            body.push_back(fuzzer.generate(arena, 2));

        // Bodies must be callable; wrap non-callable random terms.
        if (!body.empty()) {
            term::TermKind k = arena.kind(body[0]);
            if (k != term::TermKind::Atom &&
                k != term::TermKind::Struct) {
                term::TermRef g = body[0];
                body[0] = arena.makeStruct(sym.intern("call_wrap"),
                                           std::span(&g, 1));
            }
        }
        term::Clause clause(std::move(arena), head, std::move(body));
        std::string text = writer.writeClause(clause);
        term::Clause back;
        ASSERT_NO_THROW(back = reader.parseClause(text))
            << "unparseable clause: " << text;
        EXPECT_EQ(writer.writeClause(back), text);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 12345u,
                                           0xdeadbeefu));

// ---------------------------------------------------------------------
// Decoded heads: host unification against a version's cell images must
// answer exactly what parse-then-wouldUnify answers, clause by clause.
// ---------------------------------------------------------------------

class HeadDecodeFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HeadDecodeFuzz, DecodedHeadsUnifyLikeTheOracle)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    TermFuzzer fuzzer(sym, GetParam() * 7919 + 5);
    const term::SymbolId h = sym.intern("h");

    term::Program program;
    for (int i = 0; i < 80; ++i) {
        term::TermArena arena;
        term::TermRef args[] = {fuzzer.generate(arena),
                                fuzzer.generate(arena)};
        term::TermRef head = arena.makeStruct(h, args);
        term::Clause clause(std::move(arena), head, {});

        // The cell image alone rebuilds the head.
        std::vector<term::Cell> cells;
        term::encodeCells(clause.arena(), clause.head(), cells);
        term::TermArena back;
        term::TermRef root = term::decodeCells(back, cells.data(), 0);
        EXPECT_TRUE(term::TermArena::equal(clause.arena(), clause.head(),
                                           back, root));
        program.add(std::move(clause));
    }
    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();
    const crs::StoredPredicate &stored =
        store.predicate(term::PredicateId{h, 2});

    std::size_t hits = 0;
    for (int g = 0; g < 40; ++g) {
        term::TermArena q;
        term::TermRef args[] = {fuzzer.generate(q, 1),
                                fuzzer.generate(q, 1)};
        term::TermRef goal = q.makeStruct(h, args);
        crs::HeadUnifier unifier(stored, sym, q, goal);
        for (std::uint32_t i = 0; i < stored.clauses.clauseCount(); ++i) {
            bool expect = unify::wouldUnify(
                q, goal, reader.parseClause(stored.clauses.sourceText(i)));
            EXPECT_EQ(unifier.unifies(i), expect)
                << "goal " << g << " clause "
                << stored.clauses.sourceText(i);
            hits += expect ? 1 : 0;
        }
    }
    // Shared variables and atoms make some pairs unify.
    EXPECT_GT(hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeadDecodeFuzz,
                         ::testing::Values(1u, 2u, 3u, 99u, 0xfeedu));

// ---------------------------------------------------------------------
// Store corruption and injected-fault sweeps.
// ---------------------------------------------------------------------

/** The per-mode answer sets of one fixed query against a server. */
std::vector<std::vector<std::uint32_t>>
answersPerMode(crs::ClauseRetrievalServer &server,
               term::SymbolTable &sym, const char *query)
{
    term::TermReader reader(sym);
    term::ParsedTerm q = reader.parseTerm(query);
    std::vector<std::vector<std::uint32_t>> out;
    for (crs::SearchMode mode : {crs::SearchMode::SoftwareOnly,
                                 crs::SearchMode::Fs1Only,
                                 crs::SearchMode::Fs2Only,
                                 crs::SearchMode::TwoStage})
        out.push_back(serveOne(server, q.arena, q.root, mode).answers);
    return out;
}

class StoreCorruptionFuzz : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    std::string dir_ = ::testing::TempDir() + "clare_fuzz_store";
    term::SymbolTable sym_;
    std::unique_ptr<crs::PredicateStore> store_;
    /** Pristine content of every store file, for restore after damage. */
    std::map<std::string, std::vector<std::uint8_t>> pristine_;
    std::vector<std::string> files_;
    std::vector<std::vector<std::uint32_t>> expected_;

    void
    SetUp() override
    {
        term::TermReader reader(sym_);
        term::Program program;
        for (auto &c : reader.parseProgram(
                 "p(a, 1).\np(b, 2).\np(a, 3).\np(c, 4).\n"
                 "q(a).\nq(b).\n"))
            program.add(std::move(c));
        store_ = std::make_unique<crs::PredicateStore>(
            sym_, scw::CodewordGenerator{});
        store_->addProgram(program);
        store_->finalize();
        crs::saveStore(dir_, *store_, sym_);

        for (const auto &dirent :
             std::filesystem::directory_iterator(dir_)) {
            std::string path = dirent.path().string();
            pristine_[path] = storage::readBytes(path);
            files_.push_back(path);
        }
        std::sort(files_.begin(), files_.end()); // iteration order varies

        crs::ClauseRetrievalServer server(sym_, *store_);
        expected_ = answersPerMode(server, sym_, "p(a, X)");
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }
};

TEST_P(StoreCorruptionFuzz, DamagedStoresFailTypedOrAnswerCorrectly)
{
    Rng rng(GetParam());
    for (int iter = 0; iter < 40; ++iter) {
        const std::string &victim = files_[rng.below(files_.size())];
        std::vector<std::uint8_t> bytes = pristine_[victim];
        switch (rng.below(3)) {
        case 0: // truncate
            bytes.resize(rng.below(bytes.size() + 1));
            break;
        case 1: { // flip one bit
            std::uint64_t bit = rng.below(bytes.size() * 8);
            bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            break;
        }
        default: { // zero a byte range
            std::size_t at = rng.below(bytes.size());
            std::size_t n = std::min<std::size_t>(
                bytes.size() - at,
                static_cast<std::size_t>(rng.range(1, 16)));
            std::fill(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                      bytes.begin() + static_cast<std::ptrdiff_t>(at + n),
                      0);
            break;
        }
        }
        storage::writeBytes(victim, bytes);

        try {
            term::SymbolTable fresh;
            crs::PredicateStore loaded = crs::loadStore(dir_, fresh);
            // The mutation slipped past the load (e.g. it re-created
            // the original bytes): retrieval through the loaded
            // bit-sliced plane must still be correct.
            crs::ClauseRetrievalServer server(fresh, loaded);
            EXPECT_EQ(answersPerMode(server, fresh, "p(a, X)"),
                      expected_)
                << "iteration " << iter << " on " << victim;
        } catch (const Error &) {
            // Typed rejection is the expected outcome.  Anything else
            // — a crash, an abort, an unknown exception — fails the
            // test at the harness level.
        }

        storage::writeBytes(victim, pristine_[victim]);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreCorruptionFuzz,
                         ::testing::Values(101u, 202u, 303u));

TEST(InjectedFaultSweep, NoSeedCrashesTheServer)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    std::string text;
    for (int i = 0; i < 80; ++i) {
        text += "p(k" + std::to_string(i % 6) + ", v" +
            std::to_string(i) + ").\n";
    }
    term::Program program;
    for (auto &c : reader.parseProgram(text))
        program.add(std::move(c));
    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();

    crs::ClauseRetrievalServer clean(sym, store);
    std::vector<std::vector<std::uint32_t>> expected =
        answersPerMode(clean, sym, "p(k2, V)");

    support::FaultConfig config;
    config.bitFlipRate = 0.3;
    config.transientReadRate = 0.3;
    config.delayRate = 0.2;
    int served = 0;
    for (config.seed = 1; config.seed <= 48; ++config.seed) {
        support::FaultInjector inj(config);
        crs::CrsConfig cfg;
        cfg.faults = &inj;
        crs::ClauseRetrievalServer faulty(sym, store, cfg);
        term::ParsedTerm q = reader.parseTerm("p(k2, V)");
        const crs::SearchMode modes[] = {crs::SearchMode::SoftwareOnly,
                                         crs::SearchMode::Fs1Only,
                                         crs::SearchMode::Fs2Only,
                                         crs::SearchMode::TwoStage};
        for (std::size_t m = 0; m < 4; ++m) {
            try {
                crs::RetrievalResponse r = serveOne(
                    faulty, q.arena, q.root, modes[m]);
                ++served;
                // Degraded or not, answers never change.
                EXPECT_EQ(r.answers, expected[m])
                    << "seed " << config.seed << " mode " << m;
            } catch (const IoError &) {
                // Bounded retries exhausted: typed, not a crash.
            }
        }
    }
    // The sweep must not degenerate into all-permanent failures.
    EXPECT_GT(served, 0);
}

// ---------------------------------------------------------------------
// Cache-interleave fuzz: random queries against a cache-enabled server
// with invalidating transactions mixed in, every answer checked
// against the ground-truth unification oracle.
// ---------------------------------------------------------------------

class CacheInterleaveFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheInterleaveFuzz, CachedAnswersAlwaysMatchTheOracle)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    std::string text;
    for (int p = 0; p < 3; ++p)
        for (int i = 0; i < 40; ++i) {
            text += "p" + std::to_string(p) + "(k" +
                std::to_string(i % 7) + ", v" + std::to_string(i % 11) +
                ").\n";
        }
    term::Program program;
    for (auto &c : reader.parseProgram(text))
        program.add(std::move(c));
    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();

    crs::CrsConfig config;
    config.cache.enabled = true;
    config.cache.goalCapacity = 8;      // small: force evictions too
    config.cache.survivorCapacity = 8;
    crs::ClauseRetrievalServer server(sym, store, config);
    crs::ClauseRetrievalServer plain(sym, store);
    crs::LockManager locks;

    // Goal pool: ground, half-ground, and fully variable shapes.
    std::vector<term::ParsedTerm> goals;
    for (int p = 0; p < 3; ++p) {
        for (int k = 0; k < 7; k += 2) {
            goals.push_back(reader.parseTerm(
                "p" + std::to_string(p) + "(k" + std::to_string(k) +
                ", X)"));
            goals.push_back(reader.parseTerm(
                "p" + std::to_string(p) + "(k" + std::to_string(k) +
                ", v" + std::to_string(k) + ")"));
        }
        goals.push_back(reader.parseTerm(
            "p" + std::to_string(p) + "(X, Y)"));
    }

    const crs::SearchMode modes[] = {crs::SearchMode::SoftwareOnly,
                                     crs::SearchMode::Fs1Only,
                                     crs::SearchMode::Fs2Only,
                                     crs::SearchMode::TwoStage};
    Rng rng(GetParam());
    for (int iter = 0; iter < 300; ++iter) {
        if (rng.chance(0.15)) {
            // An invalidating update transaction on a random predicate.
            term::PredicateId pred{
                sym.intern("p" + std::to_string(rng.below(3))), 2};
            crs::Transaction tx(locks, 1, &server);
            ASSERT_TRUE(tx.acquire(pred, crs::LockKind::Exclusive));
            tx.commit();
            continue;
        }
        const term::ParsedTerm &goal = goals[rng.below(goals.size())];
        crs::RetrievalRequest request;
        request.arena = &goal.arena;
        request.goal = goal.root;
        request.mode = modes[rng.below(4)];
        request.bypassCache = rng.chance(0.1);
        crs::RetrievalResponse got = server.serve(request);

        // Ground truth, recomputed from the program: the per-predicate
        // ordinals whose clause head truly unifies with the goal.
        term::PredicateId pred{goal.arena.functor(goal.root),
                               goal.arena.arity(goal.root)};
        std::vector<std::uint32_t> expected;
        std::uint32_t ordinal = 0;
        for (std::size_t ci : program.clausesOf(pred)) {
            if (unify::wouldUnify(goal.arena, goal.root,
                                  program.clause(ci)))
                expected.push_back(ordinal);
            ++ordinal;
        }
        EXPECT_EQ(got.answers, expected)
            << "iteration " << iter << " mode "
            << static_cast<int>(*request.mode)
            << (request.bypassCache ? " (bypass)" : "");

        // And the cached pipeline never diverges from a cache-free
        // server on any payload field.
        crs::RetrievalRequest same = request;
        same.bypassCache = false;
        crs::RetrievalResponse ref = plain.serve(same);
        EXPECT_EQ(got.candidates, ref.candidates) << "iteration " << iter;
        EXPECT_EQ(got.answers, ref.answers) << "iteration " << iter;
        EXPECT_EQ(got.indexEntriesScanned, ref.indexEntriesScanned)
            << "iteration " << iter;
        EXPECT_EQ(got.clausesExamined, ref.clausesExamined)
            << "iteration " << iter;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheInterleaveFuzz,
                         ::testing::Values(7u, 77u, 777u));

// ---------------------------------------------------------------------
// Arena-reset interleave: the serving tier's per-connection bump
// arenas rewind once per request while invalidating transactions race
// the shared caches.  Each serving thread replays the wire decode —
// reset, decode into the arena, serve — exactly as a NetServer
// connection does; a cached blob handle held across an invalidation
// must stay readable (the shared_ptr pins it) and byte-stable.
// ---------------------------------------------------------------------

TEST(ArenaInterleaveFuzz, ArenaResetRacesCacheInvalidationSafely)
{
    term::SymbolTable sym;
    term::TermReader reader(sym);
    std::string text;
    for (int p = 0; p < 3; ++p)
        for (int i = 0; i < 40; ++i) {
            text += "p" + std::to_string(p) + "(k" +
                std::to_string(i % 7) + ", v" + std::to_string(i % 11) +
                ").\n";
        }
    term::Program program;
    for (auto &c : reader.parseProgram(text))
        program.add(std::move(c));
    crs::PredicateStore store(sym, scw::CodewordGenerator{});
    store.addProgram(program);
    store.finalize();

    crs::CrsConfig config;
    config.cache.enabled = true;
    config.cache.goalCapacity = 8;
    config.cache.survivorCapacity = 8;
    crs::ClauseRetrievalServer server(sym, store, config);
    crs::LockManager locks;

    // Goals as wire bytes, their oracle answer sets precomputed, and
    // every synthetic "_W<slot>" variable name interned up front so
    // the threaded decodes only ever *look up* symbols.
    std::vector<std::vector<std::uint8_t>> wires;
    std::vector<std::vector<std::uint32_t>> expected;
    for (int p = 0; p < 3; ++p)
        for (int k = 0; k < 7; k += 3) {
            term::ParsedTerm goal = reader.parseTerm(
                "p" + std::to_string(p) + "(k" + std::to_string(k) +
                ", X)");
            wires.push_back(net::encodeGoal(goal.arena, goal.root));
            term::TermArena warmup;
            net::decodeGoal(wires.back(), sym, warmup, "fuzz");

            term::PredicateId pred{goal.arena.functor(goal.root),
                                   goal.arena.arity(goal.root)};
            std::vector<std::uint32_t> answers;
            std::uint32_t ordinal = 0;
            for (std::size_t ci : program.clausesOf(pred)) {
                if (unify::wouldUnify(goal.arena, goal.root,
                                      program.clause(ci)))
                    answers.push_back(ordinal);
                ++ordinal;
            }
            expected.push_back(std::move(answers));
        }

    constexpr int kThreads = 4;
    constexpr int kIterations = 200;
    std::atomic<bool> stop{false};
    std::vector<int> failures(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(1000 + static_cast<std::uint64_t>(t));
            term::TermArena arena; // this "connection"'s arena
            std::shared_ptr<const std::vector<std::uint8_t>> held;
            std::vector<std::uint8_t> heldBytes;
            for (int iter = 0; iter < kIterations; ++iter) {
                std::size_t g = rng.below(wires.size());
                arena.reset();
                term::TermRef goal;
                try {
                    goal = net::decodeGoal(wires[g], sym, arena,
                                           "fuzz");
                } catch (const Error &) {
                    ++failures[t];
                    continue;
                }
                crs::RetrievalRequest request;
                request.arena = &arena;
                request.goal = goal;
                request.mode = crs::SearchMode::TwoStage;
                crs::RetrievalResponse got = server.serve(request);
                if (got.answers != expected[g])
                    ++failures[t];
                // Pin one blob across future invalidations; it must
                // never change underneath the handle.
                if (got.replayBlob != nullptr && held == nullptr) {
                    held = got.replayBlob;
                    heldBytes = *held;
                } else if (held != nullptr && *held != heldBytes) {
                    ++failures[t];
                }
            }
        });
    }
    std::thread invalidator([&] {
        Rng rng(99);
        while (!stop.load()) {
            term::PredicateId pred{
                sym.lookup("p" + std::to_string(rng.below(3))), 2};
            crs::Transaction tx(locks, 1, &server);
            if (tx.acquire(pred, crs::LockKind::Exclusive))
                tx.commit();
            std::this_thread::yield();
        }
    });
    for (std::thread &thread : threads)
        thread.join();
    stop.store(true);
    invalidator.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(failures[t], 0) << "thread " << t;
}

// ---------------------------------------------------------------------
// Sliced-oracle fuzz: the word-parallel matcher vs the PLA plane.
// ---------------------------------------------------------------------

class SlicedOracleFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SlicedOracleFuzz, SlicedMatcherAgreesWithPlaMatcher)
{
    Rng rng(GetParam());
    for (int iter = 0; iter < 8; ++iter) {
        term::SymbolTable sym;
        scw::ScwConfig scw_config;
        const std::uint32_t widths[] = {8, 12, 16, 24, 32};
        scw_config.fieldBits = widths[rng.below(std::size(widths))];
        scw_config.bitsPerTerm =
            static_cast<std::uint32_t>(rng.range(1, 3));
        scw::CodewordGenerator gen(scw_config);

        workload::KbSpec spec;
        spec.predicates = 1;
        spec.clausesPerPredicate =
            static_cast<std::uint32_t>(rng.range(1, 260));
        spec.arityMin = static_cast<std::uint32_t>(rng.range(1, 6));
        // Sometimes past the 12-argument hardware encoding limit.
        spec.arityMax = spec.arityMin +
            static_cast<std::uint32_t>(rng.range(0, 9));
        spec.varProb = rng.uniform() * 0.7;     // mask density
        spec.structProb = rng.uniform() * 0.4;
        spec.seed = GetParam() * 1000 + static_cast<std::uint64_t>(iter);
        workload::KbGenerator kbgen(sym);
        term::Program program = kbgen.generate(spec);
        const auto &pred = program.predicates()[0];

        term::TermWriter writer(sym);
        storage::ClauseFileBuilder builder(writer);
        std::vector<scw::Signature> sigs;
        for (std::size_t i : program.clausesOf(pred)) {
            const term::Clause &c = program.clause(i);
            builder.add(c);
            sigs.push_back(gen.encode(c.arena(), c.head()));
        }
        storage::ClauseFile file = builder.finish();
        scw::SecondaryFile index =
            scw::SecondaryFile::build(gen, sigs, file);
        scw::BitSlicedIndex plane =
            scw::BitSlicedIndex::build(gen, index);

        workload::QuerySpec qspec;
        qspec.boundArgProb = rng.uniform();
        qspec.sharedVarProb = rng.uniform() * 0.5;
        qspec.seed = spec.seed + 7;
        workload::QueryGenerator qgen(sym, qspec);

        for (int q = 0; q < 4; ++q) {
            workload::GeneratedQuery gq = qgen.generate(program, pred);
            scw::Signature query = gen.encode(gq.arena, gq.goal);

            // Full file plus one random sub-range per query.
            std::size_t count = index.entryCount();
            std::size_t begin = rng.below(count + 1);
            std::size_t end = begin + rng.below(count - begin + 1);
            for (scw::EntryRange range :
                 {scw::EntryRange{0, count},
                  scw::EntryRange{begin, end}}) {
                fs1::PlaMatcher pla(gen);
                pla.setQuery(query);
                std::vector<std::uint32_t> want_offsets, want_ordinals;
                for (std::size_t i = range.begin; i < range.end; ++i) {
                    scw::IndexEntry entry = index.entry(gen, i);
                    if (pla.present(entry.signature)) {
                        want_offsets.push_back(entry.clauseOffset);
                        want_ordinals.push_back(entry.ordinal);
                    }
                }
                // Every kernel the host supports (the rest skipped).
                for (fs1::Fs1Kernel kernel : {fs1::Fs1Kernel::Scalar64,
                                              fs1::Fs1Kernel::Avx2,
                                              fs1::Fs1Kernel::Avx512}) {
                    if (!fs1::kernelSupported(kernel))
                        continue;
                    fs1::SlicedMatcher matcher(kernel);
                    fs1::SlicedMatcher::Hits got =
                        matcher.scanRange(plane, query, range);
                    EXPECT_EQ(got.clauseOffsets, want_offsets)
                        << fs1::kernelName(kernel) << " iter " << iter
                        << " query " << q << " range [" << range.begin
                        << ", " << range.end << ")";
                    EXPECT_EQ(got.ordinals, want_ordinals)
                        << fs1::kernelName(kernel) << " iter " << iter
                        << " query " << q << " range [" << range.begin
                        << ", " << range.end << ")";
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlicedOracleFuzz,
                         ::testing::Values(5u, 55u, 555u));

} // namespace
} // namespace clare
