#include "kb.hh"

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "crs/store_io.hh"
#include "scw/codeword.hh"
#include "storage/wal.hh"
#include "support/random.hh"
#include "term/canonical.hh"
#include "term/term_reader.hh"
#include "workload/kb_generator.hh"

namespace clarebench {

using namespace clare;

GeneratedKb
generateKb(const KbShape &shape, std::uint64_t seed)
{
    GeneratedKb kb;
    kb.symbols = std::make_unique<term::SymbolTable>();
    workload::KbGenerator gen(*kb.symbols);
    Rng rng(seed);
    for (std::uint32_t i = 0; i < shape.predicates; ++i) {
        workload::KbSpec spec;
        spec.clausesPerPredicate = shape.clausesPerPredicate;
        spec.arityMin = spec.arityMax = 2 + i % 3;
        if (shape.ruleIntensiveEvery != 0 &&
            i % shape.ruleIntensiveEvery == shape.ruleIntensiveEvery - 1) {
            spec.ruleFraction = 0.75;
            spec.varProb = 0.3;
        }
        gen.generatePredicate(kb.program, spec, i, rng);
    }
    return kb;
}

crs::RetrievalRequest
Goal::request() const
{
    crs::RetrievalRequest r;
    r.arena = &arena;
    r.goal = term;
    return r;
}

bool
bindsAnArgument(const Goal &goal)
{
    const term::TermArena &a = goal.arena;
    if (a.kind(goal.term) != term::TermKind::Struct)
        return true;
    for (std::uint32_t i = 0; i < a.arity(goal.term); ++i)
        if (a.kind(a.arg(goal.term, i)) != term::TermKind::Var)
            return true;
    return false;
}

Goal
makeGoal(workload::QueryGenerator &gen, const GeneratedKb &kb,
         const term::PredicateId &pred)
{
    workload::GeneratedQuery q = gen.generate(kb.program, pred);
    Goal g;
    g.arena = std::move(q.arena);
    g.term = q.goal;
    g.pred = pred;
    g.key = term::canonicalKey(g.arena, g.term);
    return g;
}

std::vector<Goal>
keyedGoals(GeneratedKb &kb, std::size_t count, std::uint64_t seed)
{
    workload::QuerySpec spec;
    spec.boundArgProb = 0.6;
    spec.sharedVarProb = 0.0;
    spec.perturbProb = 0.1;
    spec.seed = seed;
    workload::QueryGenerator gen(*kb.symbols, spec);
    Rng pick(seed ^ 0x5bd1e995u);
    const std::vector<term::PredicateId> &preds = kb.program.predicates();
    std::vector<Goal> goals;
    std::set<std::string> seen;
    while (goals.size() < count) {
        Goal g = makeGoal(gen, kb, preds[pick.below(preds.size())]);
        if (bindsAnArgument(g) && seen.insert(g.key).second)
            goals.push_back(std::move(g));
    }
    return goals;
}

void
checkGate(Run &run, term::SymbolTable &symbols,
          const crs::PredicateStore &store, const std::vector<Goal> &goals,
          const std::vector<Sample> &gate, const crs::CacheConfig &cache)
{
    crs::ClauseRetrievalServer reference(symbols, store, crs::CrsConfig{});
    for (const Sample &s : gate) {
        crs::RetrievalResponse ref = reference.serve(goals[s.goal].request());
        if (!legalResponse(s.response, ref, cache))
            run.mismatch(run.args.workload + " goal " +
                         std::to_string(s.goal) +
                         " differs from the reference server");
    }
    std::printf("gate %zu sampled responses checked against the reference "
                "server\n", gate.size());
}

void
saveKb(const GeneratedKb &kb, const std::string &dir)
{
    crs::PredicateStore store(*kb.symbols,
                              scw::CodewordGenerator(scw::ScwConfig{}));
    store.addProgram(kb.program);
    store.finalize();
    crs::saveStore(dir, store, *kb.symbols);
}

LoadedStore
loadKb(const std::string &dir)
{
    LoadedStore out;
    out.symbols = std::make_unique<term::SymbolTable>();
    out.store = std::make_unique<crs::PredicateStore>(
        crs::loadStore(dir, *out.symbols));
    return out;
}

std::size_t
CommitOps::userBytes() const
{
    std::size_t n = 0;
    for (const std::string &s : asserts)
        n += s.size();
    for (const std::string &s : retracts)
        n += s.size();
    return n;
}

WriterPlan::WriterPlan(const crs::PredicateStore &store,
                       const term::SymbolTable &symbols)
{
    if (store.predicates().empty())
        throw std::runtime_error("writer plan over an empty store");
    const term::PredicateId &pred = store.predicates().front();
    name_ = symbols.name(pred.functor);
    arity_ = pred.arity;
}

CommitOps
WriterPlan::next()
{
    // Integers far above KbSpec::integerRange: no generated clause or
    // goal argument equals them, and integers intern no symbol.
    std::string fact = name_ + "(";
    for (std::uint32_t a = 0; a < arity_; ++a) {
        if (a != 0)
            fact += ",";
        fact += std::to_string(1000000 + commit_);
    }
    fact += ")";

    CommitOps ops;
    ops.asserts.push_back(fact + ".");
    live_.push_back(fact);
    if (commit_ % 4 == 3) {
        for (int k = 0; k < 4 && !live_.empty(); ++k) {
            ops.retracts.push_back(live_.front());
            live_.pop_front();
        }
    }
    ++commit_;
    return ops;
}

void
applyCommit(crs::LiveStore &live, term::SymbolTable &symbols,
            const CommitOps &ops)
{
    term::TermReader reader(symbols);
    crs::LiveStore::Update update = live.begin();
    for (const std::string &text : ops.asserts)
        update.assertz(reader.parseClause(text));
    for (const std::string &text : ops.retracts) {
        term::Clause pattern = reader.parseClause(text + ".");
        if (!update.retract(pattern.arena(), pattern.head()))
            throw std::runtime_error("writer retract found no clause " +
                                     text);
    }
    update.commit();
}

namespace {

constexpr std::size_t kProbeCommits = 256;
/**
 * Generations the snapshot probes pin: as loaded, and mid-group, when
 * the predicate holds some of the probe's facts.
 */
constexpr std::uint64_t kSnapshotGenerations[] = {0, 3, 17, 66, 255};

} // namespace

WriteProbe
writeProbe(Run &run, crs::PredicateStore &store, term::SymbolTable &symbols,
           crs::ClauseRetrievalServer &server,
           const std::vector<const Goal *> &goals, Digest &digest)
{
    WriteProbe out;
    const std::uint64_t base = store.headGeneration();
    {
        crs::LiveStore live(store, symbols, run.scratch.sub("probe.wal"));
        live.attachSink(&server);
        WriterPlan plan(store, symbols);
        for (std::size_t i = 0; i < kProbeCommits; ++i) {
            CommitOps ops = plan.next();
            Clock::time_point t0 = Clock::now();
            {
                Scope span(run.spans, "crs.live.commit", 0, i);
                applyCommit(live, symbols, ops);
            }
            out.latencyUs.add(microsBetween(t0, Clock::now()));
            out.ops.push_back(std::move(ops));
        }
    }
    run.attempted += kProbeCommits;

    crs::ClauseRetrievalServer reference(symbols, store, crs::CrsConfig{});
    for (std::uint64_t gen : kSnapshotGenerations) {
        for (std::size_t g = 0; g < goals.size(); ++g) {
            crs::RetrievalRequest req = goals[g]->request();
            req.snapshot = base + gen;
            crs::RetrievalResponse got = server.serve(req);
            crs::RetrievalResponse ref = reference.serve(req);
            if (!legalResponse(got, ref, server.config().cache))
                run.mismatch("snapshot probe goal " + std::to_string(g) +
                             " at generation " + std::to_string(gen) +
                             " differs from the reference server");
            digest.add(ref);
        }
    }
    return out;
}

namespace {

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

} // namespace

WalProbe
walProbe(const std::vector<CommitOps> &ops, const std::string &path,
         SpanLog &spans)
{
    std::filesystem::remove(path);
    storage::Wal wal(path);
    std::size_t userBytes = 0;
    Samples commitUs;
    std::vector<std::uint8_t> payload;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const CommitOps &c = ops[i];
        userBytes += c.userBytes();
        Clock::time_point t0 = Clock::now();
        {
            Scope span(spans, "storage.wal.commit", 0, i);
            // Record payloads as storage/wal.hh documents them.
            for (const std::string &text : c.asserts) {
                payload.clear();
                payload.push_back(0); // assertz: not at the front
                putU32(payload, static_cast<std::uint32_t>(text.size()));
                payload.insert(payload.end(), text.begin(), text.end());
                wal.append(storage::Wal::RecordKind::Assert, payload);
            }
            for (const std::string &text : c.retracts) {
                std::string name = text.substr(0, text.find('('));
                std::uint32_t arity = static_cast<std::uint32_t>(
                    std::count(text.begin(), text.end(), ',') + 1);
                payload.clear();
                putU32(payload, arity);
                putU32(payload, 0); // ordinal: the group's oldest clause
                putU32(payload, static_cast<std::uint32_t>(name.size()));
                payload.insert(payload.end(), name.begin(), name.end());
                wal.append(storage::Wal::RecordKind::Retract, payload);
            }
            wal.commit();
        }
        commitUs.add(microsBetween(t0, Clock::now()));
    }
    WalProbe out;
    out.commitUs = commitUs.mean();
    std::uintmax_t walBytes = std::filesystem::file_size(path);
    out.bytesPerUserByte = userBytes == 0
        ? 0.0
        : static_cast<double>(walBytes) / static_cast<double>(userBytes);
    return out;
}

} // namespace clarebench
