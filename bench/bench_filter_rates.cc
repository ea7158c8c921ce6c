/**
 * @file
 * Experiment R1 — the section-4 rate argument: FS1 scans at up to
 * 4.5 MB/s, FS2's worst case is ~4.25 MB/s (one 235 ns operation per
 * byte, the paper's accounting), and both exceed the ~2 MB/s peak SMD
 * disk rate, so the filters keep up with the disk.
 *
 * Beyond reproducing the arithmetic, this harness sweeps operation
 * mixes (per-op filter rates under the paper's per-byte convention),
 * reports the *effective* rate of the simulated engine over real
 * clause streams (bytes streamed / TUE busy time — much higher,
 * because a 5-byte item costs one operation), and sweeps disk speed
 * to find where the filter would start to overrun.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "fs1/fs1_engine.hh"
#include "fs2/datapath.hh"
#include "fs2/fs2_engine.hh"
#include "storage/clause_file.hh"
#include "support/table.hh"
#include "term/term_writer.hh"
#include "workload/kb_generator.hh"
#include "workload/query_generator.hh"

using namespace clare;
using unify::TueOp;

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    std::string json_path = bench::jsonPathArg(args);
    args.finish();
    json::Value json_rows = json::Value::array();

    // --- the paper's per-op arithmetic -----------------------------
    Table rates("Per-operation filter rate (paper convention: one "
                "operation per byte)");
    rates.header({"Operation", "ns/op", "Rate (MB/s)"});
    for (TueOp op : {TueOp::Match, TueOp::DbStore, TueOp::QueryStore,
                     TueOp::DbFetch, TueOp::QueryFetch,
                     TueOp::DbCrossBoundFetch,
                     TueOp::QueryCrossBoundFetch}) {
        double rate = 1e9 / static_cast<double>(
            fs2::operationTimeNs(op));
        rates.row({tueOpName(op),
                   std::to_string(fs2::operationTimeNs(op)),
                   Table::num(rate / 1e6, 2)});
        json::Value row = json::Value::object();
        row.set("sweep", "per_op_rate");
        row.set("op", tueOpName(op));
        row.set("ns_per_op", fs2::operationTimeNs(op));
        row.set("bytes_per_second", rate);
        json_rows.push(std::move(row));
    }
    rates.print(std::cout);

    double fs2_worst = fs2::worstCaseFilterRate();
    double fs1_rate = fs1::Fs1Config{}.scanRate;
    double smd = storage::DiskGeometry::fujitsuM2351A().transferRate;
    double scsi = storage::DiskGeometry::micropolis1325().transferRate;
    std::printf("\nFS1 scan rate:            %s (paper: up to "
                "4.5 MB/s)\n", bench::formatRate(fs1_rate).c_str());
    std::printf("FS2 worst-case rate:      %s (paper: ~4.25 MB/s)\n",
                bench::formatRate(fs2_worst).c_str());
    std::printf("SMD disk peak rate:       %s (paper: circa 2 MB/s)\n",
                bench::formatRate(smd).c_str());
    std::printf("SCSI disk rate:           %s\n",
                bench::formatRate(scsi).c_str());
    std::printf("=> FS2 worst case %s the SMD peak: the filter keeps "
                "up with the disk.\n\n",
                fs2_worst > smd ? "EXCEEDS" : "falls below");
    {
        json::Value row = json::Value::object();
        row.set("sweep", "headline_rates");
        row.set("fs1_scan_rate", fs1_rate);
        row.set("fs2_worst_rate", fs2_worst);
        row.set("smd_disk_rate", smd);
        row.set("scsi_disk_rate", scsi);
        json_rows.push(std::move(row));
    }

    // --- 8 MHz clock quantization ablation --------------------------
    // The WCS runs from an 8 MHz clock (125 ns); the paper's execution
    // times are asynchronous datapath delays.  A synchronously clocked
    // implementation would round every operation up to whole cycles:
    {
        Table clocked("Ablation: asynchronous datapath vs 8 MHz "
                      "synchronous clocking");
        clocked.header({"Operation", "Async (ns)", "Cycles @125ns",
                        "Clocked (ns)", "Clocked rate (MB/s)"});
        std::uint64_t worst_clocked = 0;
        for (TueOp op : {TueOp::Match, TueOp::DbStore,
                         TueOp::QueryStore, TueOp::DbFetch,
                         TueOp::QueryFetch, TueOp::DbCrossBoundFetch,
                         TueOp::QueryCrossBoundFetch}) {
            std::uint64_t async_ns = fs2::operationTimeNs(op);
            std::uint64_t cycles = (async_ns + 124) / 125;
            std::uint64_t clocked_ns = cycles * 125;
            worst_clocked = std::max(worst_clocked, clocked_ns);
            clocked.row({tueOpName(op), std::to_string(async_ns),
                         std::to_string(cycles),
                         std::to_string(clocked_ns),
                         Table::num(1e3 / static_cast<double>(
                             clocked_ns), 2)});
        }
        clocked.print(std::cout);
        std::printf("\nclocked worst case: %s — still above the 2 MB/s "
                    "disk, so the paper's\nconclusion survives "
                    "synchronous clocking (with less margin: %.2f vs "
                    "%.2f MB/s).\n\n",
                    bench::formatRate(1e9 / static_cast<double>(
                        worst_clocked)).c_str(),
                    1e3 / static_cast<double>(worst_clocked),
                    fs2::worstCaseFilterRate() / 1e6);
    }

    // --- effective rates over simulated clause streams -------------
    term::SymbolTable sym;
    term::TermWriter writer(sym);
    workload::KbGenerator kbgen(sym);

    Table effective("Effective FS2 rate over simulated clause streams "
                    "(bytes / TUE busy time)");
    effective.header({"Workload", "Clauses", "Bytes", "Ops", "Busy",
                      "Effective rate", "Overruns @2MB/s"});

    struct Mix
    {
        const char *name;
        double var_prob;
        double shared_prob;
        double struct_prob;
        double query_shared;
    };
    const Mix mixes[] = {
        {"ground facts, ground query", 0.0, 0.0, 0.1, 0.0},
        {"moderate vars", 0.2, 0.3, 0.2, 0.2},
        {"var-heavy, shared-var query", 0.4, 0.7, 0.3, 0.8},
    };

    for (const Mix &mix : mixes) {
        workload::KbSpec spec;
        spec.predicates = 1;
        spec.clausesPerPredicate = 800;
        spec.varProb = mix.var_prob;
        spec.sharedVarProb = mix.shared_prob;
        spec.structProb = mix.struct_prob;
        spec.seed = 9;
        term::Program program = kbgen.generate(spec);
        const auto &pred = program.predicates()[0];

        storage::ClauseFileBuilder builder(writer);
        for (std::size_t i : program.clausesOf(pred))
            builder.add(program.clause(i));
        storage::ClauseFile file = builder.finish();
        storage::DiskModel disk(storage::DiskGeometry::fujitsuM2351A());

        workload::QuerySpec qspec;
        qspec.boundArgProb = 0.4;
        qspec.sharedVarProb = mix.query_shared;
        workload::QueryGenerator qgen(sym, qspec);
        workload::GeneratedQuery q = qgen.generate(program, pred);

        fs2::Fs2Engine engine;
        engine.setQuery(q.arena, q.goal);
        fs2::Fs2SearchResult r = engine.search(file, &disk);

        std::uint64_t ops = 0;
        for (std::size_t i = 0; i < unify::kTueOpCount; ++i)
            if (static_cast<TueOp>(i) != TueOp::Skip)
                ops += r.ops[i];
        effective.row({mix.name, std::to_string(r.clausesExamined),
                       std::to_string(r.bytesStreamed),
                       std::to_string(ops),
                       bench::formatTime(r.tueBusyTime),
                       bench::formatRate(r.filterRate()),
                       std::to_string(r.overruns)});
        json::Value row = json::Value::object();
        row.set("sweep", "effective_rate");
        row.set("workload", mix.name);
        row.set("clauses", r.clausesExamined);
        row.set("bytes_streamed", r.bytesStreamed);
        row.set("tue_ops", ops);
        row.set("bytes_per_second", r.filterRate());
        row.set("overruns", static_cast<std::uint64_t>(r.overruns));
        json_rows.push(std::move(row));
    }
    effective.print(std::cout);

    // --- disk-rate sweep: where would FS2 start to overrun? --------
    Table sweep("Disk-rate sweep (var-heavy workload): stall vs "
                "overrun crossover");
    sweep.header({"Disk rate", "Elapsed", "Engine stall", "Overruns"});
    workload::KbSpec spec;
    spec.predicates = 1;
    spec.clausesPerPredicate = 600;
    spec.varProb = 0.4;
    spec.sharedVarProb = 0.7;
    spec.seed = 10;
    term::Program program = kbgen.generate(spec);
    const auto &pred = program.predicates()[0];
    storage::ClauseFileBuilder builder(writer);
    for (std::size_t i : program.clausesOf(pred))
        builder.add(program.clause(i));
    storage::ClauseFile file = builder.finish();

    workload::QuerySpec qspec;
    qspec.boundArgProb = 0.3;
    qspec.sharedVarProb = 0.8;
    workload::QueryGenerator qgen(sym, qspec);
    workload::GeneratedQuery q = qgen.generate(program, pred);

    for (double mbps : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
        storage::DiskGeometry geometry =
            storage::DiskGeometry::fujitsuM2351A();
        geometry.transferRate = mbps * 1e6;
        storage::DiskModel disk(geometry);

        fs2::Fs2Engine engine;
        engine.setQuery(q.arena, q.goal);
        fs2::Fs2SearchResult r = engine.search(file, &disk);
        sweep.row({Table::num(mbps, 1) + " MB/s",
                   bench::formatTime(r.elapsed),
                   bench::formatTime(r.stallTime),
                   std::to_string(r.overruns)});
        json::Value row = json::Value::object();
        row.set("sweep", "disk_rate");
        row.set("disk_bytes_per_second", mbps * 1e6);
        row.set("elapsed_ticks", r.elapsed);
        row.set("stall_ticks", r.stallTime);
        row.set("overruns", static_cast<std::uint64_t>(r.overruns));
        json_rows.push(std::move(row));
    }
    sweep.print(std::cout);
    std::printf("\nShape check: at the paper's 2 MB/s the engine only "
                "stalls (disk-bound);\noverruns appear only far beyond "
                "the era's disk rates.\n");
    if (!bench::writeBenchJson(json_path, "filter_rates",
                               std::move(json_rows)))
        return 1;
    return 0;
}
