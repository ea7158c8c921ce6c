/**
 * @file
 * Experiments F6-F12 — the timing-calculation boxes of figures 6
 * through 12: per-operation datapath routes with per-component
 * delays, cycle-by-cycle critical paths, and the closing comparison
 * or memory write, exactly as the paper prints them.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "fs2/datapath.hh"
#include "support/table.hh"
#include "unify/tue_op.hh"

using namespace clare;
using unify::TueOp;

namespace {

std::string
routeWithDelays(const fs2::Route &route)
{
    if (route.legs.empty())
        return "(set in an earlier cycle)";
    std::string s;
    for (std::size_t i = 0; i < route.legs.size(); ++i) {
        if (i)
            s += " -> ";
        s += fs2::componentName(route.legs[i]);
        s += "(" + std::to_string(
            fs2::componentDelayNs(route.legs[i])) + ")";
    }
    s += "  = " + std::to_string(route.delayNs());
    return s;
}

const char *
finalActionName(fs2::FinalAction action)
{
    switch (action) {
      case fs2::FinalAction::Comparison: return "comparison";
      case fs2::FinalAction::DbMemoryWrite: return "DB Memory write";
      case fs2::FinalAction::QueryMemoryWrite:
        return "Query Memory write";
    }
    return "?";
}

std::uint64_t
finalActionNs(fs2::FinalAction action)
{
    switch (action) {
      case fs2::FinalAction::Comparison:
        return fs2::componentDelayNs(fs2::Component::Comparator);
      case fs2::FinalAction::DbMemoryWrite:
        return fs2::componentDelayNs(fs2::Component::DbMemoryWrite);
      case fs2::FinalAction::QueryMemoryWrite:
        return fs2::componentDelayNs(fs2::Component::QueryMemoryWrite);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args(argc, argv).finish();
    const struct { TueOp op; std::uint64_t paper; } rows[] = {
        {TueOp::Match, 105},
        {TueOp::DbStore, 95},
        {TueOp::QueryStore, 115},
        {TueOp::DbFetch, 105},
        {TueOp::QueryFetch, 170},
        {TueOp::DbCrossBoundFetch, 170},
        {TueOp::QueryCrossBoundFetch, 235},
    };

    bool all_match = true;
    for (const auto &row : rows) {
        const fs2::OperationSpec &spec = fs2::operationSpec(row.op);
        std::printf("Figure %d: Timing Calculation for the %s "
                    "Operation\n", spec.figure, tueOpName(row.op));
        for (std::size_t c = 0; c < spec.cycles.size(); ++c) {
            if (spec.cycles.size() > 1)
                std::printf("  cycle %zu (critical path %llu ns):\n",
                            c + 1,
                            static_cast<unsigned long long>(
                                spec.cycles[c].delayNs()));
            std::printf("    database route : %s\n",
                        routeWithDelays(spec.cycles[c].dbRoute).c_str());
            std::printf("    query route    : %s\n",
                        routeWithDelays(spec.cycles[c].queryRoute)
                            .c_str());
        }
        std::uint64_t total = spec.executionTimeNs();
        std::printf("    %s (=%llu)\n", finalActionName(spec.finalAction),
                    static_cast<unsigned long long>(
                        finalActionNs(spec.finalAction)));
        std::printf("  execution time = %llu ns   (paper: %llu ns)  %s\n\n",
                    static_cast<unsigned long long>(total),
                    static_cast<unsigned long long>(row.paper),
                    total == row.paper ? "[match]" : "[DIVERGES]");
        all_match = all_match && total == row.paper;
    }

    Table summary("Component propagation delays (from the figures)");
    summary.header({"Component", "Delay (ns)"});
    for (fs2::Component c : {fs2::Component::DoubleBufferOut,
                             fs2::Component::Sel1,
                             fs2::Component::QueryMemoryRead,
                             fs2::Component::QueryMemoryWrite,
                             fs2::Component::DbMemoryRead,
                             fs2::Component::DbMemoryWrite,
                             fs2::Component::Reg1,
                             fs2::Component::Comparator}) {
        summary.row({fs2::componentName(c),
                     std::to_string(fs2::componentDelayNs(c))});
    }
    summary.print(std::cout);

    std::printf("\nAll figure totals %s the paper.\n",
                all_match ? "MATCH" : "DIVERGE from");
    return all_match ? 0 : 1;
}
