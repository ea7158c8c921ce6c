#include "oracle/pla_matcher.hh"

#include "support/logging.hh"

namespace clare::fs1 {

void
FieldMatchCell::loadComparand(const BitVec &query_code)
{
    comparand_ = query_code;
}

bool
FieldMatchCell::evaluate(const BitVec &clause_code,
                         bool clause_masked) const
{
    // The OR plane: the clause mask bit overrides the subset test.
    if (clause_masked)
        return true;
    // The AND plane: every comparand bit must find its clause bit —
    // (Q & ~C) == 0, computed bit-parallel in hardware.
    return comparand_.subsetOf(clause_code);
}

PlaMatcher::PlaMatcher(scw::CodewordGenerator generator)
    : generator_(std::move(generator)),
      cells_(generator_.config().encodedArgs)
{
}

void
PlaMatcher::setQuery(const scw::Signature &query)
{
    clare_assert(query.fields.size() == cells_.size(),
                 "query signature layout mismatch: %zu fields for %zu "
                 "cells", query.fields.size(), cells_.size());
    for (std::size_t f = 0; f < cells_.size(); ++f)
        cells_[f].loadComparand(query.fields[f]);
    queryLoaded_ = true;
}

bool
PlaMatcher::present(const scw::Signature &clause)
{
    clare_assert(queryLoaded_, "entry presented before Set Query");
    clare_assert(clause.fields.size() == cells_.size(),
                 "clause signature layout mismatch");

    // All cells evaluate in parallel; the reduction tree ANDs their
    // match lines.  (Hardware evaluates every cell every entry; the
    // model does too, so the activity counter reflects the plane's
    // real switching, not a short-circuit.)
    bool hit = true;
    for (std::size_t f = 0; f < cells_.size(); ++f) {
        ++cellEvaluations_;
        if (!cells_[f].evaluate(clause.fields[f], clause.masked(
                static_cast<std::uint32_t>(f)))) {
            hit = false;
        }
    }
    if (hit)
        ++addressLatches_;
    return hit;
}

std::vector<scw::IndexEntry>
PlaMatcher::streamFile(const scw::SecondaryFile &index)
{
    std::vector<scw::IndexEntry> matches;
    scw::IndexEntry entry;
    for (std::size_t i = 0; i < index.entryCount(); ++i) {
        index.entryInto(generator_, i, entry);
        if (present(entry.signature))
            matches.push_back(entry);
    }
    return matches;
}

} // namespace clare::fs1
