#include "oracle/row_major_scan.hh"

#include <cmath>

namespace clare::fs1 {

Fs1Result
rowMajorScan(const scw::CodewordGenerator &generator,
             const scw::SecondaryFile &index, const scw::Signature &query,
             double scan_rate)
{
    Fs1Result result;
    // One scratch register hoisted out of the loop: no per-entry
    // allocation, so the scan stays a fair host-rate baseline.
    scw::IndexEntry entry;
    for (std::size_t i = 0; i < index.entryCount(); ++i) {
        index.entryInto(generator, i, entry);
        if (generator.matches(query, entry.signature)) {
            result.clauseOffsets.push_back(entry.clauseOffset);
            result.ordinals.push_back(entry.ordinal);
        }
    }
    result.entriesScanned = index.entryCount();
    result.bytesScanned = index.image().size();
    result.busyTime = static_cast<Tick>(std::llround(
        static_cast<double>(result.bytesScanned) / scan_rate *
        static_cast<double>(kSecond)));
    return result;
}

} // namespace clare::fs1
