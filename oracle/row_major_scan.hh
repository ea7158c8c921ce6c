/**
 * @file
 * The row-major FS1 reference scan.
 *
 * Decodes every entry of a secondary file in file order and applies
 * the behavioural SCW+MB rule (CodewordGenerator::matches) to it — the
 * one-entry-at-a-time scan the bit-sliced Fs1Engine replaced.  Its
 * result is what the engine must reproduce exactly: survivors in file
 * order, entries and bytes scanned, and the busy time those bytes
 * take at the modeled scan rate.
 */

#ifndef CLARE_ORACLE_ROW_MAJOR_SCAN_HH
#define CLARE_ORACLE_ROW_MAJOR_SCAN_HH

#include "fs1/fs1_engine.hh"
#include "scw/codeword.hh"
#include "scw/index_file.hh"

namespace clare::fs1 {

/**
 * Scan all of @p index for @p query, one entry at a time.  busyTime is
 * the scanned bytes at @p scan_rate, rounded to the nearest tick.
 */
Fs1Result rowMajorScan(const scw::CodewordGenerator &generator,
                       const scw::SecondaryFile &index,
                       const scw::Signature &query,
                       double scan_rate = Fs1Config{}.scanRate);

} // namespace clare::fs1

#endif // CLARE_ORACLE_ROW_MAJOR_SCAN_HH
