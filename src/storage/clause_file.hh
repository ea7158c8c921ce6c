/**
 * @file
 * The compiled clause file: one predicate's clauses in PIF, in source
 * order, framed for on-the-fly filtering.
 *
 * "Predicates with the same functor names and arities are stored in a
 * compiled clause file" (section 2.1).  Each record carries the
 * compiled head-argument stream that FS2 matches, plus the clause's
 * source text so the host can reconstruct the full clause (head and
 * body).  The retrieval path reads that text only the first time a
 * clause becomes a candidate of a store version, to decode its head
 * for host unification (crs::DecodedHeads); every later candidate
 * unifies against the decoded cells.  The other readers of the text
 * are KB resolution (kb::KnowledgeBase, which the clare_shell example
 * drives), live-update compaction, and the WAL, whose records carry
 * clause text as their replay currency.
 *
 * FS2 and the host's software scan read the compiled argument stream
 * of each examined record through one walker, decodeArgsInto(): it
 * validates the record's stored bytes on every touch and decodes the
 * 5- and 9-byte PIF items into a caller-owned scratch EncodedArgs, so
 * the search loop makes no heap allocation per clause — the host
 * model's counterpart of the paper's filtering "on the fly" as
 * records stream off the disk (section 3, Search mode).
 *
 * Record wire layout (little endian):
 *
 *   u32 ordinal       clause position within the predicate
 *   u32 functor       symbol-table offset of the head functor
 *   u8  arity
 *   u8  flags         bit0 = fact (no body), bit1 = ground fact
 *   u16 itemCount     number of PIF items that follow
 *   u32 itemBytes     wire size of the PIF items
 *   u32 sourceBytes   length of the source text
 *   ...PIF items...
 *   ...source text...
 */

#ifndef CLARE_STORAGE_CLAUSE_FILE_HH
#define CLARE_STORAGE_CLAUSE_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pif/encoder.hh"
#include "term/clause.hh"
#include "term/term_writer.hh"

namespace clare::storage {

/** Size of the fixed record header in bytes. */
constexpr std::size_t kRecordHeaderBytes = 4 + 4 + 1 + 1 + 2 + 4 + 4;

/** Per-clause directory entry of a clause file. */
struct ClauseRecord
{
    std::uint32_t ordinal = 0;
    std::uint32_t offset = 0;       ///< byte offset of the record
    std::uint32_t length = 0;       ///< total record bytes
    std::uint32_t functor = 0;
    std::uint8_t arity = 0;
    std::uint8_t flags = 0;
    std::uint16_t itemCount = 0;

    bool isFact() const { return flags & 0x01; }
    bool isGroundFact() const { return flags & 0x02; }
};

/**
 * An immutable compiled clause file plus its record directory.
 *
 * The byte image is what the disk stores and the filters stream; the
 * directory is what the host (and FS1's address list) uses to fetch
 * individual clauses.
 */
class ClauseFile
{
  public:
    ClauseFile() = default;

    const std::vector<std::uint8_t> &image() const { return image_; }
    std::size_t clauseCount() const { return records_.size(); }
    const ClauseRecord &record(std::size_t i) const;

    term::PredicateId predicate() const { return predicate_; }

    /**
     * The record walker: validate and decode the compiled
     * head-argument stream of clause @p i into @p out, reusing the
     * capacity of out.items and out.argIndex, so a caller that keeps
     * one scratch EncodedArgs across records decodes without heap
     * allocation once it has seen the widest record.
     *
     * Every touch validates: a truncated stream, an invalid or
     * query-side tag, an item overrunning the record, a variable slot
     * out of range, an in-line complex item short of elements, or an
     * argument count other than the record's arity throws
     * CorruptionError naming the page and byte offset of the fault.
     * After a throw @p out holds no usable record.
     */
    void decodeArgsInto(std::size_t i, pif::EncodedArgs &out) const;

    /** decodeArgsInto() into a fresh EncodedArgs. */
    pif::EncodedArgs decodeArgs(std::size_t i) const;

    /** The stored source text of clause @p i. */
    std::string sourceText(std::size_t i) const;

    /** Parse one record starting at @p offset of an arbitrary image. */
    static ClauseRecord parseHeader(const std::vector<std::uint8_t> &image,
                                    std::size_t offset);

    /**
     * Concatenate two clause files of one predicate into a composite
     * whose byte image equals base.image() + tail.image() — the live
     * write path appends assertz deltas this way.  The tail must have
     * been built with first_ordinal == base.clauseCount() (the record
     * ordinals live inside the wire bytes, so numbering is fixed at
     * build time); the result is then byte-identical to rebuilding
     * the whole predicate from scratch.  An empty base yields tail.
     */
    static ClauseFile concat(const ClauseFile &base,
                             const ClauseFile &tail);

  private:
    friend class ClauseFileBuilder;
    friend ClauseFile loadClauseFile(const std::string &path);

    term::PredicateId predicate_;
    std::vector<std::uint8_t> image_;
    std::vector<ClauseRecord> records_;
};

/** Builds a clause file for one predicate, preserving clause order. */
class ClauseFileBuilder
{
  public:
    /**
     * @param writer renders clause source text for the host-side copy
     * @param first_ordinal ordinal of the first clause added — the
     *        live write path builds *delta* files whose numbering
     *        continues a base file's, so ClauseFile::concat yields an
     *        image byte-identical to a from-scratch rebuild
     */
    explicit ClauseFileBuilder(const term::TermWriter &writer,
                               std::uint32_t first_ordinal = 0)
        : writer_(writer), firstOrdinal_(first_ordinal)
    {}

    /** Append a clause; all clauses must share one predicate. */
    void add(const term::Clause &clause);

    /** Number of clauses added so far. */
    std::size_t size() const { return file_.records_.size(); }

    /** Finish and return the file (builder becomes empty). */
    ClauseFile finish();

  private:
    const term::TermWriter &writer_;
    pif::Encoder encoder_;
    ClauseFile file_;
    bool havePredicate_ = false;
    std::uint32_t firstOrdinal_ = 0;
};

} // namespace clare::storage

#endif // CLARE_STORAGE_CLAUSE_FILE_HH
