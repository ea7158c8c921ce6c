#include "storage/clause_file.hh"

#include <algorithm>
#include <cstdio>

#include "support/crc32.hh"
#include "support/errors.hh"
#include "support/logging.hh"

namespace clare::storage {

namespace {

void
putU16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint16_t
getU16(const std::vector<std::uint8_t> &in, std::size_t at)
{
    return static_cast<std::uint16_t>(in[at] | (in[at + 1] << 8));
}

std::uint32_t
getU32(const std::vector<std::uint8_t> &in, std::size_t at)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(in[at + i]) << (8 * i);
    return v;
}

} // namespace

const ClauseRecord &
ClauseFile::record(std::size_t i) const
{
    clare_assert(i < records_.size(), "clause index %zu out of range", i);
    return records_[i];
}

ClauseRecord
ClauseFile::parseHeader(const std::vector<std::uint8_t> &image,
                        std::size_t offset)
{
    if (offset + kRecordHeaderBytes > image.size())
        clare_fatal("clause record header truncated at offset %zu",
                    offset);
    ClauseRecord rec;
    rec.offset = static_cast<std::uint32_t>(offset);
    rec.ordinal = getU32(image, offset);
    rec.functor = getU32(image, offset + 4);
    rec.arity = image[offset + 8];
    rec.flags = image[offset + 9];
    rec.itemCount = getU16(image, offset + 10);
    std::uint32_t item_bytes = getU32(image, offset + 12);
    std::uint32_t source_bytes = getU32(image, offset + 16);
    rec.length = static_cast<std::uint32_t>(kRecordHeaderBytes) +
        item_bytes + source_bytes;
    if (offset + rec.length > image.size())
        clare_fatal("clause record body truncated at offset %zu", offset);
    return rec;
}

void
ClauseFile::decodeArgsInto(std::size_t i, pif::EncodedArgs &out) const
{
    // This is the boundary between stored bytes and the engine: a
    // clause-file v1 image has no page checksums, so a flipped byte
    // arrives here undetected.  Every structural property the engine
    // relies on is validated with a typed CorruptionError — the
    // engine's own guards are clare_assert backstops, not error
    // reporting.
    //
    // One walk over the items.  Item framing faults throw at once;
    // a variable slot out of range and an in-line complex argument
    // short of elements are noted and reported after the walk, in
    // that order, and the argument count last, so a record with
    // several faults always reports the same one.
    const ClauseRecord &rec = record(i);
    auto fail = [](std::size_t at, const std::string &why) {
        throw CorruptionError(
            "clause image", at / support::kChecksumPageBytes, at, why);
    };
    auto hex_tag = [](pif::Tag tag) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "0x%02x",
                      static_cast<unsigned>(tag));
        return std::string(buf);
    };
    const std::size_t items_at = rec.offset + kRecordHeaderBytes;
    // Byte offset of decoded item @p k, recomputed on the error path
    // only, so the walk keeps no per-item offsets.
    auto offset_of = [&out, items_at](std::size_t k) {
        std::size_t at = items_at;
        for (std::size_t j = 0; j < k; ++j)
            at += out.items[j].wireBytes();
        return at;
    };
    const std::size_t n = rec.itemCount;
    const std::size_t rec_end = std::min<std::size_t>(
        static_cast<std::size_t>(rec.offset) + rec.length, image_.size());

    out.items.clear();
    out.argIndex.clear();
    out.varSlots = 0;

    std::size_t bad_slot = n;       // first variable slot out of range
    std::size_t short_arg = n;      // in-line complex argument overrun
    std::size_t next_arg = 0;       // item where the next argument starts
    std::uint32_t max_slot = 0;
    bool any_var = false;
    std::size_t at = items_at;
    for (std::size_t k = 0; k < n; ++k) {
        if (at >= rec_end)
            fail(at, "PIF stream truncated after " + std::to_string(k) +
                     " of " + std::to_string(n) + " items");
        pif::PifItem item;
        item.tag = image_[at];
        if (!pif::isValidTag(item.tag))
            fail(at, "invalid PIF tag " + hex_tag(item.tag));
        const pif::TagClass cls = pif::tagClass(item.tag);
        if (cls == pif::TagClass::FirstQueryVar ||
            cls == pif::TagClass::SubQueryVar)
            fail(at, "query-variable tag " + hex_tag(item.tag) +
                     " in a database stream");
        const std::size_t bytes = pif::classHasExtension(cls) ? 9 : 5;
        if (at + bytes > rec_end)
            fail(at, "PIF item overruns the record body");
        item.content = getU32(image_, at + 1);
        if (bytes == 9)
            item.extension = getU32(image_, at + 5);
        at += bytes;

        if (cls == pif::TagClass::FirstDbVar ||
            cls == pif::TagClass::SubDbVar) {
            // Slots are assigned densely from zero, one per distinct
            // variable, so a slot at or past the item count can only
            // come from a corrupted content word — and would size the
            // TUE binding memory arbitrarily.
            if (item.content >= n && bad_slot == n)
                bad_slot = k;
            any_var = true;
            max_slot = std::max(max_slot, item.content);
        }
        if (k == next_arg) {
            // An argument header: an in-line complex one spans its
            // elements too.
            out.argIndex.push_back(k);
            std::size_t width = 1;
            if (pif::isInlineComplexClass(cls))
                width += pif::tagArity(item.tag);
            if (k + width > n)
                short_arg = k;
            next_arg = k + width;
        }
        out.items.push_back(item);
    }

    if (bad_slot != n)
        fail(offset_of(bad_slot),
             "variable slot " +
                 std::to_string(out.items[bad_slot].content) +
                 " out of range for a record of " + std::to_string(n) +
                 " items");
    if (short_arg != n)
        fail(offset_of(short_arg),
             "in-line complex item needs " +
                 std::to_string(pif::tagArity(out.items[short_arg].tag)) +
                 " elements but only " +
                 std::to_string(n - short_arg - 1) + " items follow");
    if (out.argIndex.size() != rec.arity)
        fail(rec.offset, "decoded " + std::to_string(out.argIndex.size()) +
                         " arguments but record arity is " +
                         std::to_string(rec.arity));
    out.varSlots = any_var ? max_slot + 1 : 0;
}

pif::EncodedArgs
ClauseFile::decodeArgs(std::size_t i) const
{
    pif::EncodedArgs args;
    decodeArgsInto(i, args);
    return args;
}

std::string
ClauseFile::sourceText(std::size_t i) const
{
    const ClauseRecord &rec = record(i);
    std::uint32_t item_bytes = getU32(image_, rec.offset + 12);
    std::uint32_t source_bytes = getU32(image_, rec.offset + 16);
    std::size_t at = rec.offset + kRecordHeaderBytes + item_bytes;
    return std::string(image_.begin() + static_cast<std::ptrdiff_t>(at),
                       image_.begin() +
                       static_cast<std::ptrdiff_t>(at + source_bytes));
}

void
ClauseFileBuilder::add(const term::Clause &clause)
{
    term::PredicateId pred = clause.predicate();
    if (!havePredicate_) {
        file_.predicate_ = pred;
        havePredicate_ = true;
    } else if (!(pred == file_.predicate_)) {
        clare_fatal("clause file mixes predicates (functor %u/%u vs "
                    "%u/%u)", pred.functor, pred.arity,
                    file_.predicate_.functor, file_.predicate_.arity);
    }
    if (pred.arity > 255)
        clare_fatal("predicate arity %u exceeds the record limit",
                    pred.arity);

    pif::EncodedArgs args = encoder_.encodeArgs(clause.arena(),
                                                clause.head(),
                                                pif::Side::Db);
    std::vector<std::uint8_t> items;
    for (const auto &item : args.items)
        pif::serializeItem(item, items);
    std::string source = writer_.writeClause(clause);

    ClauseRecord rec;
    rec.ordinal = firstOrdinal_ +
        static_cast<std::uint32_t>(file_.records_.size());
    rec.offset = static_cast<std::uint32_t>(file_.image_.size());
    rec.functor = pred.functor;
    rec.arity = static_cast<std::uint8_t>(pred.arity);
    rec.flags = static_cast<std::uint8_t>(
        (clause.isFact() ? 0x01 : 0x00) |
        (clause.isGroundFact() ? 0x02 : 0x00));
    if (args.items.size() > 0xffff)
        clare_fatal("clause head compiles to %zu PIF items (limit 65535)",
                    args.items.size());
    rec.itemCount = static_cast<std::uint16_t>(args.items.size());
    rec.length = static_cast<std::uint32_t>(
        kRecordHeaderBytes + items.size() + source.size());

    putU32(file_.image_, rec.ordinal);
    putU32(file_.image_, rec.functor);
    file_.image_.push_back(rec.arity);
    file_.image_.push_back(rec.flags);
    putU16(file_.image_, rec.itemCount);
    putU32(file_.image_, static_cast<std::uint32_t>(items.size()));
    putU32(file_.image_, static_cast<std::uint32_t>(source.size()));
    file_.image_.insert(file_.image_.end(), items.begin(), items.end());
    file_.image_.insert(file_.image_.end(), source.begin(), source.end());
    file_.records_.push_back(rec);
}

ClauseFile
ClauseFileBuilder::finish()
{
    ClauseFile out = std::move(file_);
    file_ = ClauseFile();
    havePredicate_ = false;
    return out;
}

ClauseFile
ClauseFile::concat(const ClauseFile &base, const ClauseFile &tail)
{
    if (base.clauseCount() == 0)
        return tail;
    if (tail.clauseCount() == 0)
        return base;
    clare_assert(base.predicate_ == tail.predicate_,
                 "concatenating clause files of different predicates");
    clare_assert(tail.records_.front().ordinal ==
                     base.records_.size(),
                 "tail ordinals start at %u, base holds %zu clauses",
                 tail.records_.front().ordinal, base.records_.size());
    ClauseFile out;
    out.predicate_ = base.predicate_;
    out.image_.reserve(base.image_.size() + tail.image_.size());
    out.image_ = base.image_;
    out.image_.insert(out.image_.end(), tail.image_.begin(),
                      tail.image_.end());
    out.records_ = base.records_;
    out.records_.reserve(base.records_.size() + tail.records_.size());
    std::uint32_t shift = static_cast<std::uint32_t>(base.image_.size());
    for (ClauseRecord rec : tail.records_) {
        rec.offset += shift;    // directory-only; not in the wire bytes
        out.records_.push_back(rec);
    }
    return out;
}

} // namespace clare::storage
