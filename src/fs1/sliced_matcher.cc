#include "fs1/sliced_matcher.hh"

#include <bit>

#include "support/logging.hh"

namespace clare::fs1 {

namespace {

/**
 * Words evaluated per block (16 K entries).  Small enough that the
 * block's survivor words stay cache-resident while every touched
 * field folds into them, large enough that the loop overhead
 * amortizes.
 */
constexpr std::size_t kBlockWords = 256;

constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};

} // namespace

SlicedMatcher::SlicedMatcher(Fs1Kernel kernel)
    : kernel_(resolveKernel(kernel)), kernelFn_(kernelFn(kernel_))
{
}

SlicedMatcher::QueryPlan
SlicedMatcher::buildPlan(const scw::BitSlicedIndex &plane,
                         const scw::Signature &query)
{
    clare_assert(query.fields.size() == plane.fields(),
                 "query signature layout mismatch: %zu fields for a "
                 "%u-field plane", query.fields.size(), plane.fields());
    QueryPlan plan;
    for (std::uint32_t f = 0; f < plane.fields(); ++f) {
        const BitVec &code = query.fields[f];
        FieldPlan field;
        for (std::uint32_t b = 0; b < plane.fieldBits(); ++b)
            if (code.test(b))
                field.planes.push_back(plane.codePlane(f, b));
        // A field with no query bits constrains nothing (the empty
        // code is a subset of every clause code), exactly like the
        // behavioural rule — its planes are never loaded.
        if (field.planes.empty())
            continue;
        field.mask = plane.maskPlane(f);
        plan.fields.push_back(std::move(field));
    }
    return plan;
}

void
SlicedMatcher::scanBlock(const scw::BitSlicedIndex &plane,
                         const QueryPlan &plan, std::size_t word_begin,
                         std::size_t word_count,
                         std::uint64_t first_mask, std::size_t last_word,
                         std::uint64_t last_mask, Hits &out)
{
    if (surv_.size() < word_count)
        surv_.resize(word_count);
    for (std::size_t j = 0; j < word_count; ++j)
        surv_[j] = kAllOnes;
    // Edge masking: a shard range need not start or end on a word
    // boundary, and the final word of the file has slack bits past the
    // last entry.  Clearing them up front keeps the kernel branch-free
    // and makes partial ranges concatenate bit-identically.
    surv_[0] &= first_mask;
    if (last_word >= word_begin && last_word < word_begin + word_count)
        surv_[last_word - word_begin] &= last_mask;

    for (const FieldPlan &field : plan.fields) {
        kernelFn_(surv_.data(), field.planes.data(),
                  field.planes.size(), field.mask, word_begin,
                  word_count);
        // The activity counter models 64-bit plane operations, so it
        // is kernel-independent: a vector kernel fuses several words
        // per host op but the modeled hardware still touches every
        // word of every plane row.
        out.wordOps += static_cast<std::uint64_t>(word_count) *
            (field.planes.size() + 1);
    }

    for (std::size_t j = 0; j < word_count; ++j) {
        std::uint64_t w = surv_[j];
        const std::size_t base = (word_begin + j) * 64;
        while (w != 0) {
            const std::size_t e =
                base + static_cast<std::size_t>(std::countr_zero(w));
            out.clauseOffsets.push_back(plane.clauseOffset(e));
            out.ordinals.push_back(plane.ordinal(e));
            w &= w - 1;
        }
    }
}

SlicedMatcher::Hits
SlicedMatcher::scanRange(const scw::BitSlicedIndex &plane,
                         const scw::Signature &query,
                         const scw::EntryRange &range)
{
    Hits out;
    if (range.begin >= range.end)
        return out;
    clare_assert(range.end <= plane.entryCount(),
                 "entry range [%zu, %zu) exceeds plane of %zu entries",
                 range.begin, range.end, plane.entryCount());
    const QueryPlan plan = buildPlan(plane, query);

    const EdgeMasks masks = edgeMasks(range.begin, range.end);
    for (std::size_t bw = masks.firstWord; bw < masks.wordEnd;
         bw += kBlockWords) {
        const std::size_t count = std::min(kBlockWords,
                                           masks.wordEnd - bw);
        scanBlock(plane, plan, bw, count,
                  bw == masks.firstWord ? masks.firstMask : kAllOnes,
                  masks.lastWord, masks.lastMask, out);
    }
    return out;
}

} // namespace clare::fs1
