/**
 * @file
 * The FS1 scan-kernel registry: one block kernel per vector ISA.
 *
 * A block kernel evaluates the per-field survivor update of the
 * bit-sliced match rule over a run of plane words:
 *
 *     surv[j] &= (AND over t of planes[t][word_begin + j])
 *                | mask[word_begin + j]          for j in [0, count)
 *
 * The update is a pure AND/OR lattice over the same 64-bit words in
 * every kernel, so widening it to 256-bit (AVX2) or 512-bit (AVX-512)
 * lanes cannot change a single survivor bit — the kernels differ only
 * in host CPU cost.  Edge masking (partial first/last words of a
 * shard range, slack bits past the last entry) is applied to the
 * survivor words by the caller *before* the kernel runs, which keeps
 * every kernel branch-free over full words and makes per-lane edge
 * handling trivial: an edge word is just a survivor word with bits
 * already cleared.
 *
 * Kernel selection is a runtime decision: the FS1 engine always runs
 * `Auto`, which resolves to the widest ISA the host supports.
 * Explicit kernels exist so the equivalence tests and benches can run
 * each supported one side by side; kernelFn() asserts on the rest.
 * The scalar kernel is always available.
 */

#ifndef CLARE_FS1_KERNELS_HH
#define CLARE_FS1_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace clare::fs1 {

/** Selectable FS1 block kernels. */
enum class Fs1Kernel : std::uint8_t
{
    Auto,       ///< widest supported ISA (the default)
    Scalar64,   ///< one 64-bit word per op (always available)
    Avx2,       ///< four words per op
    Avx512,     ///< eight words per op
};

/**
 * One field's survivor update over a block of words (see file
 * comment).  @p surv is indexed from 0; the plane rows from
 * @p word_begin.  @p nplanes >= 1.
 */
using BlockKernelFn = void (*)(std::uint64_t *surv,
                               const std::uint64_t *const *planes,
                               std::size_t nplanes,
                               const std::uint64_t *mask,
                               std::size_t word_begin,
                               std::size_t word_count);

/** Can this kernel run on the host?  (Auto and Scalar64 always can.) */
bool kernelSupported(Fs1Kernel kernel);

/** Resolve Auto to the widest supported kernel; others pass through. */
Fs1Kernel resolveKernel(Fs1Kernel kernel);

/**
 * The block function of a kernel.  @p kernel must be supported;
 * Auto is resolved first.
 */
BlockKernelFn kernelFn(Fs1Kernel kernel);

/** Stable lowercase name ("auto", "scalar64", "avx2", "avx512"). */
const char *kernelName(Fs1Kernel kernel);

/**
 * Word geometry and edge masks of an entry range [begin, end), shared
 * by every kernel and by the scan drivers.  All four partial-word
 * cases derive from one place:
 *
 *  - begin mid-word: firstMask keeps bits [begin % 64, 64)
 *  - end mid-word: lastMask keeps bits [0, end % 64)
 *  - end word-aligned (end % 64 == 0): lastMask is all-ones (the
 *    last word is full)
 *  - begin and end in the same word: the caller ANDs both masks into
 *    that single word, keeping exactly bits [begin % 64, end % 64)
 *
 * Callers must not invoke this on an empty range (begin >= end):
 * lastWord would underflow at end == 0.
 */
struct EdgeMasks
{
    std::size_t firstWord = 0;      ///< begin / 64
    std::size_t wordEnd = 0;        ///< exclusive: (end + 63) / 64
    std::size_t lastWord = 0;       ///< (end - 1) / 64 (inclusive)
    std::uint64_t firstMask = ~std::uint64_t{0};
    std::uint64_t lastMask = ~std::uint64_t{0};

    std::size_t wordCount() const { return wordEnd - firstWord; }
};

/** Derive the edge masks of a non-empty entry range [begin, end). */
EdgeMasks edgeMasks(std::size_t begin, std::size_t end);

} // namespace clare::fs1

#endif // CLARE_FS1_KERNELS_HH
