#include "fs1/kernels.hh"

#include "support/cpu.hh"
#include "support/logging.hh"

#if defined(__x86_64__) || defined(__i386__)
#define CLARE_FS1_X86_KERNELS 1
#include <immintrin.h>
#endif

namespace clare::fs1 {

namespace {

/**
 * The scalar oracle: exactly the word loop the SlicedMatcher ran
 * before the registry existed.  Also the tail loop of the vector
 * kernels, so every kernel ends in this code for its last few words.
 */
void
blockScalar64(std::uint64_t *surv, const std::uint64_t *const *planes,
              std::size_t nplanes, const std::uint64_t *mask,
              std::size_t word_begin, std::size_t word_count)
{
    for (std::size_t j = 0; j < word_count; ++j) {
        const std::size_t w = word_begin + j;
        std::uint64_t acc = planes[0][w];
        for (std::size_t t = 1; t < nplanes; ++t)
            acc &= planes[t][w];
        surv[j] &= acc | mask[w];
    }
}

#ifdef CLARE_FS1_X86_KERNELS

__attribute__((target("avx2"))) void
blockAvx2(std::uint64_t *surv, const std::uint64_t *const *planes,
          std::size_t nplanes, const std::uint64_t *mask,
          std::size_t word_begin, std::size_t word_count)
{
    std::size_t j = 0;
    for (; j + 4 <= word_count; j += 4) {
        const std::size_t w = word_begin + j;
        __m256i acc = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(planes[0] + w));
        for (std::size_t t = 1; t < nplanes; ++t)
            acc = _mm256_and_si256(
                acc, _mm256_loadu_si256(
                         reinterpret_cast<const __m256i *>(planes[t] + w)));
        const __m256i m = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(mask + w));
        __m256i s = _mm256_loadu_si256(
            reinterpret_cast<__m256i *>(surv + j));
        s = _mm256_and_si256(s, _mm256_or_si256(acc, m));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(surv + j), s);
    }
    blockScalar64(surv + j, planes, nplanes, mask, word_begin + j,
                  word_count - j);
}

__attribute__((target("avx512f"))) void
blockAvx512(std::uint64_t *surv, const std::uint64_t *const *planes,
            std::size_t nplanes, const std::uint64_t *mask,
            std::size_t word_begin, std::size_t word_count)
{
    std::size_t j = 0;
    for (; j + 8 <= word_count; j += 8) {
        const std::size_t w = word_begin + j;
        __m512i acc = _mm512_loadu_si512(planes[0] + w);
        for (std::size_t t = 1; t < nplanes; ++t)
            acc = _mm512_and_epi64(acc,
                                   _mm512_loadu_si512(planes[t] + w));
        const __m512i m = _mm512_loadu_si512(mask + w);
        __m512i s = _mm512_loadu_si512(surv + j);
        s = _mm512_and_epi64(s, _mm512_or_epi64(acc, m));
        _mm512_storeu_si512(surv + j, s);
    }
    blockScalar64(surv + j, planes, nplanes, mask, word_begin + j,
                  word_count - j);
}

#endif // CLARE_FS1_X86_KERNELS

} // namespace

bool
kernelSupported(Fs1Kernel kernel)
{
    switch (kernel) {
      case Fs1Kernel::Auto:
      case Fs1Kernel::Scalar64:
        return true;
      case Fs1Kernel::Avx2:
#ifdef CLARE_FS1_X86_KERNELS
        return support::cpuFeatures().avx2;
#else
        return false;
#endif
      case Fs1Kernel::Avx512:
#ifdef CLARE_FS1_X86_KERNELS
        return support::cpuFeatures().avx512f;
#else
        return false;
#endif
    }
    return false;
}

Fs1Kernel
resolveKernel(Fs1Kernel kernel)
{
    if (kernel != Fs1Kernel::Auto)
        return kernel;
    if (kernelSupported(Fs1Kernel::Avx512))
        return Fs1Kernel::Avx512;
    if (kernelSupported(Fs1Kernel::Avx2))
        return Fs1Kernel::Avx2;
    return Fs1Kernel::Scalar64;
}

BlockKernelFn
kernelFn(Fs1Kernel kernel)
{
    kernel = resolveKernel(kernel);
    clare_assert(kernelSupported(kernel),
                 "FS1 kernel '%s' is not supported on this host",
                 kernelName(kernel));
    switch (kernel) {
#ifdef CLARE_FS1_X86_KERNELS
      case Fs1Kernel::Avx2:
        return &blockAvx2;
      case Fs1Kernel::Avx512:
        return &blockAvx512;
#endif
      default:
        return &blockScalar64;
    }
}

const char *
kernelName(Fs1Kernel kernel)
{
    switch (kernel) {
      case Fs1Kernel::Auto: return "auto";
      case Fs1Kernel::Scalar64: return "scalar64";
      case Fs1Kernel::Avx2: return "avx2";
      case Fs1Kernel::Avx512: return "avx512";
    }
    return "?";
}

EdgeMasks
edgeMasks(std::size_t begin, std::size_t end)
{
    clare_assert(begin < end,
                 "edge masks of an empty range [%zu, %zu)", begin, end);
    constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};
    EdgeMasks masks;
    masks.firstWord = begin / 64;
    masks.wordEnd = (end + 63) / 64;
    masks.lastWord = (end - 1) / 64;
    masks.firstMask = kAllOnes << (begin % 64);
    // A word-aligned end means the last word is full: the shift-based
    // expression would be kAllOnes >> 64 (undefined), so the aligned
    // case keeps the all-ones default explicitly.
    masks.lastMask = (end % 64) != 0
        ? kAllOnes >> (64 - end % 64)
        : kAllOnes;
    return masks;
}

} // namespace clare::fs1
