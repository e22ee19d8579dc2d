/**
 * @file
 * Contiguous-span word kernels for func::PulseStream, the packed
 * slot bitmap the counting models are checked against.
 *
 * Every op works on a span of raw uint64 words and is implemented
 * three times -- a portable scalar loop, an AVX2 build, and an
 * AVX-512 build of the same loop -- behind one runtime-dispatched
 * function table.  The three builds are the *same* C++ loop compiled
 * for different ISAs, so they are bit-identical by construction;
 * tests/span_kernel_test.cpp pins that anyway by running every
 * supported level against the scalar reference.
 *
 * Dispatch: the best level the host supports is selected on first use.
 * The USFQ_SPAN_KERNEL environment variable (scalar|avx2|avx512)
 * forces a lower level -- the differential tests use it to compare
 * the SIMD paths against the portable fallback -- and setSpanKernel()
 * does the same programmatically.
 *
 * None of the kernels assume alignment: callers may pass any offset
 * into a buffer (the span-kernel property test fuzzes unaligned spans
 * and partial tails on purpose).  Window/tail masking is the caller's
 * job -- these are raw word ops.
 */

#ifndef USFQ_UTIL_SPAN_KERNELS_HH
#define USFQ_UTIL_SPAN_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace usfq::span
{

/** One ISA build of the kernel set, in increasing capability order. */
enum class KernelLevel
{
    Scalar, ///< portable C++ loop, no ISA assumptions
    Avx2,   ///< the same loops compiled for AVX2
    Avx512, ///< the same loops compiled for AVX-512F/BW/VPOPCNTDQ
};

/** Stable lower-case name ("scalar", "avx2", "avx512"). */
const char *kernelName(KernelLevel level);

/** The best level this host can execute. */
KernelLevel bestSupportedKernel();

/**
 * The level currently dispatched to.  On first call this resolves to
 * bestSupportedKernel() unless USFQ_SPAN_KERNEL names a lower one.
 */
KernelLevel activeKernel();

/**
 * Force dispatch to @p level; returns false (and changes nothing) if
 * the host cannot execute it.  Tests use this to diff the SIMD builds
 * against the portable fallback.
 */
bool setSpanKernel(KernelLevel level);

// --- the kernels -------------------------------------------------------------
//
// All spans are n words long; dst may alias a or b exactly (full
// overlap), never partially.

/** dst[i] = a[i] | b[i] */
void wordOr(std::uint64_t *dst, const std::uint64_t *a,
            const std::uint64_t *b, std::size_t n);

/** dst[i] = a[i] & b[i] */
void wordAnd(std::uint64_t *dst, const std::uint64_t *a,
             const std::uint64_t *b, std::size_t n);

/** dst[i] = a[i] & ~b[i] */
void wordAndNot(std::uint64_t *dst, const std::uint64_t *a,
                const std::uint64_t *b, std::size_t n);

/** dst[i] = ~a[i] */
void wordNot(std::uint64_t *dst, const std::uint64_t *a, std::size_t n);

/** Total popcount of the span. */
std::uint64_t wordPopcount(const std::uint64_t *a, std::size_t n);

} // namespace usfq::span

#endif // USFQ_UTIL_SPAN_KERNELS_HH
