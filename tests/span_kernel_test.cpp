// Fuzz the runtime-dispatched span kernels (util/span_kernels.hh)
// against naive scalar references, across every kernel level the host
// supports, unaligned span starts, and lengths that exercise partial
// SIMD tails.  The SIMD builds must be bit-identical to the portable
// fallback -- the kernel level is never allowed to change a single bit.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.hh"
#include "util/span_kernels.hh"

using namespace usfq;

namespace
{

// --- naive references (independent of the kernel implementations) ---

std::vector<std::uint64_t>
refBinary(const std::vector<std::uint64_t> &a,
          const std::vector<std::uint64_t> &b, int op)
{
    std::vector<std::uint64_t> out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        switch (op) {
          case 0: out[i] = a[i] | b[i]; break;
          case 1: out[i] = a[i] & b[i]; break;
          default: out[i] = a[i] & ~b[i]; break;
        }
    }
    return out;
}

std::uint64_t
refPopcount(const std::vector<std::uint64_t> &a)
{
    std::uint64_t total = 0;
    for (std::uint64_t w : a)
        for (int bit = 0; bit < 64; ++bit)
            total += (w >> bit) & 1;
    return total;
}

std::vector<span::KernelLevel>
supportedLevels()
{
    std::vector<span::KernelLevel> levels{span::KernelLevel::Scalar};
    if (span::bestSupportedKernel() >= span::KernelLevel::Avx2)
        levels.push_back(span::KernelLevel::Avx2);
    if (span::bestSupportedKernel() >= span::KernelLevel::Avx512)
        levels.push_back(span::KernelLevel::Avx512);
    return levels;
}

/** Restore the dispatched level when a test section ends. */
class KernelGuard
{
  public:
    KernelGuard() : saved(span::activeKernel()) {}
    ~KernelGuard() { span::setSpanKernel(saved); }

  private:
    span::KernelLevel saved;
};

std::vector<std::uint64_t>
randomWords(Rng &rng, std::size_t n)
{
    std::vector<std::uint64_t> out(n);
    for (auto &w : out)
        w = rng.next();
    return out;
}

// Lengths that cover empty spans, sub-vector tails, exact SIMD blocks
// and off-by-one around them (AVX-512 processes 8 words per lane op).
const std::size_t kLengths[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17,
                                31, 32, 63, 64, 65, 200, 257};

} // namespace

TEST(SpanKernels, NamesAndSupportOrder)
{
    EXPECT_STREQ(span::kernelName(span::KernelLevel::Scalar), "scalar");
    EXPECT_STREQ(span::kernelName(span::KernelLevel::Avx2), "avx2");
    EXPECT_STREQ(span::kernelName(span::KernelLevel::Avx512), "avx512");
    // Scalar is always executable; forcing it and coming back works.
    KernelGuard guard;
    EXPECT_TRUE(span::setSpanKernel(span::KernelLevel::Scalar));
    EXPECT_EQ(span::activeKernel(), span::KernelLevel::Scalar);
    EXPECT_TRUE(span::setSpanKernel(span::bestSupportedKernel()));
}

TEST(SpanKernels, BinaryOpsMatchReferenceAtEveryLevel)
{
    KernelGuard guard;
    Rng rng(0xb175d1ceULL);
    for (span::KernelLevel level : supportedLevels()) {
        ASSERT_TRUE(span::setSpanKernel(level));
        for (std::size_t n : kLengths) {
            for (int trial = 0; trial < 8; ++trial) {
                // Random word offsets break 64-byte alignment so the
                // SIMD builds see unaligned loads.
                const std::size_t offA = rng.uniformInt(0, 7);
                const std::size_t offB = rng.uniformInt(0, 7);
                const std::size_t offD = rng.uniformInt(0, 7);
                const auto bufA = randomWords(rng, n + 8);
                const auto bufB = randomWords(rng, n + 8);
                const std::vector<std::uint64_t> a(
                    bufA.begin() + static_cast<std::ptrdiff_t>(offA),
                    bufA.begin() + static_cast<std::ptrdiff_t>(offA + n));
                const std::vector<std::uint64_t> b(
                    bufB.begin() + static_cast<std::ptrdiff_t>(offB),
                    bufB.begin() + static_cast<std::ptrdiff_t>(offB + n));
                std::vector<std::uint64_t> dst(n + 8, 0xfeedu);
                for (int op = 0; op < 3; ++op) {
                    const auto expect = refBinary(a, b, op);
                    std::uint64_t *d = dst.data() + offD;
                    switch (op) {
                      case 0:
                        span::wordOr(d, bufA.data() + offA,
                                     bufB.data() + offB, n);
                        break;
                      case 1:
                        span::wordAnd(d, bufA.data() + offA,
                                      bufB.data() + offB, n);
                        break;
                      default:
                        span::wordAndNot(d, bufA.data() + offA,
                                         bufB.data() + offB, n);
                        break;
                    }
                    for (std::size_t i = 0; i < n; ++i)
                        ASSERT_EQ(d[i], expect[i])
                            << span::kernelName(level) << " op " << op
                            << " n " << n << " word " << i;
                }
            }
        }
    }
}

TEST(SpanKernels, UnaryOpsMatchReferenceAtEveryLevel)
{
    KernelGuard guard;
    Rng rng(0x0131u);
    for (span::KernelLevel level : supportedLevels()) {
        ASSERT_TRUE(span::setSpanKernel(level));
        for (std::size_t n : kLengths) {
            const std::size_t off = rng.uniformInt(0, 7);
            const auto buf = randomWords(rng, n + 8);
            std::vector<std::uint64_t> dst(n + 8, 0);
            span::wordNot(dst.data(), buf.data() + off, n);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(dst[i], ~buf[off + i])
                    << span::kernelName(level) << " n " << n;
        }
    }
}

TEST(SpanKernels, PopcountsMatchReferenceAtEveryLevel)
{
    KernelGuard guard;
    Rng rng(0xc0117u);
    for (span::KernelLevel level : supportedLevels()) {
        ASSERT_TRUE(span::setSpanKernel(level));
        for (std::size_t n : kLengths) {
            const std::size_t offA = rng.uniformInt(0, 7);
            const auto bufA = randomWords(rng, n + 8);
            const std::vector<std::uint64_t> a(
                bufA.begin() + static_cast<std::ptrdiff_t>(offA),
                bufA.begin() + static_cast<std::ptrdiff_t>(offA + n));
            EXPECT_EQ(span::wordPopcount(bufA.data() + offA, n),
                      refPopcount(a));
        }
    }
}

TEST(SpanKernels, ExactAliasingIsSupported)
{
    KernelGuard guard;
    Rng rng(0xa11a5u);
    for (span::KernelLevel level : supportedLevels()) {
        ASSERT_TRUE(span::setSpanKernel(level));
        const std::size_t n = 67;
        const auto a0 = randomWords(rng, n);
        const auto b0 = randomWords(rng, n);
        // dst aliases a.
        auto a = a0;
        span::wordOr(a.data(), a.data(), b0.data(), n);
        EXPECT_EQ(a, refBinary(a0, b0, 0));
        // dst aliases b.
        auto b = b0;
        span::wordAndNot(b.data(), a0.data(), b.data(), n);
        EXPECT_EQ(b, refBinary(a0, b0, 2));
        // In-place NOT.
        auto c = a0;
        span::wordNot(c.data(), c.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(c[i], ~a0[i]);
    }
}

TEST(SpanKernels, AllSupportedLevelsAgreeBitForBit)
{
    KernelGuard guard;
    Rng rng(0x5eedu);
    const auto levels = supportedLevels();
    for (std::size_t n : kLengths) {
        const auto a = randomWords(rng, n);
        const auto b = randomWords(rng, n);
        std::vector<std::vector<std::uint64_t>> results;
        std::vector<std::uint64_t> pops;
        for (span::KernelLevel level : levels) {
            ASSERT_TRUE(span::setSpanKernel(level));
            std::vector<std::uint64_t> dst(n);
            span::wordAndNot(dst.data(), a.data(), b.data(), n);
            results.push_back(std::move(dst));
            pops.push_back(span::wordPopcount(a.data(), n));
        }
        for (std::size_t l = 1; l < results.size(); ++l) {
            EXPECT_EQ(results[l], results[0])
                << span::kernelName(levels[l]);
            EXPECT_EQ(pops[l], pops[0]);
        }
    }
}
