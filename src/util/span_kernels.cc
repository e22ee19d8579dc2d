#include "util/span_kernels.hh"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "util/logging.hh"

namespace usfq::span
{

namespace
{

// The kernel loops, written once and stamped out per ISA.  GCC/Clang
// compile the plain loops under the target attribute, so the AVX2 and
// AVX-512 builds are auto-vectorized versions of exactly the scalar
// semantics (span_kernel_test pins the bit-identity).  The loops use
// only unaligned loads/stores -- callers pass arbitrary offsets.
#define USFQ_SPAN_KERNEL_IMPLS(suffix, target_attr)                     \
    target_attr void or_##suffix(std::uint64_t *dst,                    \
                                 const std::uint64_t *a,                \
                                 const std::uint64_t *b,                \
                                 std::size_t n)                         \
    {                                                                   \
        for (std::size_t i = 0; i < n; ++i)                             \
            dst[i] = a[i] | b[i];                                       \
    }                                                                   \
    target_attr void and_##suffix(std::uint64_t *dst,                   \
                                  const std::uint64_t *a,               \
                                  const std::uint64_t *b,               \
                                  std::size_t n)                        \
    {                                                                   \
        for (std::size_t i = 0; i < n; ++i)                             \
            dst[i] = a[i] & b[i];                                       \
    }                                                                   \
    target_attr void andnot_##suffix(std::uint64_t *dst,                \
                                     const std::uint64_t *a,            \
                                     const std::uint64_t *b,            \
                                     std::size_t n)                     \
    {                                                                   \
        for (std::size_t i = 0; i < n; ++i)                             \
            dst[i] = a[i] & ~b[i];                                      \
    }                                                                   \
    target_attr void not_##suffix(std::uint64_t *dst,                   \
                                  const std::uint64_t *a,               \
                                  std::size_t n)                        \
    {                                                                   \
        for (std::size_t i = 0; i < n; ++i)                             \
            dst[i] = ~a[i];                                             \
    }                                                                   \
    target_attr std::uint64_t popcount_##suffix(const std::uint64_t *a, \
                                                std::size_t n)          \
    {                                                                   \
        std::uint64_t total = 0;                                        \
        for (std::size_t i = 0; i < n; ++i)                             \
            total += static_cast<std::uint64_t>(                        \
                __builtin_popcountll(a[i]));                            \
        return total;                                                   \
    }

USFQ_SPAN_KERNEL_IMPLS(scalar, )

#if defined(__x86_64__) || defined(__i386__)
#define USFQ_HAVE_X86_DISPATCH 1
USFQ_SPAN_KERNEL_IMPLS(avx2, __attribute__((target("avx2"))))
USFQ_SPAN_KERNEL_IMPLS(
    avx512,
    __attribute__((target("avx512f,avx512bw,avx512vpopcntdq"))))
#else
#define USFQ_HAVE_X86_DISPATCH 0
#endif

#undef USFQ_SPAN_KERNEL_IMPLS

/** One ISA build's entry points. */
struct KernelTable
{
    void (*opOr)(std::uint64_t *, const std::uint64_t *,
                 const std::uint64_t *, std::size_t);
    void (*opAnd)(std::uint64_t *, const std::uint64_t *,
                  const std::uint64_t *, std::size_t);
    void (*opAndNot)(std::uint64_t *, const std::uint64_t *,
                     const std::uint64_t *, std::size_t);
    void (*opNot)(std::uint64_t *, const std::uint64_t *, std::size_t);
    std::uint64_t (*opPopcount)(const std::uint64_t *, std::size_t);
};

constexpr KernelTable kScalarTable{or_scalar, and_scalar, andnot_scalar,
                                   not_scalar, popcount_scalar};

#if USFQ_HAVE_X86_DISPATCH
constexpr KernelTable kAvx2Table{or_avx2, and_avx2, andnot_avx2, not_avx2,
                                 popcount_avx2};
constexpr KernelTable kAvx512Table{or_avx512, and_avx512, andnot_avx512,
                                   not_avx512, popcount_avx512};
#endif

const KernelTable &
tableFor(KernelLevel level)
{
#if USFQ_HAVE_X86_DISPATCH
    if (level == KernelLevel::Avx512)
        return kAvx512Table;
    if (level == KernelLevel::Avx2)
        return kAvx2Table;
#else
    (void)level;
#endif
    return kScalarTable;
}

bool
hostSupports(KernelLevel level)
{
    switch (level) {
      case KernelLevel::Scalar:
        return true;
      case KernelLevel::Avx2:
#if USFQ_HAVE_X86_DISPATCH
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
      case KernelLevel::Avx512:
#if USFQ_HAVE_X86_DISPATCH
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512bw") != 0 &&
               __builtin_cpu_supports("avx512vpopcntdq") != 0;
#else
        return false;
#endif
    }
    return false;
}

KernelLevel
resolveInitialLevel()
{
    KernelLevel level = bestSupportedKernel();
    if (const char *env = std::getenv("USFQ_SPAN_KERNEL")) {
        KernelLevel asked = level;
        if (std::strcmp(env, "scalar") == 0)
            asked = KernelLevel::Scalar;
        else if (std::strcmp(env, "avx2") == 0)
            asked = KernelLevel::Avx2;
        else if (std::strcmp(env, "avx512") == 0)
            asked = KernelLevel::Avx512;
        else
            warn("ignoring USFQ_SPAN_KERNEL=%s (want scalar, avx2 or "
                 "avx512)",
                 env);
        if (hostSupports(asked))
            level = asked;
        else
            warn("USFQ_SPAN_KERNEL=%s unsupported on this host; using "
                 "%s",
                 env, kernelName(level));
    }
    return level;
}

std::atomic<KernelLevel> &
activeLevel()
{
    static std::atomic<KernelLevel> level{resolveInitialLevel()};
    return level;
}

const KernelTable &
active()
{
    return tableFor(activeLevel().load(std::memory_order_relaxed));
}

} // namespace

const char *
kernelName(KernelLevel level)
{
    switch (level) {
      case KernelLevel::Scalar:
        return "scalar";
      case KernelLevel::Avx2:
        return "avx2";
      case KernelLevel::Avx512:
        return "avx512";
    }
    return "?";
}

KernelLevel
bestSupportedKernel()
{
    if (hostSupports(KernelLevel::Avx512))
        return KernelLevel::Avx512;
    if (hostSupports(KernelLevel::Avx2))
        return KernelLevel::Avx2;
    return KernelLevel::Scalar;
}

KernelLevel
activeKernel()
{
    return activeLevel().load(std::memory_order_relaxed);
}

bool
setSpanKernel(KernelLevel level)
{
    if (!hostSupports(level))
        return false;
    activeLevel().store(level, std::memory_order_relaxed);
    return true;
}

void
wordOr(std::uint64_t *dst, const std::uint64_t *a,
       const std::uint64_t *b, std::size_t n)
{
    active().opOr(dst, a, b, n);
}

void
wordAnd(std::uint64_t *dst, const std::uint64_t *a,
        const std::uint64_t *b, std::size_t n)
{
    active().opAnd(dst, a, b, n);
}

void
wordAndNot(std::uint64_t *dst, const std::uint64_t *a,
           const std::uint64_t *b, std::size_t n)
{
    active().opAndNot(dst, a, b, n);
}

void
wordNot(std::uint64_t *dst, const std::uint64_t *a, std::size_t n)
{
    active().opNot(dst, a, n);
}

std::uint64_t
wordPopcount(const std::uint64_t *a, std::size_t n)
{
    return active().opPopcount(a, n);
}

} // namespace usfq::span
