/**
 * @file
 * Algebraic property tests of the functional engine's counting
 * kernels (core/encoding.hh, core/fir.hh): the laws the paper's unary
 * arithmetic promises -- commutativity, monotonicity, linearity,
 * superposition -- plus the encode/decode round-trip identities of the
 * packed PulseStream (src/func/stream.hh).
 *
 * These are pure-model tests (no event queue): together with
 * differential_test.cpp (which locks the kernels to the pulse-level
 * netlists) they freeze the functional backend's semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/dpu.hh"
#include "core/encoding.hh"
#include "core/fir.hh"
#include "func/stream.hh"
#include "util/random.hh"

namespace usfq
{
namespace
{

/** treeNetworkCount on a copy: the kernel reduces its input in place. */
int
treeCountOf(std::vector<int> counts)
{
    return treeNetworkCount(counts);
}

// --- multiplier commutativity ------------------------------------------------

TEST(FuncProperty, UnipolarMultiplyCommutes)
{
    // floor(n * id / N) is symmetric in (n, id): swapping the stream
    // and RL operands cannot change the product.  Exhaustive to 5 bits.
    for (int bits = 1; bits <= 5; ++bits) {
        const EpochConfig cfg(bits);
        for (int n = 0; n <= cfg.nmax(); ++n)
            for (int id = 0; id <= cfg.nmax(); ++id)
                EXPECT_EQ(unipolarProductCount(cfg, n, id),
                          unipolarProductCount(cfg, id, n))
                    << "bits=" << bits << " n=" << n << " id=" << id;
    }
}

TEST(FuncProperty, UnipolarProductBoundedByOperands)
{
    const EpochConfig cfg(6);
    for (int n = 0; n <= cfg.nmax(); ++n)
        for (int id = 0; id <= cfg.nmax(); ++id) {
            const int p = unipolarProductCount(cfg, n, id);
            EXPECT_LE(p, std::min(n, id));
            EXPECT_GE(p, 0);
        }
}

// --- counting-network monotonicity -------------------------------------------

TEST(FuncProperty, CountingTreeMonotone)
{
    // Feeding any input one more pulse can never lower the output.
    Rng rng(0xfadedu);
    for (int trial = 0; trial < 400; ++trial) {
        const int m = 1 << rng.uniformInt(1, 4); // 2..16
        std::vector<int> counts;
        for (int i = 0; i < m; ++i)
            counts.push_back(static_cast<int>(rng.uniformInt(0, 32)));
        const int base = treeCountOf(counts);
        const std::size_t bump =
            static_cast<std::size_t>(rng.uniformInt(0, m - 1));
        counts[bump] += 1;
        EXPECT_GE(treeCountOf(counts), base)
            << "m=" << m << " bumped input " << bump;
    }
}

TEST(FuncProperty, CountingTreeAveragesWithinDepthRounding)
{
    // Output = sum/m with at most one ceiling per tree level, and equal
    // inputs divide exactly.
    Rng rng(0xbeadu);
    for (int trial = 0; trial < 400; ++trial) {
        const int m = 1 << rng.uniformInt(1, 4);
        std::vector<int> counts;
        int sum = 0;
        for (int i = 0; i < m; ++i) {
            counts.push_back(static_cast<int>(rng.uniformInt(0, 32)));
            sum += counts.back();
        }
        const double out = treeCountOf(counts);
        EXPECT_GE(out, std::floor(static_cast<double>(sum) / m));
        EXPECT_LE(out, static_cast<double>(sum) / m +
                           std::log2(static_cast<double>(m)));

        const int a = static_cast<int>(rng.uniformInt(0, 32));
        EXPECT_EQ(treeCountOf(std::vector<int>(
                      static_cast<std::size_t>(m), a)),
                  a);
    }
}

// --- PNM linearity ------------------------------------------------------------

TEST(FuncProperty, UniformPnmCountEqualsValue)
{
    for (int bits = 1; bits <= 8; ++bits)
        for (int value = 0; value < (1 << bits); ++value)
            EXPECT_EQ(static_cast<int>(uniformPnmSlots(bits, value).size()),
                      value)
                << "bits=" << bits << " value=" << value;
}

TEST(FuncProperty, UniformPnmLinearOverDisjointBits)
{
    // The divider chain assigns each value bit its own clock-phase
    // class, so streams of bit-disjoint values occupy disjoint slots
    // and their union is the stream of the OR.
    Rng rng(0x11beau);
    for (int trial = 0; trial < 300; ++trial) {
        const int bits = static_cast<int>(rng.uniformInt(2, 8));
        const int v1 =
            static_cast<int>(rng.uniformInt(0, (1 << bits) - 1));
        const int v2 = static_cast<int>(rng.uniformInt(0, (1 << bits) - 1)) &
                       ~v1;
        auto s1 = uniformPnmSlots(bits, v1);
        const auto s2 = uniformPnmSlots(bits, v2);
        std::vector<int> merged = s1;
        merged.insert(merged.end(), s2.begin(), s2.end());
        std::sort(merged.begin(), merged.end());
        EXPECT_EQ(merged, uniformPnmSlots(bits, v1 | v2))
            << "bits=" << bits << " v1=" << v1 << " v2=" << v2;
    }
}

// --- FIR superposition --------------------------------------------------------

/**
 * The error-free FIR on the counting kernels: coefficient counts
 * @p h_counts, one decoded output sample per input sample.
 */
std::vector<double>
kernelFilter(const UsfqFirConfig &cfg, std::span<const int> h_counts,
             const std::vector<double> &x)
{
    const EpochConfig epoch(cfg.bits, cfg.clockPeriod());
    int padded = 2;
    while (padded < cfg.taps)
        padded <<= 1;
    std::vector<int> window(h_counts.size(), epoch.rlIdOfBipolar(0.0));
    std::vector<double> y;
    for (double xn : x) {
        std::copy_backward(window.begin(), window.end() - 1, window.end());
        window[0] = epoch.rlIdOfBipolar(xn);
        const int count = firStepCount(epoch, cfg.mode, h_counts, window);
        y.push_back(DotProductUnit::decode(epoch, cfg.mode, cfg.taps,
                                           padded,
                                           static_cast<std::size_t>(count)));
    }
    return y;
}

TEST(FuncProperty, FirSuperpositionWithinQuantization)
{
    // The unary FIR is linear up to quantization: filtering x1 + x2
    // equals the sum of the filtered parts within the operand/product
    // rounding budget (each tap's RL quantization and product floor,
    // plus the counting tree's per-level ceilings).
    UsfqFirConfig cfg; // bipolar
    cfg.taps = 4;
    cfg.bits = 10;
    const EpochConfig epoch(cfg.bits, cfg.clockPeriod());
    const double h[4] = {0.5, 0.25, 0.125, 0.0625};
    int h_counts[4];
    for (int k = 0; k < 4; ++k)
        h_counts[k] = firCoefficientCount(epoch, cfg.mode, h[k]);

    Rng rng(0x50f7u);
    const int nmax = epoch.nmax();
    const double tol = 4.0 * (cfg.taps + 4) / nmax;
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> x1, x2, sum;
        for (int i = 0; i < 24; ++i) {
            const double a = rng.uniform(0.0, 0.5);
            const double b = rng.uniform(0.0, 0.5);
            x1.push_back(a);
            x2.push_back(b);
            sum.push_back(a + b);
        }
        const auto y1 = kernelFilter(cfg, h_counts, x1);
        const auto y2 = kernelFilter(cfg, h_counts, x2);
        const auto ysum = kernelFilter(cfg, h_counts, sum);
        for (std::size_t i = 0; i < ysum.size(); ++i)
            EXPECT_NEAR(ysum[i], y1[i] + y2[i], tol)
                << "trial=" << trial << " sample=" << i;
    }
}

// --- encode/decode round trips ------------------------------------------------

TEST(FuncProperty, RaceLogicRoundTrips)
{
    for (int bits = 1; bits <= 6; ++bits) {
        const EpochConfig cfg(bits);
        for (int id = 0; id <= cfg.nmax(); ++id) {
            EXPECT_EQ(cfg.rlSlotOf(cfg.rlArrival(id)), id);
            EXPECT_EQ(cfg.rlIdOfUnipolar(cfg.rlUnipolar(id)), id);
            EXPECT_EQ(cfg.rlIdOfBipolar(cfg.rlBipolar(id)), id);
        }
    }
}

TEST(FuncProperty, StreamValueRoundTrips)
{
    const EpochConfig cfg(8);
    Rng rng(0xc0deu);
    for (int trial = 0; trial < 500; ++trial) {
        const double u = rng.uniform();
        EXPECT_NEAR(cfg.decodeUnipolar(static_cast<std::size_t>(
                        cfg.streamCountOfUnipolar(u))),
                    u, 1.0 / cfg.nmax());
        const double b = rng.uniform(-1.0, 1.0);
        EXPECT_NEAR(cfg.decodeBipolar(static_cast<std::size_t>(
                        cfg.streamCountOfBipolar(b))),
                    b, 2.0 / cfg.nmax());
    }
}

TEST(FuncProperty, PulseStreamPackedRoundTrips)
{
    for (int bits : {2, 4, 6, 8}) {
        const EpochConfig cfg(bits);
        for (int n = 0; n <= cfg.nmax(); ++n) {
            const auto s = func::PulseStream::euclidean(cfg, n);
            EXPECT_EQ(s.count(), n);
            EXPECT_EQ(s.slots(), cfg.streamSlots(n));
            // slots -> fromSlots identity.
            EXPECT_TRUE(func::PulseStream::fromSlots(cfg, s.slots()) == s);
            // Complement is an involution and fills exactly the gaps.
            EXPECT_EQ(s.complement().count(), cfg.nmax() - n);
            EXPECT_TRUE(s.complement().complement() == s);
            EXPECT_EQ(s.unionWith(s.complement()).count(), cfg.nmax());
            EXPECT_EQ(s.intersectWith(s.complement()).count(), 0);
            EXPECT_NEAR(s.decodeUnipolar(), cfg.decodeUnipolar(
                            static_cast<std::size_t>(n)), 1e-12);
        }
    }
}

TEST(FuncProperty, PulseStreamGatesMatchCountingModels)
{
    const EpochConfig cfg(5);
    for (int n = 0; n <= cfg.nmax(); ++n)
        for (int id = 0; id <= cfg.nmax(); ++id) {
            const auto a = func::PulseStream::euclidean(cfg, n);
            EXPECT_EQ(a.maskBelow(id).count(),
                      unipolarProductCount(cfg, n, id))
                << "n=" << n << " id=" << id;
            EXPECT_EQ(func::bipolarProductStream(a, id).count(),
                      bipolarProductCount(cfg, n, id))
                << "n=" << n << " id=" << id;
        }
}

TEST(FuncProperty, PulseStreamUnionMatchesMergerModel)
{
    // The model takes each floor(i * n / 2^bits) as a shift: every pair
    // exhaustively at bits 1..6, and 3-5 random streams at bits 1..8,
    // against the slot-wise union of the Euclidean bitmaps.
    for (int bits = 1; bits <= 6; ++bits) {
        const EpochConfig cfg(bits);
        for (int na = 0; na <= cfg.nmax(); ++na)
            for (int nb = 0; nb <= cfg.nmax(); ++nb) {
                const auto u =
                    func::PulseStream::euclidean(cfg, na).unionWith(
                        func::PulseStream::euclidean(cfg, nb));
                ASSERT_EQ(u.count(), mergerTreeUnionCount(cfg, {na, nb}))
                    << "bits=" << bits << " na=" << na << " nb=" << nb;
            }
    }
    Rng rng(0x3e76);
    for (int bits = 1; bits <= 8; ++bits) {
        const EpochConfig cfg(bits);
        for (int trial = 0; trial < 300; ++trial) {
            std::vector<int> counts(
                static_cast<std::size_t>(rng.uniformInt(3, 5)));
            auto u = func::PulseStream::empty(cfg);
            for (int &n : counts) {
                n = static_cast<int>(rng.uniformInt(0, cfg.nmax()));
                u = u.unionWith(func::PulseStream::euclidean(cfg, n));
            }
            ASSERT_EQ(u.count(), mergerTreeUnionCount(cfg, counts))
                << "bits=" << bits << " trial=" << trial;
        }
    }
}

// --- tail-bit invariant ------------------------------------------------------
//
// Audit result pinned here: bits at or beyond nmax in the last packed
// word must be zero after EVERY stream op.  Ops built on the raw NOT
// word kernel (complement, bipolar products) are the ones that can
// violate it; popcounts and unions would then see ghost pulses.

std::uint64_t
tailBits(const func::PulseStream &s)
{
    const int tail = s.config().nmax() % 64;
    if (tail == 0)
        return 0;
    return s.words()[s.wordCountOf() - 1] &
           ~((std::uint64_t{1} << tail) - 1);
}

TEST(FuncProperty, TailBitsStayZeroAcrossScalarOps)
{
    Rng rng(0x7a11u);
    for (int bits : {2, 3, 5}) { // nmax 4, 8, 32: all partial tails
        const EpochConfig cfg(bits);
        for (int trial = 0; trial < 200; ++trial) {
            const int n = static_cast<int>(rng.uniformInt(0, cfg.nmax()));
            const int id =
                static_cast<int>(rng.uniformInt(0, cfg.nmax()));
            const auto a = func::PulseStream::euclidean(cfg, n);
            EXPECT_EQ(tailBits(a), 0u);
            EXPECT_EQ(tailBits(a.complement()), 0u);
            EXPECT_EQ(tailBits(a.maskBelow(id)), 0u);
            EXPECT_EQ(tailBits(a.maskAtOrAbove(id)), 0u);
            EXPECT_EQ(tailBits(a.unionWith(a.complement())), 0u);
            EXPECT_EQ(tailBits(a.intersectWith(a.complement())), 0u);
            EXPECT_EQ(tailBits(func::bipolarProductStream(a, id)), 0u);
        }
    }
}

} // namespace
} // namespace usfq
