/**
 * @file
 * Pulse-level tests of the dot-product unit (paper §5.3): unipolar and
 * bipolar dot products against the counting model, area scaling
 * (Fig. 16), and robustness of the counting tree under full activity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/dpu.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"
#include "sfq/sources.hh"
#include "util/random.hh"

namespace usfq
{
namespace
{

/** Slot width satisfying slot >= 2*(3*log2(L)+1) for L up to 64. */
constexpr Tick kSlot = 40 * kPicosecond;

Tick
setLag(int length)
{
    int depth = 0, n = 1;
    while (n < length) {
        n <<= 1;
        ++depth;
    }
    return static_cast<Tick>(depth) * 3 * kPicosecond;
}

/** Run one epoch on a DPU netlist; return the output pulse count. */
int
runDpu(const EpochConfig &cfg, DpuMode mode,
       const std::vector<int> &streams, const std::vector<int> &ids)
{
    const int length = static_cast<int>(streams.size());
    Netlist nl;
    auto &dpu = nl.create<DotProductUnit>("dpu", length, mode);
    auto &src_e = nl.create<PulseSource>("e");
    auto &src_clk = nl.create<PulseSource>("clk");
    PulseTrace out;
    src_e.out.connect(dpu.epochIn());
    if (mode == DpuMode::Bipolar)
        src_clk.out.connect(dpu.clkIn());
    dpu.out().connect(out.input());

    std::vector<PulseSource *> rl_srcs, st_srcs;
    for (int i = 0; i < length; ++i) {
        auto &r = nl.create<PulseSource>(indexedName("a", i));
        auto &s = nl.create<PulseSource>(indexedName("b", i));
        r.out.connect(dpu.rlIn(i));
        s.out.connect(dpu.streamIn(i));
        rl_srcs.push_back(&r);
        st_srcs.push_back(&s);
    }

    const Tick t0 = 0;
    const Tick rl_off = setLag(length) + 1 * kPicosecond;
    src_e.pulseAt(t0);
    if (mode == DpuMode::Bipolar)
        src_clk.pulsesAt(BipolarMultiplier::gridClockTimes(cfg, t0));
    for (int i = 0; i < length; ++i) {
        rl_srcs[static_cast<std::size_t>(i)]->pulseAt(
            t0 + rl_off +
            cfg.rlTime(ids[static_cast<std::size_t>(i)]));
        st_srcs[static_cast<std::size_t>(i)]->pulsesAt(
            cfg.streamTimes(streams[static_cast<std::size_t>(i)], t0));
    }
    nl.queue().run();
    return static_cast<int>(out.count());
}

// --- functional correctness ---------------------------------------------------

TEST(DotProductUnit, UnipolarTwoElementExact)
{
    const EpochConfig cfg(4, kSlot);
    // a = (0.5, 1.0), b = (1.0, 0.5): dot = 1.0 -> tree out = 16/2 = 8.
    const int count = runDpu(cfg, DpuMode::Unipolar, {16, 8}, {8, 16});
    EXPECT_EQ(count,
              DotProductUnit::expectedCount(cfg, DpuMode::Unipolar,
                                            {16, 8}, {8, 16}));
    EXPECT_NEAR(DotProductUnit::decode(cfg, DpuMode::Unipolar, 2, 2,
                                       static_cast<std::size_t>(count)),
                1.0, 2.0 / cfg.nmax() * 2);
}

TEST(DotProductUnit, UnipolarZeroInputs)
{
    const EpochConfig cfg(4, kSlot);
    EXPECT_EQ(runDpu(cfg, DpuMode::Unipolar, {0, 0, 0, 0},
                     {16, 16, 16, 16}),
              0);
    EXPECT_EQ(runDpu(cfg, DpuMode::Unipolar, {16, 16, 16, 16},
                     {0, 0, 0, 0}),
              0);
}

class DpuSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(DpuSweep, UnipolarMatchesCountingModel)
{
    const int length = GetParam();
    const EpochConfig cfg(5, kSlot);
    Rng rng(600 + length);
    for (int trial = 0; trial < 6; ++trial) {
        std::vector<int> streams, ids;
        for (int i = 0; i < length; ++i) {
            streams.push_back(
                static_cast<int>(rng.uniformInt(0, cfg.nmax())));
            ids.push_back(
                static_cast<int>(rng.uniformInt(0, cfg.nmax())));
        }
        const int expect = DotProductUnit::expectedCount(
            cfg, DpuMode::Unipolar, streams, ids);
        const int got = runDpu(cfg, DpuMode::Unipolar, streams, ids);
        EXPECT_EQ(got, expect)
            << "length=" << length << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Lengths, DpuSweep,
                         ::testing::Values(2, 4, 8, 16));

TEST(DotProductUnit, BipolarSignRules)
{
    const EpochConfig cfg(4, kSlot);
    const int n = cfg.nmax();
    // (+1).(+1) over two elements: dot = 2.
    int c = runDpu(cfg, DpuMode::Bipolar, {n, n}, {n, n});
    EXPECT_NEAR(DotProductUnit::decode(cfg, DpuMode::Bipolar, 2, 2,
                                       static_cast<std::size_t>(c)),
                2.0, 0.4);
    // (+1).(-1): dot = -2.
    c = runDpu(cfg, DpuMode::Bipolar, {n, n}, {0, 0});
    EXPECT_NEAR(DotProductUnit::decode(cfg, DpuMode::Bipolar, 2, 2,
                                       static_cast<std::size_t>(c)),
                -2.0, 0.4);
}

TEST(DotProductUnit, BipolarRandomDotProducts)
{
    const EpochConfig cfg(6, kSlot);
    Rng rng(77);
    for (int trial = 0; trial < 5; ++trial) {
        const int length = 4;
        std::vector<int> streams, ids;
        double dot = 0.0;
        for (int i = 0; i < length; ++i) {
            const double b = rng.uniform(-1.0, 1.0);
            const double a = rng.uniform(-1.0, 1.0);
            streams.push_back(cfg.streamCountOfBipolar(b));
            ids.push_back(cfg.rlIdOfBipolar(a));
            dot += cfg.decodeBipolar(static_cast<std::size_t>(
                       streams.back())) *
                   cfg.rlBipolar(ids.back());
        }
        const int c = runDpu(cfg, DpuMode::Bipolar, streams, ids);
        EXPECT_NEAR(DotProductUnit::decode(cfg, DpuMode::Bipolar,
                                           length, 4,
                                           static_cast<std::size_t>(c)),
                    dot, 16.0 / cfg.nmax() * 2)
            << "trial " << trial;
    }
}

TEST(DotProductUnit, NonPowerOfTwoLengthPads)
{
    const EpochConfig cfg(4, kSlot);
    Netlist nl;
    auto &dpu = nl.create<DotProductUnit>("dpu", 3, DpuMode::Unipolar);
    EXPECT_EQ(dpu.length(), 3);
    EXPECT_EQ(dpu.paddedLength(), 4);
    // Functional model agrees.
    const int c = DotProductUnit::expectedCount(
        cfg, DpuMode::Unipolar, {16, 16, 16}, {16, 16, 16});
    EXPECT_NEAR(DotProductUnit::decode(cfg, DpuMode::Unipolar, 3, 4,
                                       static_cast<std::size_t>(c)),
                3.0, 0.3);
}

// --- area (Fig. 16) ---------------------------------------------------------

TEST(DotProductUnit, AreaIndependentOfBits)
{
    Netlist nl;
    auto &dpu = nl.create<DotProductUnit>("d", 32, DpuMode::Bipolar);
    const int jj = dpu.jjCount();
    // Nothing in the netlist depends on the resolution.
    EXPECT_GT(jj, 0);
    auto &dpu2 = nl.create<DotProductUnit>("d2", 32, DpuMode::Bipolar);
    EXPECT_EQ(dpu2.jjCount(), jj);
}

TEST(DotProductUnit, AreaScalesWithLength)
{
    Netlist nl;
    auto &d32 = nl.create<DotProductUnit>("d32", 32, DpuMode::Bipolar);
    auto &d64 = nl.create<DotProductUnit>("d64", 64, DpuMode::Bipolar);
    auto &d256 =
        nl.create<DotProductUnit>("d256", 256, DpuMode::Bipolar);
    EXPECT_LT(d32.jjCount(), d64.jjCount());
    EXPECT_LT(d64.jjCount(), d256.jjCount());
    // Roughly linear: per-element cost ~ multiplier + balancer.
    const double per_elem = static_cast<double>(d256.jjCount()) / 256;
    EXPECT_GT(per_elem, 80.0);
    EXPECT_LT(per_elem, 130.0);
}

TEST(DotProductUnit, UnipolarCheaperThanBipolar)
{
    Netlist nl;
    auto &u = nl.create<DotProductUnit>("u", 16, DpuMode::Unipolar);
    auto &b = nl.create<DotProductUnit>("b", 16, DpuMode::Bipolar);
    EXPECT_LT(u.jjCount(), b.jjCount());
}

// --- stress -------------------------------------------------------------------

TEST(DotProductUnit, FullActivityLosesNoPulsesToCollisions)
{
    // All inputs at full rate: every multiplier passes every pulse and
    // all tree inputs fire coincidentally each slot.  The balancer tree
    // must divide without loss: count = nmax.
    const EpochConfig cfg(5, kSlot);
    const int length = 8;
    std::vector<int> streams(length, cfg.nmax());
    std::vector<int> ids(length, cfg.nmax());
    const int count = runDpu(cfg, DpuMode::Unipolar, streams, ids);
    EXPECT_EQ(count, cfg.nmax());
}

// --- shared slot arithmetic -----------------------------------------------

TEST(DotProductUnit, SlotWidthAndLaunchOffsetMatchLoopFormulas)
{
    // Reference: the same arithmetic as plain loops (pad to a power
    // of two, count its doublings), independent of std::bit_width.
    const auto nextPow2 = [](int n) {
        int p = 1;
        while (p < n)
            p <<= 1;
        return p;
    };
    const auto log2Of = [](int pow2) {
        int d = 0;
        while ((1 << d) < pow2)
            ++d;
        return d;
    };
    const auto slotWidth = [&](int length, Tick floor_ps) {
        const Tick need =
            2 * (3 * static_cast<Tick>(log2Of(nextPow2(length))) + 1) + 2;
        return std::max<Tick>(need, floor_ps) * kPicosecond;
    };
    const auto launchOffset = [](int length) {
        int depth = 0, n = 1;
        while (n < length) {
            n <<= 1;
            ++depth;
        }
        return static_cast<Tick>(depth) * 3 * kPicosecond +
               1 * kPicosecond;
    };
    for (int l = 1; l <= 1024; ++l) {
        EXPECT_EQ(dpuSlotWidth(l, 9 * kPicosecond), slotWidth(l, 9)) << l;
        EXPECT_EQ(dpuSlotWidth(l, 40 * kPicosecond), slotWidth(l, 40))
            << l;
        EXPECT_EQ(dpuRlLaunchOffset(l), launchOffset(l)) << l;
    }
}

} // namespace
} // namespace usfq
