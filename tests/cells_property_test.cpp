/**
 * @file
 * Property-based sweeps over the cell library and the device physics:
 * division chains, fanout trees, merger conservation, flux-quantized
 * pulse areas across junction-parameter corners.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "analog/rsj.hh"
#include "core/adder.hh"
#include "core/fanout.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"
#include "sfq/cells.hh"
#include "sfq/sources.hh"
#include "util/random.hh"

namespace usfq
{
namespace
{

// --- TFF division chains ------------------------------------------------------

class TffChain : public ::testing::TestWithParam<int>
{
};

TEST_P(TffChain, DividesByPowerOfTwo)
{
    const int depth = GetParam();
    Netlist nl;
    std::vector<Tff *> chain;
    for (int k = 0; k < depth; ++k) {
        auto &t = nl.create<Tff>(indexedName("t", k));
        if (k > 0)
            chain.back()->out.connect(t.in);
        chain.push_back(&t);
    }
    auto &src = nl.create<PulseSource>("s");
    src.out.connect(chain.front()->in);
    PulseTrace out;
    chain.back()->out.connect(out.input());

    const int pulses = 3 * (1 << depth) + 5; // not a multiple
    for (int k = 0; k < pulses; ++k)
        src.pulseAt((k + 1) * 20 * kPicosecond);
    nl.queue().run();
    EXPECT_EQ(out.count(),
              static_cast<std::size_t>(pulses / (1 << depth)));
}

INSTANTIATE_TEST_SUITE_P(Depths, TffChain,
                         ::testing::Values(1, 2, 3, 5, 8));

// --- TFF2 demux trees: perfect pulse partition --------------------------------

TEST(Tff2Tree, TwoLevelPartitionConservesPulses)
{
    Netlist nl;
    auto &root = nl.create<Tff2>("root");
    auto &l = nl.create<Tff2>("l");
    auto &r = nl.create<Tff2>("r");
    root.q1.connect(l.in);
    root.q2.connect(r.in);
    auto &src = nl.create<PulseSource>("s");
    src.out.connect(root.in);
    PulseTrace t0, t1, t2, t3;
    l.q1.connect(t0.input());
    l.q2.connect(t1.input());
    r.q1.connect(t2.input());
    r.q2.connect(t3.input());

    const int pulses = 41;
    for (int k = 0; k < pulses; ++k)
        src.pulseAt((k + 1) * 50 * kPicosecond);
    nl.queue().run();
    EXPECT_EQ(t0.count() + t1.count() + t2.count() + t3.count(),
              static_cast<std::size_t>(pulses));
    // Each leaf carries a quarter (round-robin over 4 phases).
    for (const auto *t : {&t0, &t1, &t2, &t3}) {
        EXPECT_GE(t->count(), static_cast<std::size_t>(pulses / 4));
        EXPECT_LE(t->count(), static_cast<std::size_t>(pulses / 4 + 1));
    }
}

// --- balanced fanout: exact simultaneity ---------------------------------------

class FanoutWidth : public ::testing::TestWithParam<int>
{
};

TEST_P(FanoutWidth, AllLeavesReceiveSimultaneously)
{
    const int width = GetParam();
    Netlist nl;
    std::vector<std::unique_ptr<PulseTrace>> traces;
    std::vector<InputPort *> dsts;
    for (int i = 0; i < width; ++i) {
        traces.push_back(
            std::make_unique<PulseTrace>(indexedName("t", i)));
        dsts.push_back(&traces.back()->input());
    }
    std::vector<std::unique_ptr<Splitter>> store;
    InputPort *head = buildBalancedFanout(nl, "fan", dsts, store);
    auto &src = nl.create<PulseSource>("s");
    src.out.connect(*head);
    src.pulseAt(100 * kPicosecond);
    nl.queue().run();

    ASSERT_EQ(traces.front()->count(), 1u);
    const Tick t0 = traces.front()->times().front();
    for (const auto &t : traces) {
        ASSERT_EQ(t->count(), 1u);
        EXPECT_EQ(t->times().front(), t0)
            << "width=" << width << " (skew breaks coincidence)";
    }
    EXPECT_EQ(store.size(), static_cast<std::size_t>(width - 1));
}

INSTANTIATE_TEST_SUITE_P(Widths, FanoutWidth,
                         ::testing::Values(2, 3, 5, 8, 13, 16, 33));

// --- merger tree conservation model ----------------------------------------------

TEST(MergerTreeProperty, SafeScheduleAlwaysConserves)
{
    Rng rng(4242);
    for (int trial = 0; trial < 10; ++trial) {
        const int width = 1 << rng.uniformInt(1, 4);
        Netlist nl;
        auto &add = nl.create<MergerTreeAdder>("m", width);
        PulseTrace out;
        add.out().connect(out.input());
        const Tick spacing = MergerTreeAdder::safeSpacing(width);
        std::size_t sent = 0;
        for (int i = 0; i < width; ++i) {
            auto &src = nl.create<PulseSource>(indexedName("s", i));
            src.out.connect(add.in(i));
            const int n = static_cast<int>(rng.uniformInt(0, 6));
            for (int k = 0; k < n; ++k) {
                src.pulseAt(10 * kPicosecond + k * spacing +
                            i * (spacing / width));
                ++sent;
            }
        }
        nl.queue().run();
        EXPECT_EQ(out.count(), sent) << "width=" << width;
        EXPECT_EQ(add.collisions(), 0u);
    }
}

// --- device physics corners ---------------------------------------------------------

class JunctionCorners
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(JunctionCorners, PulseAreaIsFluxQuantized)
{
    // Phi0 quantization is parameter-independent: the defining physics
    // of SFQ across critical-current and capacitance corners.
    const auto [ic_scale, c_scale] = GetParam();
    analog::JunctionParams jp;
    jp.ic *= ic_scale;
    jp.c *= c_scale;
    // Keep damping near-critical so the junction doesn't free-run.
    jp.r = std::sqrt(analog::kPhi0 /
                     (2.0 * M_PI * jp.ic * jp.c));

    analog::Junction jj(jp);
    const double ic = jp.ic;
    // Overdrive window; different corners complete different slip
    // counts -- the invariant is that the voltage-time area is
    // quantized at n * Phi0 regardless.
    jj.run(120e-12, 5e-15, [ic](double t) {
        double i = 0.7 * ic * std::min(1.0, t / 10e-12);
        if (t > 30e-12 && t < 45e-12)
            i += 0.7 * ic;
        return i;
    });
    const int n = jj.fluxons();
    ASSERT_GE(n, 1) << "ic_scale=" << ic_scale
                    << " c_scale=" << c_scale;
    EXPECT_NEAR(jj.trace().integral(20e-12, 120e-12),
                n * analog::kPhi0, 0.06 * n * analog::kPhi0)
        << "n=" << n << " ic_scale=" << ic_scale
        << " c_scale=" << c_scale;
}

INSTANTIATE_TEST_SUITE_P(
    Corners, JunctionCorners,
    ::testing::Values(std::make_tuple(0.5, 1.0),
                      std::make_tuple(1.0, 1.0),
                      std::make_tuple(2.0, 1.0),
                      std::make_tuple(1.0, 0.5),
                      std::make_tuple(1.0, 2.0),
                      std::make_tuple(1.5, 1.5)));

} // namespace
} // namespace usfq
