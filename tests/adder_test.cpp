/**
 * @file
 * Pulse-level tests of the U-SFQ adders (paper §4.2): merger trees with
 * their collision losses, the proposed balancer (including simultaneous
 * arrivals and the BFF dead-time bias case), and tree counting networks.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/adder.hh"
#include "core/encoding.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"
#include "sfq/sources.hh"
#include "util/random.hh"

namespace usfq
{
namespace
{

constexpr Tick kSafe = cell::kBffDeadTime; // 12 ps

// --- MergerTreeAdder --------------------------------------------------------

TEST(MergerTreeAdder, MergesDisjointStreams)
{
    Netlist nl;
    auto &add = nl.create<MergerTreeAdder>("add", 2);
    auto &sa = nl.create<PulseSource>("sa");
    auto &sb = nl.create<PulseSource>("sb");
    PulseTrace out;
    sa.out.connect(add.in(0));
    sb.out.connect(add.in(1));
    add.out().connect(out.input());

    // Interleaved, well separated: all pulses survive.
    for (int i = 0; i < 5; ++i) {
        sa.pulseAt((20 * i) * kPicosecond + 10 * kPicosecond);
        sb.pulseAt((20 * i) * kPicosecond + 20 * kPicosecond);
    }
    nl.queue().run();
    EXPECT_EQ(out.count(), 10u);
    EXPECT_EQ(add.collisions(), 0u);
}

TEST(MergerTreeAdder, SimultaneousPulsesCollide)
{
    // Paper Fig. 5b: four pulses in, three out for a 4:1 merger when two
    // arrive together.
    Netlist nl;
    auto &add = nl.create<MergerTreeAdder>("add", 4);
    std::vector<PulseSource *> srcs;
    PulseTrace out;
    for (int i = 0; i < 4; ++i) {
        auto &s = nl.create<PulseSource>(indexedName("s", i));
        s.out.connect(add.in(i));
        srcs.push_back(&s);
    }
    add.out().connect(out.input());

    srcs[0]->pulseAt(10 * kPicosecond);
    srcs[1]->pulseAt(10 * kPicosecond);  // collides with input 0
    srcs[2]->pulseAt(100 * kPicosecond);
    srcs[3]->pulseAt(200 * kPicosecond);
    nl.queue().run();
    EXPECT_EQ(out.count(), 3u);
    EXPECT_EQ(add.collisions(), 1u);
}

TEST(MergerTreeAdder, SafeSpacingAvoidsCollisions)
{
    // Paper Fig. 5c: spacing the four streams by the safe interval
    // loses nothing.
    Netlist nl;
    auto &add = nl.create<MergerTreeAdder>("add", 4);
    std::vector<PulseSource *> srcs;
    PulseTrace out;
    for (int i = 0; i < 4; ++i) {
        auto &s = nl.create<PulseSource>(indexedName("s", i));
        s.out.connect(add.in(i));
        srcs.push_back(&s);
    }
    add.out().connect(out.input());

    const Tick spacing = MergerTreeAdder::safeSpacing(4);
    const Tick lane = spacing / 4;
    for (int k = 0; k < 6; ++k) {
        for (int i = 0; i < 4; ++i)
            srcs[static_cast<std::size_t>(i)]->pulseAt(
                10 * kPicosecond + k * spacing + i * lane);
    }
    nl.queue().run();
    EXPECT_EQ(out.count(), 24u);
    EXPECT_EQ(add.collisions(), 0u);
}

TEST(MergerTreeAdder, AreaIsNodesTimesFiveJJs)
{
    Netlist nl;
    auto &a2 = nl.create<MergerTreeAdder>("a2", 2);
    auto &a16 = nl.create<MergerTreeAdder>("a16", 16);
    EXPECT_EQ(a2.jjCount(), 5);
    EXPECT_EQ(a16.jjCount(), 15 * 5);
}

TEST(MergerTreeAdder, RejectsNonPowerOfTwo)
{
    Netlist nl;
    EXPECT_EXIT(nl.create<MergerTreeAdder>("bad", 3),
                ::testing::ExitedWithCode(1), "power of two");
}

// --- BalancerRoutingUnit ----------------------------------------------------

TEST(RoutingUnit, AlternatesC1C2)
{
    Netlist nl;
    auto &ru = nl.create<BalancerRoutingUnit>("ru");
    auto &src = nl.create<PulseSource>("s");
    PulseTrace t1, t2;
    src.out.connect(ru.inA);
    ru.c1.connect(t1.input());
    ru.c2.connect(t2.input());
    for (int i = 0; i < 6; ++i)
        src.pulseAt((i + 1) * 2 * kSafe);
    nl.queue().run();
    EXPECT_EQ(t1.count(), 3u);
    EXPECT_EQ(t2.count(), 3u);
    EXPECT_EQ(ru.ignoredInputs(), 0u);
}

TEST(RoutingUnit, CoincidentPairYieldsBothOutputs)
{
    Netlist nl;
    auto &ru = nl.create<BalancerRoutingUnit>("ru");
    auto &sa = nl.create<PulseSource>("sa");
    auto &sb = nl.create<PulseSource>("sb");
    PulseTrace t1, t2;
    sa.out.connect(ru.inA);
    sb.out.connect(ru.inB);
    ru.c1.connect(t1.input());
    ru.c2.connect(t2.input());
    sa.pulseAt(7 * kPicosecond);
    sb.pulseAt(7 * kPicosecond);
    nl.queue().run();
    EXPECT_EQ(t1.count(), 1u);
    EXPECT_EQ(t2.count(), 1u);
    EXPECT_FALSE(ru.state()); // toggled twice
}

TEST(RoutingUnit, PulseDuringDeadTimeIgnored)
{
    Netlist nl;
    auto &ru = nl.create<BalancerRoutingUnit>("ru");
    auto &src = nl.create<PulseSource>("s");
    PulseTrace t1, t2;
    src.out.connect(ru.inA);
    ru.c1.connect(t1.input());
    ru.c2.connect(t2.input());
    src.pulseAt(10 * kPicosecond);
    src.pulseAt(10 * kPicosecond + kSafe / 2); // mid-transition
    nl.queue().run();
    EXPECT_EQ(t1.count(), 1u);
    EXPECT_EQ(t2.count(), 0u);
    EXPECT_EQ(ru.ignoredInputs(), 1u);
}

// --- Balancer ------------------------------------------------------------------

struct BalancerHarness
{
    Netlist nl;
    Balancer *bal;
    PulseSource *sa;
    PulseSource *sb;
    PulseTrace y1, y2;

    BalancerHarness()
    {
        bal = &nl.create<Balancer>("bal");
        sa = &nl.create<PulseSource>("sa");
        sb = &nl.create<PulseSource>("sb");
        sa->out.connect(bal->inA());
        sb->out.connect(bal->inB());
        bal->y1().connect(y1.input());
        bal->y2().connect(y2.input());
    }
};

TEST(Balancer, SinglePulseExitsY1)
{
    BalancerHarness h;
    h.sb->pulseAt(10 * kPicosecond); // via B: routing is input-agnostic
    h.nl.queue().run();
    EXPECT_EQ(h.y1.count(), 1u);
    EXPECT_EQ(h.y2.count(), 0u);
}

TEST(Balancer, AlternatesOutputs)
{
    BalancerHarness h;
    for (int i = 0; i < 8; ++i)
        h.sa->pulseAt((i + 1) * 2 * kSafe);
    h.nl.queue().run();
    EXPECT_EQ(h.y1.count(), 4u);
    EXPECT_EQ(h.y2.count(), 4u);
}

TEST(Balancer, SimultaneousArrivalOnePulseEachOutput)
{
    // Paper Fig. 7 at ~7 ps: A and B together -> one pulse per output.
    BalancerHarness h;
    h.sa->pulseAt(7 * kPicosecond);
    h.sb->pulseAt(7 * kPicosecond);
    h.nl.queue().run();
    EXPECT_EQ(h.y1.count(), 1u);
    EXPECT_EQ(h.y2.count(), 1u);
}

TEST(Balancer, BalancesInterleavedStreams)
{
    BalancerHarness h;
    int total = 0;
    for (int i = 0; i < 10; ++i) {
        h.sa->pulseAt((i + 1) * 3 * kSafe);
        ++total;
        if (i % 2 == 0) {
            h.sb->pulseAt((i + 1) * 3 * kSafe + kSafe);
            ++total;
        }
    }
    h.nl.queue().run();
    EXPECT_EQ(h.y1.count() + h.y2.count(), static_cast<std::size_t>(total));
    EXPECT_LE(std::llabs(static_cast<long long>(h.y1.count()) -
                         static_cast<long long>(h.y2.count())),
              1);
}

TEST(Balancer, OutputsHalfTheInputPulses)
{
    // The adder contract: each output carries (N_A + N_B) / 2.
    BalancerHarness h;
    const int na = 7, nb = 4;
    for (int i = 0; i < na; ++i)
        h.sa->pulseAt((i + 1) * 2 * kSafe);
    for (int i = 0; i < nb; ++i)
        h.sb->pulseAt((i + 1) * 2 * kSafe + kSafe);
    h.nl.queue().run();
    EXPECT_EQ(h.y1.count(), 6u); // ceil(11/2)
    EXPECT_EQ(h.y2.count(), 5u); // floor(11/2)
}

TEST(Balancer, AreaIs60JJs)
{
    Netlist nl;
    auto &bal = nl.create<Balancer>("b");
    EXPECT_EQ(bal.jjCount(), 60);
}

TEST(Balancer, DeadTimeViolationBiasesButConservesLater)
{
    // Case (iii): the second pulse inside the dead time is unregistered;
    // the balancer leans on one output but does not crash.
    BalancerHarness h;
    h.sa->pulseAt(10 * kPicosecond);
    h.sa->pulseAt(10 * kPicosecond + kSafe / 2);
    h.nl.queue().run();
    EXPECT_EQ(h.bal->ignoredInputs(), 1u);
    EXPECT_EQ(h.y1.count() + h.y2.count(), 1u);
}

// --- MergerTff2Balancer -----------------------------------------------------

TEST(MergerTff2Balancer, LosesSimultaneousPair)
{
    Netlist nl;
    auto &bal = nl.create<MergerTff2Balancer>("b");
    auto &sa = nl.create<PulseSource>("sa");
    auto &sb = nl.create<PulseSource>("sb");
    PulseTrace y1, y2;
    sa.out.connect(bal.inA());
    sb.out.connect(bal.inB());
    bal.y1().connect(y1.input());
    bal.y2().connect(y2.input());
    sa.pulseAt(10 * kPicosecond);
    sb.pulseAt(10 * kPicosecond);
    nl.queue().run();
    // One of the two pulses dies in the merger: the defect the paper's
    // balancer fixes.
    EXPECT_EQ(y1.count() + y2.count(), 1u);
    EXPECT_EQ(bal.collisions(), 1u);
}

TEST(MergerTff2Balancer, CheaperThanProposedBalancer)
{
    Netlist nl;
    auto &cheap = nl.create<MergerTff2Balancer>("c");
    auto &full = nl.create<Balancer>("f");
    EXPECT_LT(cheap.jjCount(), full.jjCount());
    EXPECT_EQ(cheap.jjCount(), cell::kMergerJJs + cell::kTff2JJs);
}

// --- TreeCountingNetwork ------------------------------------------------------

/** Drive an M-input network with the given per-input pulse counts. */
std::size_t
runTree(int m, const std::vector<int> &counts, Tick spacing = 2 * kSafe)
{
    Netlist nl;
    auto &net = nl.create<TreeCountingNetwork>("net", m);
    PulseTrace out;
    net.out().connect(out.input());
    for (int i = 0; i < m; ++i) {
        auto &src = nl.create<PulseSource>(indexedName("s", i));
        src.out.connect(net.in(i));
        // Stagger lanes so same-lane spacing is `spacing` and cross-lane
        // arrivals at shared balancers are offset.
        for (int k = 0; k < counts[static_cast<std::size_t>(i)]; ++k)
            src.pulseAt(10 * kPicosecond + k * spacing * m +
                        i * spacing);
    }
    nl.queue().run();
    return out.count();
}

TEST(TreeCountingNetwork, TwoInputsAverage)
{
    EXPECT_EQ(runTree(2, {4, 4}), 4u);
    EXPECT_EQ(runTree(2, {8, 0}), 4u);
    EXPECT_EQ(runTree(2, {0, 0}), 0u);
}

TEST(TreeCountingNetwork, FourInputsWithinRounding)
{
    const auto out = runTree(4, {8, 4, 6, 2}); // sum 20 -> 5
    EXPECT_NEAR(static_cast<double>(out), 5.0, 1.0);
}

TEST(TreeCountingNetwork, PaperFig6dShape)
{
    Netlist nl;
    auto &net = nl.create<TreeCountingNetwork>("net", 4);
    EXPECT_EQ(net.numBalancers(), 3); // Fig. 6d: three balancers
    EXPECT_EQ(net.jjCount(), 3 * 60);
}

class TreeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(TreeSweep, RandomCountsWithinDepthRounding)
{
    const int m = GetParam();
    Rng rng(400 + m);
    for (int trial = 0; trial < 5; ++trial) {
        std::vector<int> counts(static_cast<std::size_t>(m));
        int sum = 0;
        for (auto &c : counts) {
            c = static_cast<int>(rng.uniformInt(0, 8));
            sum += c;
        }
        const auto out = runTree(m, counts);
        EXPECT_LE(std::fabs(static_cast<double>(out) -
                            static_cast<double>(sum) / m),
                  std::log2(m))
            << "m=" << m;
    }
}

INSTANTIATE_TEST_SUITE_P(FanIns, TreeSweep, ::testing::Values(2, 4, 8, 16));

TEST(TreeCountingNetwork, SimultaneousArrivalsDoNotLosePulses)
{
    // All inputs pulse at the same instant: mergers would lose half of
    // them; balancers must not.
    const int m = 4;
    Netlist nl;
    auto &net = nl.create<TreeCountingNetwork>("net", m);
    PulseTrace out;
    net.out().connect(out.input());
    for (int i = 0; i < m; ++i) {
        auto &src = nl.create<PulseSource>(indexedName("s", i));
        src.out.connect(net.in(i));
        src.pulseAt(10 * kPicosecond);
    }
    nl.queue().run();
    // 4 simultaneous pulses -> exactly 1 at the output (4/4), not 0.
    EXPECT_EQ(out.count(), 1u);
}

} // namespace
} // namespace usfq
