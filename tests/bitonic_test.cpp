/**
 * @file
 * Tests of the bitonic counting network [4]: the step property in
 * quiescent states, pulse conservation, tolerance of simultaneous
 * arrivals, and the size formula.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "core/bitonic.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"
#include "sfq/sources.hh"
#include "util/random.hh"

namespace usfq
{
namespace
{

constexpr Tick kSpacing = 40 * kPicosecond;

struct Harness
{
    Netlist nl;
    BitonicCountingNetwork *net;
    std::vector<std::unique_ptr<PulseTrace>> outs;

    explicit Harness(int width)
    {
        net = &nl.create<BitonicCountingNetwork>("net", width);
        for (int i = 0; i < width; ++i) {
            outs.push_back(std::make_unique<PulseTrace>(
                indexedName("o", i)));
            net->out(i).connect(outs.back()->input());
        }
    }

    /** Drive per-input pulse counts on a staggered-safe schedule. */
    void
    drive(const std::vector<int> &counts)
    {
        for (std::size_t i = 0; i < counts.size(); ++i) {
            auto &src = nl.create<PulseSource>(indexedName("s", i));
            src.out.connect(net->in(static_cast<int>(i)));
            for (int k = 0; k < counts[i]; ++k)
                src.pulseAt(10 * kPicosecond +
                            static_cast<Tick>(k) * kSpacing *
                                static_cast<Tick>(counts.size()) +
                            static_cast<Tick>(i) * kSpacing);
        }
        nl.queue().run();
    }

    std::vector<int>
    outputCounts() const
    {
        std::vector<int> c;
        for (const auto &t : outs)
            c.push_back(static_cast<int>(t->count()));
        return c;
    }
};

bool
hasStepProperty(const std::vector<int> &counts)
{
    for (std::size_t i = 0; i < counts.size(); ++i)
        for (std::size_t j = i + 1; j < counts.size(); ++j) {
            const int d = counts[i] - counts[j];
            if (d < 0 || d > 1)
                return false;
        }
    return true;
}

TEST(BitonicNetwork, SizeFormula)
{
    Netlist nl;
    auto &b4 = nl.create<BitonicCountingNetwork>("b4", 4);
    auto &b8 = nl.create<BitonicCountingNetwork>("b8", 8);
    EXPECT_EQ(b4.numBalancers(), BitonicCountingNetwork::balancersFor(4));
    EXPECT_EQ(b4.numBalancers(), 6);   // width/2 * k(k+1)/2 = 2*3
    EXPECT_EQ(b8.numBalancers(), 24);  // 4*6
}

TEST(BitonicNetwork, RejectsNonPowerOfTwo)
{
    Netlist nl;
    EXPECT_EXIT(nl.create<BitonicCountingNetwork>("bad", 6),
                ::testing::ExitedWithCode(1), "power of two");
}

TEST(BitonicNetwork, StepPropertySingleStream)
{
    Harness h(4);
    h.drive({7, 0, 0, 0});
    const auto counts = h.outputCounts();
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 7);
    EXPECT_TRUE(hasStepProperty(counts));
    EXPECT_EQ(counts, BitonicCountingNetwork::stepCounts(4, 7));
}

class BitonicWidths : public ::testing::TestWithParam<int>
{
};

TEST_P(BitonicWidths, StepPropertyRandomLoads)
{
    const int width = GetParam();
    Rng rng(800 + width);
    for (int trial = 0; trial < 4; ++trial) {
        Harness h(width);
        std::vector<int> in(static_cast<std::size_t>(width));
        int total = 0;
        for (auto &v : in) {
            v = static_cast<int>(rng.uniformInt(0, 6));
            total += v;
        }
        h.drive(in);
        const auto counts = h.outputCounts();
        EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0),
                  total)
            << "width=" << width << " trial=" << trial;
        EXPECT_TRUE(hasStepProperty(counts))
            << "width=" << width << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitonicWidths,
                         ::testing::Values(2, 4, 8));

TEST(BitonicNetwork, SimultaneousWaveConserved)
{
    // All inputs fire at once repeatedly; balancers resolve every
    // coincidence and the step property still holds.
    const int width = 4;
    Harness h(width);
    for (int i = 0; i < width; ++i) {
        auto &src = h.nl.create<PulseSource>(indexedName("w", i));
        src.out.connect(h.net->in(i));
        for (int k = 0; k < 3; ++k)
            src.pulseAt(10 * kPicosecond + k * 4 * kSpacing);
    }
    h.nl.queue().run();
    const auto counts = h.outputCounts();
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 12);
    EXPECT_TRUE(hasStepProperty(counts));
    EXPECT_EQ(h.net->ignoredInputs(), 0u);
}

TEST(BitonicNetwork, StepCountsModel)
{
    const auto c = BitonicCountingNetwork::stepCounts(4, 6);
    EXPECT_EQ(c, (std::vector<int>{2, 2, 1, 1}));
    const auto z = BitonicCountingNetwork::stepCounts(8, 0);
    EXPECT_EQ(std::accumulate(z.begin(), z.end(), 0), 0);
}

TEST(BitonicNetwork, CostsMoreThanTreeForOneOutput)
{
    // The design trade the ablation bench quantifies: the tree gets
    // one averaged output with w-1 balancers; the bitonic network
    // balances all w outputs at O(w log^2 w) cost.
    Netlist nl;
    auto &tree = nl.create<TreeCountingNetwork>("t", 16);
    auto &bit = nl.create<BitonicCountingNetwork>("b", 16);
    EXPECT_LT(tree.jjCount(), bit.jjCount());
}

} // namespace
} // namespace usfq
