/**
 * @file
 * Tests of the U-SFQ data representation (paper Section 3): race-logic
 * ids, pulse-stream layout, complements, and the pure counting models of
 * the multiplier and counting network.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>

#include "core/encoding.hh"
#include "util/random.hh"

namespace usfq
{
namespace
{

TEST(EpochConfig, BasicGeometry)
{
    const EpochConfig cfg(3);
    EXPECT_EQ(cfg.bits(), 3);
    EXPECT_EQ(cfg.nmax(), 8);
    EXPECT_EQ(cfg.slotWidth(), 9 * kPicosecond);
    EXPECT_EQ(cfg.duration(), 72 * kPicosecond);
}

TEST(EpochConfig, RlTimesAreSlotBoundaries)
{
    const EpochConfig cfg(4);
    EXPECT_EQ(cfg.rlTime(0), 0);
    EXPECT_EQ(cfg.rlTime(3), 27 * kPicosecond);
    EXPECT_EQ(cfg.rlTime(16), cfg.duration());
    EXPECT_EQ(cfg.rlArrival(0, 100), 100 + EpochConfig::kRlPulseOffset);
}

TEST(EpochConfig, RlSlotOfInvertsRlTime)
{
    const EpochConfig cfg(5);
    for (int id = 0; id <= cfg.nmax(); ++id)
        EXPECT_EQ(cfg.rlSlotOf(cfg.rlTime(id)), id);
}

TEST(EpochConfig, RlUnipolarBipolarRoundTrip)
{
    const EpochConfig cfg(6);
    EXPECT_DOUBLE_EQ(cfg.rlUnipolar(0), 0.0);
    EXPECT_DOUBLE_EQ(cfg.rlUnipolar(cfg.nmax()), 1.0);
    EXPECT_DOUBLE_EQ(cfg.rlBipolar(0), -1.0);
    EXPECT_DOUBLE_EQ(cfg.rlBipolar(cfg.nmax()), 1.0);
    EXPECT_DOUBLE_EQ(cfg.rlBipolar(cfg.nmax() / 2), 0.0);

    for (double v : {0.0, 0.25, 0.5, 0.75, 1.0})
        EXPECT_NEAR(cfg.rlUnipolar(cfg.rlIdOfUnipolar(v)), v,
                    0.5 / cfg.nmax());
    for (double v : {-1.0, -0.5, 0.0, 0.5, 1.0})
        EXPECT_NEAR(cfg.rlBipolar(cfg.rlIdOfBipolar(v)), v,
                    1.0 / cfg.nmax());
}

TEST(EpochConfig, RlIdClamps)
{
    const EpochConfig cfg(4);
    EXPECT_EQ(cfg.rlIdOfUnipolar(-0.3), 0);
    EXPECT_EQ(cfg.rlIdOfUnipolar(1.7), 16);
    EXPECT_EQ(cfg.rlIdOfBipolar(-2.0), 0);
    EXPECT_EQ(cfg.rlIdOfBipolar(2.0), 16);
}

TEST(EpochConfig, StreamSlotsCountAndRange)
{
    const EpochConfig cfg(4);
    for (int n = 0; n <= cfg.nmax(); ++n) {
        const auto slots = cfg.streamSlots(n);
        EXPECT_EQ(static_cast<int>(slots.size()), n);
        for (int s : slots) {
            EXPECT_GE(s, 0);
            EXPECT_LT(s, cfg.nmax());
        }
        EXPECT_TRUE(std::is_sorted(slots.begin(), slots.end()));
    }
}

TEST(EpochConfig, StreamSlotsEvenlySpread)
{
    // An evenly spread n-pulse stream has floor/ceil(k*n/N) pulses in
    // any prefix of k slots -- the property the multiplier relies on.
    const EpochConfig cfg(6);
    for (int n = 1; n <= cfg.nmax(); ++n) {
        const auto slots = cfg.streamSlots(n);
        for (int k = 0; k <= cfg.nmax(); ++k) {
            const auto in_prefix = std::count_if(
                slots.begin(), slots.end(),
                [k](int s) { return s < k; });
            const double ideal =
                static_cast<double>(k) * n / cfg.nmax();
            EXPECT_LE(std::abs(in_prefix - ideal), 1.0)
                << "n=" << n << " k=" << k;
        }
    }
}

TEST(EpochConfig, FullStreamOccupiesEverySlot)
{
    const EpochConfig cfg(3);
    const auto slots = cfg.streamSlots(8);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(slots[static_cast<std::size_t>(i)], i);
}

TEST(EpochConfig, ComplementSlotsPartitionGrid)
{
    const EpochConfig cfg(5);
    for (int n = 0; n <= cfg.nmax(); ++n) {
        const auto a = cfg.streamSlots(n);
        const auto b = cfg.complementSlots(n);
        EXPECT_EQ(a.size() + b.size(),
                  static_cast<std::size_t>(cfg.nmax()));
        std::set<int> all(a.begin(), a.end());
        for (int s : b)
            EXPECT_TRUE(all.insert(s).second) << "slot " << s;
        EXPECT_EQ(all.size(), static_cast<std::size_t>(cfg.nmax()));
    }
}

TEST(EpochConfig, StreamTimesAtSlotCenters)
{
    const EpochConfig cfg(3);
    const auto times = cfg.streamTimes(8, 1000);
    ASSERT_EQ(times.size(), 8u);
    EXPECT_EQ(times[0], 1000 + 4500);
    EXPECT_EQ(times[1], 1000 + 9 * kPicosecond + 4500);
}

TEST(EpochConfig, DecodeInvertsEncode)
{
    const EpochConfig cfg(8);
    for (double v : {0.0, 0.1, 0.33, 0.5, 0.99, 1.0}) {
        const int n = cfg.streamCountOfUnipolar(v);
        EXPECT_NEAR(cfg.decodeUnipolar(static_cast<std::size_t>(n)), v,
                    0.5 / cfg.nmax());
    }
    for (double v : {-1.0, -0.4, 0.0, 0.6, 1.0}) {
        const int n = cfg.streamCountOfBipolar(v);
        EXPECT_NEAR(cfg.decodeBipolar(static_cast<std::size_t>(n)), v,
                    1.0 / cfg.nmax());
    }
}

// --- counting models ---------------------------------------------------------

TEST(ProductModel, ClosedFormMatchesSlotEnumeration)
{
    // The O(1) prefix-count formulas must agree with literally
    // counting pulses in the materialized slot pattern.
    for (int bits : {2, 4, 6, 8}) {
        const EpochConfig cfg(bits);
        for (int n = 0; n <= cfg.nmax(); n += std::max(1, cfg.nmax() / 8)) {
            const auto slots = cfg.streamSlots(n);
            const auto comp = cfg.complementSlots(n);
            for (int id = 0; id <= cfg.nmax();
                 id += std::max(1, cfg.nmax() / 8)) {
                const auto o1 = std::count_if(
                    slots.begin(), slots.end(),
                    [id](int s) { return s < id; });
                EXPECT_EQ(unipolarProductCount(cfg, n, id), o1)
                    << "bits=" << bits << " n=" << n << " id=" << id;
                const auto o2 = std::count_if(
                    comp.begin(), comp.end(),
                    [id](int s) { return s >= id; });
                EXPECT_EQ(bipolarProductCount(cfg, n, id), o1 + o2)
                    << "bits=" << bits << " n=" << n << " id=" << id;
            }
        }
    }
}

class ProductModel : public ::testing::TestWithParam<int>
{
};

TEST_P(ProductModel, UnipolarProductWithinOneLsb)
{
    const EpochConfig cfg(GetParam());
    const int nmax = cfg.nmax();
    Rng rng(42);
    for (int trial = 0; trial < 300; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(0, nmax));
        const int id = static_cast<int>(rng.uniformInt(0, nmax));
        const int count = unipolarProductCount(cfg, n, id);
        const double ideal = cfg.decodeUnipolar(0) +
                             (static_cast<double>(n) / nmax) *
                                 (static_cast<double>(id) / nmax);
        EXPECT_LE(std::fabs(cfg.decodeUnipolar(
                      static_cast<std::size_t>(count)) - ideal),
                  1.0 / nmax)
            << "n=" << n << " id=" << id;
    }
}

TEST_P(ProductModel, BipolarProductWithinTwoLsb)
{
    const EpochConfig cfg(GetParam());
    const int nmax = cfg.nmax();
    Rng rng(7);
    for (int trial = 0; trial < 300; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(0, nmax));
        const int id = static_cast<int>(rng.uniformInt(0, nmax));
        const int count = bipolarProductCount(cfg, n, id);
        const double a = 2.0 * n / nmax - 1.0;
        const double b = 2.0 * id / nmax - 1.0;
        EXPECT_LE(std::fabs(cfg.decodeBipolar(
                      static_cast<std::size_t>(count)) - a * b),
                  4.0 / nmax)
            << "n=" << n << " id=" << id;
    }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, ProductModel,
                         ::testing::Values(3, 4, 6, 8, 10));

TEST(ProductModel, UnipolarExtremes)
{
    const EpochConfig cfg(4);
    // 1 * 1 = 1
    EXPECT_EQ(unipolarProductCount(cfg, 16, 16), 16);
    // x * 0 = 0 and 0 * x = 0
    EXPECT_EQ(unipolarProductCount(cfg, 16, 0), 0);
    EXPECT_EQ(unipolarProductCount(cfg, 0, 16), 0);
}

TEST(ProductModel, BipolarExtremes)
{
    const EpochConfig cfg(4);
    const int nmax = cfg.nmax();
    // (+1) * (+1) = +1: all stream pulses pass.
    EXPECT_EQ(bipolarProductCount(cfg, nmax, nmax), nmax);
    // (-1) * (-1) = +1: all complement pulses pass.
    EXPECT_EQ(bipolarProductCount(cfg, 0, 0), nmax);
    // (-1) * (+1) = -1: nothing passes.
    EXPECT_EQ(bipolarProductCount(cfg, 0, nmax), 0);
    EXPECT_EQ(bipolarProductCount(cfg, nmax, 0), 0);
}

TEST(ProductModel, PaperFig3bExamples)
{
    // First example: 3-bit resolution (Nmax = 8), result 1/8.
    const EpochConfig cfg3(3);
    EXPECT_EQ(unipolarProductCount(cfg3, cfg3.streamCountOfUnipolar(0.5),
                                   cfg3.rlIdOfUnipolar(0.25)),
              1);
    // Second example: 4-bit resolution (Nmax = 16), result 6/16 = 0.375.
    const EpochConfig cfg4(4);
    EXPECT_EQ(unipolarProductCount(cfg4, cfg4.streamCountOfUnipolar(0.75),
                                   cfg4.rlIdOfUnipolar(0.5)),
              6);
}

// --- tree counting network model ----------------------------------------------

TEST(TreeModel, TwoInputAverage)
{
    std::array<int, 2> equal{4, 4}, odd{5, 4}, zero{0, 0};
    EXPECT_EQ(treeNetworkCount(equal), 4);
    EXPECT_EQ(treeNetworkCount(odd), 5); // ceil(9/2)
    EXPECT_EQ(treeNetworkCount(zero), 0);
}

TEST(TreeModel, FourInputAverageWithinRounding)
{
    Rng rng(3);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<int> in(4);
        int sum = 0;
        for (auto &v : in) {
            v = static_cast<int>(rng.uniformInt(0, 64));
            sum += v;
        }
        const int out = treeNetworkCount(in);
        EXPECT_LE(std::fabs(out - sum / 4.0), 1.0);
    }
}

TEST(TreeModel, LargeFanInErrorBoundedByDepth)
{
    Rng rng(9);
    for (int m : {8, 16, 32, 64}) {
        std::vector<int> in(static_cast<std::size_t>(m));
        int sum = 0;
        for (auto &v : in) {
            v = static_cast<int>(rng.uniformInt(0, 256));
            sum += v;
        }
        const int out = treeNetworkCount(in);
        const double depth = std::log2(m);
        EXPECT_LE(std::fabs(out - static_cast<double>(sum) / m), depth)
            << "m=" << m;
    }
}

} // namespace
} // namespace usfq
