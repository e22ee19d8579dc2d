/**
 * @file
 * Unit tests for src/util: time conversion, RNG determinism, fixed-point
 * arithmetic, tables, CSV, and statistics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/args.hh"
#include "util/csv.hh"
#include "util/fixed_point.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/types.hh"

namespace usfq
{
namespace
{

// --- types ---------------------------------------------------------------

TEST(Types, UnitConstants)
{
    EXPECT_EQ(kPicosecond, 1000);
    EXPECT_EQ(kNanosecond, 1000000);
    EXPECT_EQ(kMicrosecond, 1000000000);
}

TEST(Types, PsToTicksRoundTrip)
{
    EXPECT_EQ(psToTicks(9.0), 9 * kPicosecond);
    EXPECT_EQ(psToTicks(0.5), 500);
    EXPECT_DOUBLE_EQ(ticksToPs(12 * kPicosecond), 12.0);
    EXPECT_DOUBLE_EQ(ticksToNs(kNanosecond), 1.0);
    EXPECT_DOUBLE_EQ(ticksToSeconds(kMicrosecond), 1e-6);
}

TEST(Types, PsToTicksRounds)
{
    EXPECT_EQ(psToTicks(0.0004), 0);
    EXPECT_EQ(psToTicks(0.0006), 1);
}

// --- Rng ----------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.uniform());
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniformInt(2, 5);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 5);
        saw_lo |= v == 2;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(5);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.gaussian(2.0, 3.0));
    EXPECT_NEAR(s.mean(), 2.0, 0.05);
    EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng rng(99);
    const auto first = rng.next();
    rng.next();
    rng.seed(99);
    EXPECT_EQ(rng.next(), first);
}

// --- FixedPoint --------------------------------------------------------

TEST(FixedPoint, QuantizeAndBack)
{
    const FixedPoint fp(0.5, 8);
    EXPECT_NEAR(fp.toDouble(), 0.5, fp.lsb());
}

TEST(FixedPoint, ZeroDefault)
{
    const FixedPoint fp(8);
    EXPECT_EQ(fp.raw(), 0);
    EXPECT_DOUBLE_EQ(fp.toDouble(), 0.0);
}

TEST(FixedPoint, SaturatesAtPlusOne)
{
    const FixedPoint fp(1.5, 8);
    EXPECT_EQ(fp.raw(), 127);
}

TEST(FixedPoint, SaturatesAtMinusOne)
{
    const FixedPoint fp(-2.0, 8);
    EXPECT_EQ(fp.raw(), -128);
    EXPECT_DOUBLE_EQ(fp.toDouble(), -1.0);
}

TEST(FixedPoint, AdditionSaturates)
{
    const FixedPoint a(0.75, 8), b(0.75, 8);
    EXPECT_EQ((a + b).raw(), 127);
}

TEST(FixedPoint, MultiplicationMatchesReal)
{
    const FixedPoint a(0.5, 12), b(-0.25, 12);
    EXPECT_NEAR((a * b).toDouble(), -0.125, a.lsb() * 2);
}

TEST(FixedPoint, MultiplyIdentityNearOne)
{
    const FixedPoint one = FixedPoint::maxValue(10);
    const FixedPoint x(0.375, 10);
    EXPECT_NEAR((one * x).toDouble(), 0.375, 2 * x.lsb());
}

TEST(FixedPoint, BitFlipSignBit)
{
    const FixedPoint x(0.25, 8);
    const FixedPoint y = x.withBitFlipped(7);
    EXPECT_NEAR(y.toDouble(), 0.25 - 1.0, 1e-9);
}

TEST(FixedPoint, BitFlipLsbSmall)
{
    const FixedPoint x(0.25, 8);
    const FixedPoint y = x.withBitFlipped(0);
    EXPECT_NEAR(std::fabs(y.toDouble() - x.toDouble()), x.lsb(), 1e-12);
}

TEST(FixedPoint, BitFlipIsInvolution)
{
    const FixedPoint x(-0.6, 12);
    for (int b = 0; b < 12; ++b)
        EXPECT_EQ(x.withBitFlipped(b).withBitFlipped(b).raw(), x.raw());
}

class FixedPointWidths : public ::testing::TestWithParam<int>
{
};

TEST_P(FixedPointWidths, QuantizationErrorBoundedByHalfLsb)
{
    const int bits = GetParam();
    Rng rng(1234);
    // Stay inside the representable range [-1, 1 - lsb]; values beyond
    // the positive maximum saturate and can err by up to one LSB.
    const double top = FixedPoint::maxValue(bits).toDouble();
    for (int i = 0; i < 200; ++i) {
        const double v = rng.uniform(-1.0, top);
        const FixedPoint fp(v, bits);
        EXPECT_LE(std::fabs(fp.toDouble() - v), fp.lsb() * 0.5 + 1e-12);
    }
}

TEST_P(FixedPointWidths, MultiplicationErrorBounded)
{
    const int bits = GetParam();
    Rng rng(77);
    for (int i = 0; i < 200; ++i) {
        const double a = rng.uniform(-0.9, 0.9);
        const double b = rng.uniform(-0.9, 0.9);
        const FixedPoint fa(a, bits), fb(b, bits);
        const double err = std::fabs((fa * fb).toDouble() - a * b);
        EXPECT_LE(err, 2.0 * fa.lsb());
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, FixedPointWidths,
                         ::testing::Values(4, 6, 8, 10, 12, 16));

// --- Table ---------------------------------------------------------------

TEST(Table, RendersHeadersAndRows)
{
    Table t("demo", {"a", "bb"});
    t.row().cell(1).cell(2.5);
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("bb"), std::string::npos);
    EXPECT_NE(s.find("2.5"), std::string::npos);
    EXPECT_EQ(t.numRows(), 1u);
}

TEST(Table, FormatNumberRanges)
{
    EXPECT_EQ(formatNumber(0.0), "0");
    EXPECT_NE(formatNumber(1.23456e7).find('e'), std::string::npos);
    EXPECT_EQ(formatNumber(12.5), "12.5");
}

// --- CSV ----------------------------------------------------------------

TEST(Csv, WritesRowsToFile)
{
    const std::string path = ::testing::TempDir() + "/usfq_csv_test.csv";
    {
        CsvWriter w(path, {"x", "y"});
        ASSERT_TRUE(w.ok());
        w.writeRow(std::vector<double>{1.0, 2.0});
        w.writeRow({std::string("a,b"), std::string("q\"q")});
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "x,y");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2");
    std::getline(in, line);
    EXPECT_EQ(line, "\"a,b\",\"q\"\"q\"");
}

// --- stats ----------------------------------------------------------------

TEST(Stats, RunningStatsMoments)
{
    RunningStats s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Stats, FitLineExact)
{
    const auto fit = fitLine({1, 2, 3, 4}, {3, 5, 7, 9});
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, FitLineNoisyR2)
{
    Rng rng(5);
    std::vector<double> xs, ys;
    for (int i = 0; i < 100; ++i) {
        xs.push_back(i);
        ys.push_back(3.0 * i + 10 + rng.gaussian(0, 5.0));
    }
    const auto fit = fitLine(xs, ys);
    EXPECT_NEAR(fit.slope, 3.0, 0.2);
    EXPECT_GT(fit.r2, 0.95);
}

TEST(Stats, Percentile)
{
    std::vector<double> v{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Stats, MeanOfVector)
{
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

// --- logging: pluggable fatal() ------------------------------------------

TEST(Logging, FatalDefaultModeExits)
{
    ASSERT_EQ(fatalMode(), FatalMode::Exit);
    EXPECT_EXIT(fatal("bad config: %d", 42),
                ::testing::ExitedWithCode(1), "bad config: 42");
}

TEST(Logging, FatalThrowModeRaisesFatalError)
{
    ScopedFatalThrow guard;
    try {
        fatal("rejected: %s", "reason");
        FAIL() << "fatal() returned";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "rejected: reason");
    }
}

TEST(Logging, ScopedFatalThrowRestoresPreviousMode)
{
    ASSERT_EQ(fatalMode(), FatalMode::Exit);
    {
        ScopedFatalThrow guard;
        EXPECT_EQ(fatalMode(), FatalMode::Throw);
        {
            ScopedFatalThrow nested;
            EXPECT_EQ(fatalMode(), FatalMode::Throw);
        }
        EXPECT_EQ(fatalMode(), FatalMode::Throw);
    }
    EXPECT_EQ(fatalMode(), FatalMode::Exit);
}

TEST(Logging, FatalModeIsPerThread)
{
    // The interleaving that broke a process-wide mode: A enters its
    // guard, B enters its own, A leaves (restoring Exit), then B's
    // fatal() fires.  B must still throw -- an exit here would end the
    // test binary.
    std::promise<void> aInside, bInside, aLeft;
    bool bThrew = false;
    std::thread a([&] {
        {
            ScopedFatalThrow guard;
            aInside.set_value();
            bInside.get_future().wait();
        }
        aLeft.set_value();
    });
    std::thread b([&] {
        aInside.get_future().wait();
        ScopedFatalThrow guard;
        bInside.set_value();
        aLeft.get_future().wait();
        try {
            fatal("worker %c", 'B');
        } catch (const FatalError &e) {
            bThrew = std::string(e.what()) == "worker B";
        }
    });
    a.join();
    b.join();
    EXPECT_TRUE(bThrew);
    // Neither guard ever touched this thread's mode.
    EXPECT_EQ(fatalMode(), FatalMode::Exit);
}

TEST(Logging, FatalCallbackSeesMessageInThrowMode)
{
    static std::string seen;
    seen.clear();
    setFatalCallback(
        [](const char *message, void *) { seen = message; });
    ScopedFatalThrow guard;
    EXPECT_THROW(fatal("observed %d", 7), FatalError);
    setFatalCallback(nullptr);
    EXPECT_EQ(seen, "observed 7");
}

// --- args ----------------------------------------------------------------

/** Build a mutable argv from literals; keeps the strings alive. */
struct ArgvFixture
{
    explicit ArgvFixture(std::vector<std::string> args)
        : storage(std::move(args))
    {
        for (std::string &s : storage)
            argv.push_back(s.data());
        argv.push_back(nullptr);
        argc = static_cast<int>(storage.size());
    }

    std::vector<std::string> storage;
    std::vector<char *> argv;
    int argc;
};

TEST(Args, IsFlagOnlyMatchesDoubleDash)
{
    EXPECT_TRUE(args::isFlag("--json"));
    EXPECT_FALSE(args::isFlag("-j"));
    EXPECT_FALSE(args::isFlag("out.json"));
    EXPECT_FALSE(args::isFlag(""));
}

TEST(Args, ExtractFlagSeparateValueCompactsArgv)
{
    ArgvFixture fx({"bench", "--json", "out.json", "positional"});
    EXPECT_EQ(args::extractFlag(&fx.argc, fx.argv.data(), "json"),
              "out.json");
    ASSERT_EQ(fx.argc, 2);
    EXPECT_STREQ(fx.argv[0], "bench");
    EXPECT_STREQ(fx.argv[1], "positional");
    EXPECT_EQ(fx.argv[2], nullptr); // null-terminated after compaction
}

TEST(Args, ExtractFlagEqualsForm)
{
    ArgvFixture fx({"bench", "--json=artifacts/x.json"});
    EXPECT_EQ(args::extractFlag(&fx.argc, fx.argv.data(), "json"),
              "artifacts/x.json");
    EXPECT_EQ(fx.argc, 1);
}

TEST(Args, ExtractFlagAbsentReturnsEmptyAndLeavesArgv)
{
    ArgvFixture fx({"bench", "--backend", "both"});
    EXPECT_EQ(args::extractFlag(&fx.argc, fx.argv.data(), "json"), "");
    EXPECT_EQ(fx.argc, 3);
}

TEST(Args, ExtractFlagLastOccurrenceWins)
{
    ArgvFixture fx({"bench", "--json", "a.json", "--json", "b.json"});
    EXPECT_EQ(args::extractFlag(&fx.argc, fx.argv.data(), "json"),
              "b.json");
    EXPECT_EQ(fx.argc, 1);
}

TEST(Args, ExtractFlagMissingValueIsFatal)
{
    // The latent bench bug this layer fixed: "--json" at the end of the
    // line used to silently produce an empty path.
    ArgvFixture fx({"bench", "--json"});
    EXPECT_EXIT(args::extractFlag(&fx.argc, fx.argv.data(), "json"),
                ::testing::ExitedWithCode(1), "--json");
}

TEST(Args, ExtractFlagFlagAsValueIsFatal)
{
    // ...and "--json --foo" used to eat "--foo" as the output path.
    ArgvFixture fx({"bench", "--json", "--foo"});
    EXPECT_EXIT(args::extractFlag(&fx.argc, fx.argv.data(), "json"),
                ::testing::ExitedWithCode(1), "--foo");
}

TEST(Args, RejectUnknownFlagsPassesPositionalsAndAllowed)
{
    ArgvFixture fx({"bench", "positional", "--benchmark_filter=x"});
    args::rejectUnknownFlags(fx.argc, fx.argv.data(), {"--benchmark_"});
    SUCCEED();
}

TEST(Args, RejectUnknownFlagsIsFatalOnTypo)
{
    ArgvFixture fx({"bench", "--jsn", "out.json"});
    EXPECT_EXIT(args::rejectUnknownFlags(fx.argc, fx.argv.data()),
                ::testing::ExitedWithCode(1), "--jsn");
}

} // namespace
} // namespace usfq
