/**
 * @file
 * Tests of the coefficient memory bank (paper §4.3) and the race-logic
 * shift registers (paper §4.4).
 */

#include <gtest/gtest.h>

#include "core/memory.hh"
#include "core/shift_register.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"
#include "sfq/sources.hh"

namespace usfq
{
namespace
{

constexpr Tick kTclk = 200 * kPicosecond;

// --- CoefficientBank ----------------------------------------------------------

struct BankHarness
{
    Netlist nl;
    CoefficientBank *bank;
    ClockSource *clk;
    std::vector<std::unique_ptr<PulseTrace>> outs;
    PulseTrace epochs;

    BankHarness(int words, int bits)
    {
        bank = &nl.create<CoefficientBank>("bank", words, bits);
        clk = &nl.create<ClockSource>("clk");
        clk->out.connect(bank->clkIn());
        for (int w = 0; w < words; ++w) {
            outs.push_back(std::make_unique<PulseTrace>(
                "out" + std::to_string(w)));
            bank->out(w).connect(outs.back()->input());
        }
        bank->epochOut().connect(epochs.input());
    }

    void
    run(int bits, int num_epochs = 1)
    {
        clk->program(kTclk, kTclk,
                     static_cast<std::uint64_t>(num_epochs)
                         << static_cast<unsigned>(bits));
        nl.queue().run();
    }
};

TEST(CoefficientBank, EachWordStreamsItsValue)
{
    BankHarness h(4, 4);
    h.bank->program(0, 3);
    h.bank->program(1, 15);
    h.bank->program(2, 0);
    h.bank->program(3, 8);
    h.run(4);
    EXPECT_EQ(h.outs[0]->count(), 3u);
    EXPECT_EQ(h.outs[1]->count(), 15u);
    EXPECT_EQ(h.outs[2]->count(), 0u);
    EXPECT_EQ(h.outs[3]->count(), 8u);
    EXPECT_EQ(h.epochs.count(), 1u);
}

TEST(CoefficientBank, ProgramReadback)
{
    Netlist nl;
    auto &bank = nl.create<CoefficientBank>("bank", 3, 6);
    bank.program(0, 42);
    bank.program(1, 0);
    bank.program(2, 63);
    EXPECT_EQ(bank.storedValue(0), 42);
    EXPECT_EQ(bank.storedValue(1), 0);
    EXPECT_EQ(bank.storedValue(2), 63);
}

TEST(CoefficientBank, UnipolarAndBipolarProgramming)
{
    Netlist nl;
    auto &bank = nl.create<CoefficientBank>("bank", 2, 8);
    bank.programUnipolar(0, 0.5);
    EXPECT_NEAR(bank.storedValue(0), 128, 1);
    bank.programBipolar(1, 0.0);
    EXPECT_NEAR(bank.storedValue(1), 128, 1);
    bank.programBipolar(1, -1.0);
    EXPECT_EQ(bank.storedValue(1), 0);
}

TEST(CoefficientBank, ValuesSurviveReset)
{
    // Coefficients are loaded once and reused every epoch (paper: they
    // "rarely get updated"), so resetAll() must not erase them.
    BankHarness h(1, 4);
    h.bank->program(0, 9);
    h.run(4);
    EXPECT_EQ(h.outs[0]->count(), 9u);
    h.nl.resetAll();
    h.outs[0]->clear();
    h.run(4);
    EXPECT_EQ(h.outs[0]->count(), 9u);
    EXPECT_EQ(h.bank->storedValue(0), 9);
}

TEST(CoefficientBank, MultiEpochStreamsRepeat)
{
    BankHarness h(2, 3);
    h.bank->program(0, 5);
    h.bank->program(1, 2);
    h.run(3, 4);
    EXPECT_EQ(h.outs[0]->count(), 20u);
    EXPECT_EQ(h.outs[1]->count(), 8u);
    EXPECT_EQ(h.epochs.count(), 4u);
}

TEST(CoefficientBank, OverheadVersusBinaryBankIsModest)
{
    Netlist nl;
    const int words = 32, bits = 8;
    auto &bank = nl.create<CoefficientBank>("bank", words, bits);
    const int binary = CoefficientBank::binaryBankJJs(words, bits);
    const double overhead =
        static_cast<double>(bank.jjCount() - binary) / binary;
    // Shared divider + mergers + fanout: tens of percent, not x2.
    EXPECT_GT(overhead, 0.0);
    EXPECT_LT(overhead, 0.8);
}

// --- BinaryToRlConverter -----------------------------------------------------

TEST(BinaryToRlConverter, EmitsAtProgrammedSlot)
{
    Netlist nl;
    auto &b2rc = nl.create<BinaryToRlConverter>("b2rc", 4);
    auto &clk = nl.create<ClockSource>("clk");
    auto &epoch = nl.create<PulseSource>("e");
    PulseTrace out;
    clk.out.connect(b2rc.clkIn);
    epoch.out.connect(b2rc.epochIn);
    b2rc.out.connect(out.input());

    b2rc.program(5);
    epoch.pulseAt(0);
    clk.program(10 * kPicosecond, 10 * kPicosecond, 16);
    nl.queue().run();
    ASSERT_EQ(out.count(), 1u);
    // Fires on the 5th clock: t = 50 ps (+ cell delay).
    EXPECT_EQ(out.times()[0], 50 * kPicosecond + cell::kDffDelay);
}

TEST(BinaryToRlConverter, ZeroFiresAtEpochStart)
{
    Netlist nl;
    auto &b2rc = nl.create<BinaryToRlConverter>("b2rc", 4);
    auto &epoch = nl.create<PulseSource>("e");
    PulseTrace out;
    epoch.out.connect(b2rc.epochIn);
    b2rc.out.connect(out.input());
    b2rc.program(0);
    epoch.pulseAt(100);
    nl.queue().run();
    ASSERT_EQ(out.count(), 1u);
}

TEST(BinaryToRlConverter, SilentWithoutEpoch)
{
    Netlist nl;
    auto &b2rc = nl.create<BinaryToRlConverter>("b2rc", 4);
    auto &clk = nl.create<ClockSource>("clk");
    PulseTrace out;
    clk.out.connect(b2rc.clkIn);
    b2rc.out.connect(out.input());
    b2rc.program(3);
    clk.program(10 * kPicosecond, 10 * kPicosecond, 16);
    nl.queue().run();
    EXPECT_EQ(out.count(), 0u);
}

// --- DffRlShiftStage ---------------------------------------------------------

TEST(DffRlShiftStage, DelaysByOneEpochOfClocks)
{
    const int bits = 3; // 8 stages
    Netlist nl;
    auto &stage = nl.create<DffRlShiftStage>("sr", bits);
    auto &clk = nl.create<ClockSource>("clk");
    auto &src = nl.create<PulseSource>("in");
    PulseTrace out;
    clk.out.connect(stage.clkIn);
    src.out.connect(stage.in);
    stage.out.connect(out.input());

    src.pulseAt(5 * kPicosecond); // just before the first clock
    clk.program(10 * kPicosecond, 10 * kPicosecond, 24);
    nl.queue().run();
    ASSERT_EQ(out.count(), 1u);
    // Enters on clock 1 (10 ps), exits on clock 8 (80 ps).
    EXPECT_EQ(out.times()[0], 80 * kPicosecond + cell::kDffDelay);
}

TEST(DffRlShiftStage, AreaGrowsExponentially)
{
    Netlist nl;
    auto &s3 = nl.create<DffRlShiftStage>("s3", 3);
    auto &s6 = nl.create<DffRlShiftStage>("s6", 6);
    EXPECT_EQ(s3.jjCount(), 8 * cell::kDffJJs);
    EXPECT_EQ(s6.jjCount(), 64 * cell::kDffJJs);
}

// --- IntegratorBuffer / RlMemoryCell / RlShiftRegister -----------------------------

TEST(IntegratorBuffer, DelaysPulseByExactlyOneEpoch)
{
    const Tick period = 720 * kPicosecond;
    Netlist nl;
    auto &buf = nl.create<IntegratorBuffer>("buf", period);
    auto &src = nl.create<PulseSource>("in");
    PulseTrace out;
    src.out.connect(buf.in);
    buf.out.connect(out.input());
    src.pulseAt(123 * kPicosecond);
    nl.queue().run();
    ASSERT_EQ(out.count(), 1u);
    EXPECT_EQ(out.times()[0], 123 * kPicosecond + period);
}

TEST(IntegratorBuffer, AreaIs48JJsIndependentOfResolution)
{
    Netlist nl;
    auto &b1 = nl.create<IntegratorBuffer>("b1", 100 * kPicosecond);
    auto &b2 = nl.create<IntegratorBuffer>("b2", 100 * kNanosecond);
    EXPECT_EQ(b1.jjCount(), 48);
    EXPECT_EQ(b2.jjCount(), b1.jjCount());
}

TEST(RlMemoryCell, AreaIs120JJs)
{
    Netlist nl;
    auto &cell = nl.create<RlMemoryCell>("c", kTclk);
    EXPECT_EQ(cell.jjCount(), 120);
}

TEST(RlMemoryCell, InterleavesTwoBuffers)
{
    const Tick period = 1000 * kPicosecond;
    Netlist nl;
    auto &cell = nl.create<RlMemoryCell>("c", period);
    auto &src = nl.create<PulseSource>("in");
    auto &sel = nl.create<PulseSource>("sel");
    PulseTrace out;
    src.out.connect(cell.in());
    sel.out.connect(cell.selA);
    cell.out().connect(out.input());

    // Epoch 0: fill A. Epoch 1: fill B while A drains through the mux.
    sel.pulseAt(0);
    src.pulseAt(100 * kPicosecond);
    // Switch to B at the next epoch boundary.
    auto &selb = nl.create<PulseSource>("selb");
    selb.out.connect(cell.selB);
    selb.pulseAt(period);
    src.pulseAt(period + 300 * kPicosecond);
    // And back to A for epoch 2 so B drains.
    auto &sela2 = nl.create<PulseSource>("sela2");
    sela2.out.connect(cell.selA);
    sela2.pulseAt(2 * period);

    nl.queue().run();
    ASSERT_EQ(out.count(), 2u);
    // Demux and mux each add one cell delay around the buffer.
    EXPECT_EQ(out.times()[0], 100 * kPicosecond + period +
                                  2 * cell::kMuxDelay);
    EXPECT_EQ(out.times()[1], period + 300 * kPicosecond + period +
                                  2 * cell::kMuxDelay);
}

TEST(RlShiftRegister, DelaysEachStageByOneEpoch)
{
    const Tick period = 2000 * kPicosecond;
    const int depth = 3;
    Netlist nl;
    auto &sr = nl.create<RlShiftRegister>("sr", depth, period);
    auto &src = nl.create<PulseSource>("in");
    auto &epoch = nl.create<PulseSource>("e");
    src.out.connect(sr.in());
    epoch.out.connect(sr.epochIn());
    std::vector<std::unique_ptr<PulseTrace>> taps;
    for (int k = 0; k < depth; ++k) {
        taps.push_back(std::make_unique<PulseTrace>(indexedName("t", k)));
        sr.tapOut(k).connect(taps.back()->input());
    }

    const int epochs = 6;
    const Tick offset = 700 * kPicosecond; // RL id within the epoch
    for (int e = 0; e < epochs; ++e) {
        epoch.pulseAt(e * period);
        src.pulseAt(e * period + offset);
    }
    nl.queue().run();

    // Tap k sees the input delayed k+1 epochs; later epochs flush it.
    for (int k = 0; k < depth; ++k) {
        EXPECT_GE(taps[static_cast<std::size_t>(k)]->count(),
                  static_cast<std::size_t>(epochs - k - 1))
            << "tap " << k;
        // Delay of the first pulse through k+1 stages.
        // Each stage adds demux+mux (and a tap splitter) cell delays.
        const Tick expect_min = offset + (k + 1) * period;
        EXPECT_NEAR(
            static_cast<double>(
                taps[static_cast<std::size_t>(k)]->times()[0]),
            static_cast<double>(expect_min),
            static_cast<double>(60 * kPicosecond))
            << "tap " << k;
    }
}

TEST(RlShiftRegister, AreaMatchesModel)
{
    Netlist nl;
    auto &sr = nl.create<RlShiftRegister>("sr", 8, kTclk);
    EXPECT_EQ(sr.jjCount(), integratorShiftRegisterJJs(8, 8));
}

// --- Fig. 12 area model shapes -----------------------------------------------

TEST(ShiftRegisterAreas, PaperOrderingHolds)
{
    const int words = 8;
    for (int bits = 8; bits <= 16; bits += 2) {
        const auto binary = binaryShiftRegisterJJs(words, bits);
        const auto b2rc = b2rcShiftRegisterJJs(words, bits);
        const auto dff_rl = dffRlShiftRegisterJJs(words, bits);
        const auto integ = integratorShiftRegisterJJs(words, bits);
        // B2RC is the cheaper RL option only at low bits; the DFF chain
        // explodes; the integrator buffer beats both RL options.
        EXPECT_GT(b2rc, binary);
        EXPECT_GT(dff_rl, b2rc) << "bits=" << bits;
        EXPECT_LT(integ, b2rc) << "bits=" << bits;
        EXPECT_LT(integ, dff_rl);
    }
}

TEST(ShiftRegisterAreas, B2rcIsAbout3xBinary)
{
    // Paper: "up to 3.2x more area than its binary counterpart".
    const double ratio =
        static_cast<double>(b2rcShiftRegisterJJs(8, 8)) /
        binaryShiftRegisterJJs(8, 8);
    EXPECT_NEAR(ratio, 3.2, 0.3);
}

TEST(ShiftRegisterAreas, IntegratorOverheadMatchesPaper)
{
    // Paper: ~2.5x binary at 8 bits, ~1.3x at 16 bits.
    const double r8 =
        static_cast<double>(integratorShiftRegisterJJs(8, 8)) /
        binaryShiftRegisterJJs(8, 8);
    const double r16 =
        static_cast<double>(integratorShiftRegisterJJs(8, 16)) /
        binaryShiftRegisterJJs(8, 16);
    EXPECT_NEAR(r8, 2.5, 0.3);
    EXPECT_NEAR(r16, 1.3, 0.2);
}

} // namespace
} // namespace usfq
