/**
 * @file
 * Cross-module integration and property tests: composed accelerator
 * datapaths (coefficient bank feeding a DPU, PE-to-PE chaining),
 * reset-and-replay of every epoch rig the engines reuse against fresh
 * builds, and determinism of full simulations.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/adder.hh"
#include "core/dpu.hh"
#include "core/fir.hh"
#include "core/memory.hh"
#include "core/multiplier.hh"
#include "core/pe.hh"
#include "core/pnm.hh"
#include "core/shift_register.hh"
#include "gen/balance.hh"
#include "gen/datapath.hh"
#include "gen/functional.hh"
#include "noc/grid.hh"
#include "noc/plan.hh"
#include "sim/sweep.hh"
#include "sim/trace.hh"
#include "sfq/sources.hh"
#include "util/random.hh"

namespace usfq
{
namespace
{

// --- coefficient bank feeding a DPU (the FIR datapath core) ------------------

TEST(Integration, BankStreamsDriveDpu)
{
    // Coefficients streamed from NDRO memory multiply RL operands: the
    // composition the FIR relies on, checked without the delay line.
    const int bits = 6;
    const int words = 4;
    const UsfqFirConfig fcfg{.taps = words, .bits = bits,
                             .mode = DpuMode::Unipolar};
    const EpochConfig ecfg(bits, fcfg.clockPeriod());

    Netlist nl;
    auto &bank = nl.create<CoefficientBank>("bank", words, bits);
    auto &dpu = nl.create<DotProductUnit>("dpu", words,
                                          DpuMode::Unipolar);
    auto &clk = nl.create<ClockSource>("clk");
    PulseTrace out;
    clk.out.connect(bank.clkIn());
    bank.epochOut().connect(dpu.epochIn());
    for (int w = 0; w < words; ++w)
        bank.out(w).connect(dpu.streamIn(w));
    dpu.out().connect(out.input());

    const std::vector<int> values{10, 32, 50, 63};
    const std::vector<double> rl{0.25, 0.5, 0.75, 1.0};
    for (int w = 0; w < words; ++w) {
        bank.program(w, values[static_cast<std::size_t>(w)]);
        auto &src = nl.create<PulseSource>("x" + std::to_string(w));
        src.out.connect(dpu.rlIn(w));
        // RL pulses referenced to the bank's divider-chain lag.
        const Tick marker_lag = fcfg.clockPeriod() +
                                static_cast<Tick>(bits) *
                                    cell::kTff2Delay;
        src.pulseAt(marker_lag + 20 * kPicosecond +
                    ecfg.rlTime(ecfg.rlIdOfUnipolar(
                        rl[static_cast<std::size_t>(w)])));
    }
    clk.program(fcfg.clockPeriod(), fcfg.clockPeriod(),
                std::uint64_t{1} << bits);
    nl.queue().run();

    double ideal = 0.0;
    for (int w = 0; w < words; ++w)
        ideal += values[static_cast<std::size_t>(w)] /
                 static_cast<double>(ecfg.nmax()) *
                 rl[static_cast<std::size_t>(w)];
    const double got = DotProductUnit::decode(
        ecfg, DpuMode::Unipolar, words, dpu.paddedLength(),
        out.count());
    EXPECT_NEAR(got, ideal, 0.25) << "dot product through real memory";
}

// --- PE chaining: RL output feeds the next PE's RL input ----------------------

TEST(Integration, PeOutputDrivesNextPeRlInput)
{
    // PE1 computes (a*b)/2 and emits it as an RL pulse next epoch;
    // PE2 consumes that pulse directly as its In1.
    const EpochConfig cfg(4, 30 * kPicosecond);
    Netlist nl;
    auto &pe1 = nl.create<ProcessingElement>("pe1", cfg);
    auto &pe2 = nl.create<ProcessingElement>("pe2", cfg);
    auto &src_e = nl.create<PulseSource>("e");
    auto &src1 = nl.create<PulseSource>("in1");
    auto &src2 = nl.create<PulseSource>("in2");
    auto &src2b = nl.create<PulseSource>("in2b");
    PulseTrace out;

    src_e.out.connect(pe1.epoch());
    src_e.out.connect(pe2.epoch());
    src1.out.connect(pe1.in1());
    src2.out.connect(pe1.in2());
    pe1.out().connect(pe2.in1()); // RL chaining
    src2b.out.connect(pe2.in2());
    pe2.out().connect(out.input());

    const Tick T = cfg.duration();
    // Epoch 0: PE1 computes 1.0 * 0.5 / 2 = 0.25 (slot 4 of 16).
    src_e.pulseAt(0);
    src1.pulseAt(5 * kPicosecond + cfg.rlTime(15));
    for (Tick t : cfg.streamTimes(8, 0))
        src2.pulseAt(t);
    // Epoch 1: PE1's RL output (slot ~4) gates PE2's full stream:
    // PE2 out = (0.25 * 1.0)/2 = 0.125 -> slot 2.
    src_e.pulseAt(T);
    for (Tick t : cfg.streamTimes(16, T))
        src2b.pulseAt(t);
    // Epoch 2: conversion marker for PE2.
    src_e.pulseAt(2 * T);
    nl.queue().run();

    // PE2 emits after the marker at 2T.
    int slot = -1;
    for (Tick t : out.times())
        if (t > 2 * T)
            slot = cfg.rlSlotOf(t - 2 * T - 33 * kPicosecond -
                                EpochConfig::kRlPulseOffset);
    EXPECT_NEAR(slot, 2, 1);
}

// --- reset-and-replay across the epoch rigs ----------------------------------

/** What one epoch shows: the rig-vs-fresh comparison surface. */
struct EpochTrace
{
    long long value = 0;       ///< count, or the PE's RL slot
    std::vector<Tick> times;   ///< output pulse times
    std::uint64_t switches = 0;
    noc::FabricObservation fabric;
    std::uint64_t late = 0;
    std::uint64_t misaligned = 0;

    bool operator==(const EpochTrace &other) const = default;
};

/**
 * One reset-and-replay case: rig() builds a rig and returns its epoch
 * runner; fresh() builds the same device from scratch for every epoch,
 * programs it without any reset, and runs it once.
 */
struct ReplayCase
{
    std::string name;
    std::function<std::function<EpochTrace(std::uint64_t)>()> rig;
    std::function<EpochTrace(std::uint64_t)> fresh;
};

/** Seeded DPU operands: a stream count and an RL id per element. */
void
drawDpuOperands(const EpochConfig &cfg, int length, std::uint64_t seed,
                std::vector<int> &streams, std::vector<int> &ids)
{
    Rng rng(seed);
    streams.assign(static_cast<std::size_t>(length), 0);
    ids.assign(static_cast<std::size_t>(length), 0);
    for (int i = 0; i < length; ++i) {
        streams[static_cast<std::size_t>(i)] =
            static_cast<int>(rng.uniformInt(0, cfg.nmax()));
        ids[static_cast<std::size_t>(i)] =
            static_cast<int>(rng.uniformInt(0, cfg.nmax()));
    }
}

ReplayCase
dpuCase(int length, DpuMode mode)
{
    const EpochConfig cfg(4, 40 * kPicosecond);
    ReplayCase c;
    c.name = "dpu" + std::to_string(length) +
             (mode == DpuMode::Unipolar ? "u" : "b");
    c.rig = [=] {
        auto rig = std::make_shared<DpuEpochRig>(cfg, length, mode);
        return [=](std::uint64_t seed) {
            std::vector<int> streams, ids;
            drawDpuOperands(cfg, length, seed, streams, ids);
            EpochTrace t;
            t.value = rig->run(streams, ids);
            t.times = rig->output().times();
            t.switches = rig->netlist().totalSwitches();
            return t;
        };
    };
    c.fresh = [=](std::uint64_t seed) {
        std::vector<int> streams, ids;
        drawDpuOperands(cfg, length, seed, streams, ids);
        Netlist nl;
        auto &dpu = nl.create<DotProductUnit>("dpu", length, mode);
        auto &e = nl.create<PulseSource>("e");
        PulseTrace out;
        e.out.connect(dpu.epochIn());
        PulseSource *clk = nullptr;
        if (mode == DpuMode::Bipolar) {
            clk = &nl.create<PulseSource>("clk");
            clk->out.connect(dpu.clkIn());
        }
        dpu.out().connect(out.input());
        e.pulseAt(0);
        if (clk != nullptr)
            clk->pulsesAt(BipolarMultiplier::gridClockTimes(cfg, 0));
        for (int i = 0; i < length; ++i) {
            const auto k = static_cast<std::size_t>(i);
            auto &a = nl.create<PulseSource>("a" + std::to_string(i));
            auto &b = nl.create<PulseSource>("b" + std::to_string(i));
            a.out.connect(dpu.rlIn(i));
            b.out.connect(dpu.streamIn(i));
            a.pulseAt(dpuRlLaunchOffset(length) + cfg.rlTime(ids[k]));
            b.pulsesAt(cfg.streamTimes(streams[k]));
        }
        nl.queue().run();
        EpochTrace t;
        t.value = static_cast<long long>(out.count());
        t.times = out.times();
        t.switches = nl.totalSwitches();
        return t;
    };
    return c;
}

ReplayCase
peCase()
{
    const EpochConfig cfg(5, 30 * kPicosecond);
    const auto draw = [cfg](std::uint64_t seed) {
        Rng rng(seed);
        std::array<int, 3> in{};
        for (int &v : in)
            v = static_cast<int>(rng.uniformInt(0, cfg.nmax()));
        return in;
    };
    ReplayCase c;
    c.name = "pe";
    c.rig = [=] {
        auto rig = std::make_shared<PeEpochRig>(cfg);
        return [=](std::uint64_t seed) {
            const auto in = draw(seed);
            EpochTrace t;
            t.value = rig->run(in[0], in[1], in[2]);
            t.times = rig->output().times();
            t.switches = rig->netlist().totalSwitches();
            return t;
        };
    };
    c.fresh = [=](std::uint64_t seed) {
        const auto in = draw(seed);
        Netlist nl;
        auto &pe = nl.create<ProcessingElement>("pe", cfg);
        auto &e = nl.create<PulseSource>("e");
        auto &in1 = nl.create<PulseSource>("in1");
        auto &in2 = nl.create<PulseSource>("in2");
        auto &in3 = nl.create<PulseSource>("in3");
        PulseTrace out;
        e.out.connect(pe.epoch());
        in1.out.connect(pe.in1());
        in2.out.connect(pe.in2());
        in3.out.connect(pe.in3());
        pe.out().connect(out.input());
        e.pulseAt(0);
        in1.pulseAt(5 * kPicosecond + cfg.rlTime(in[0]));
        in2.pulsesAt(cfg.streamTimes(in[1]));
        in3.pulsesAt(cfg.streamTimes(in[2]));
        e.pulseAt(cfg.duration());
        nl.queue().run();
        EpochTrace t;
        t.value = -1;
        for (Tick at : out.times()) {
            if (at > cfg.duration()) {
                t.value = cfg.rlSlotOf(at - cfg.duration() -
                                       cfg.slotWidth() - 3 * kPicosecond -
                                       EpochConfig::kRlPulseOffset);
                break;
            }
        }
        t.times = out.times();
        t.switches = nl.totalSwitches();
        return t;
    };
    return c;
}

ReplayCase
genCase(gen::TreeKind tree, gen::LaneShape shape)
{
    gen::DesignSpec spec;
    spec.lanes = 4;
    spec.bits = 4;
    spec.clockPeriodPs = 28;
    spec.tree = tree;
    spec.shape = shape;
    const gen::BalanceOutcome bo = gen::balanceDesign(spec);
    EXPECT_TRUE(bo.converged()) << bo.detail;
    ReplayCase c;
    c.name = std::string("gen_") + gen::treeKindName(tree) + "_" +
             gen::laneShapeName(shape);
    c.rig = [=] {
        auto rig = std::make_shared<gen::PulseEpochRig>(spec, bo.plan);
        return [=](std::uint64_t seed) {
            EpochTrace t;
            t.value = rig->run(gen::drawEpochInputs(spec, seed));
            t.times = rig->output().times();
            t.switches = rig->netlist().totalSwitches();
            return t;
        };
    };
    c.fresh = [=](std::uint64_t seed) {
        Netlist nl("gen");
        auto &dp = nl.create<gen::StreamDatapath>("dp", spec, bo.plan);
        PulseTrace out("gen.out");
        out.input().markObserver();
        dp.out().connect(out.input());
        dp.programEpoch(gen::drawEpochInputs(spec, seed));
        nl.run();
        EpochTrace t;
        t.value = static_cast<long long>(out.totalCount());
        t.times = out.times();
        t.switches = nl.totalSwitches();
        return t;
    };
    return c;
}

ReplayCase
nocCase(int side, bool shared)
{
    noc::GridSpec gs;
    gs.rows = side;
    gs.cols = side;
    gs.taps = 2;
    gs.bits = 4;
    gs.mode = DpuMode::Bipolar;
    gs.flows = noc::columnCollectFlows(side, side);
    gs.sharedSinkWindows = shared;
    const noc::GridPlan plan = noc::planGrid(gs);
    const auto observe = [](const noc::TileGrid &grid, Netlist &nl) {
        EpochTrace t;
        t.fabric = grid.observe();
        t.late = grid.latePulses();
        t.misaligned = grid.misaligned();
        t.switches = nl.totalSwitches();
        return t;
    };
    ReplayCase c;
    c.name = "noc" + std::to_string(side) + "x" + std::to_string(side) +
             (shared ? "_shared" : "");
    c.rig = [=] {
        auto rig = std::make_shared<noc::PulseFabricRig>(plan);
        return [=](std::uint64_t seed) {
            const noc::PulseFabricResult res = rig->run(seed);
            EpochTrace t = observe(rig->grid(), rig->netlist());
            EXPECT_EQ(res.obs, t.fabric);
            EXPECT_EQ(res.latePulses, t.late);
            EXPECT_EQ(res.misaligned, t.misaligned);
            return t;
        };
    };
    c.fresh = [=](std::uint64_t seed) {
        Netlist nl("noc");
        noc::TileGrid grid(nl, plan);
        grid.programOperands(noc::drawTileOperands(plan, seed));
        nl.elaborate();
        nl.run(plan.horizon);
        return observe(grid, nl);
    };
    return c;
}

TEST(Integration, ResetRestoresIdenticalBehaviour)
{
    // Every epoch rig the engines replay (DPU 2..64 taps in both modes,
    // PE, generated datapaths of every tree and lane shape, NoC tile
    // grids) runs >= 200 seeded epochs on ONE rig -- reset, re-program,
    // run -- and each must match a device built from scratch for that
    // epoch: value, output pulse times, switching activity, and for the
    // NoC the whole fabric observation and the late/misaligned counts.
    std::vector<ReplayCase> cases;
    for (const DpuMode mode : {DpuMode::Unipolar, DpuMode::Bipolar})
        for (const int length : {2, 3, 4, 7, 8, 16, 64})
            cases.push_back(dpuCase(length, mode));
    cases.push_back(peCase());
    for (const gen::TreeKind tree :
         {gen::TreeKind::Balancer, gen::TreeKind::Merger,
          gen::TreeKind::Tff2})
        for (const gen::LaneShape shape :
             {gen::LaneShape::Balanced, gen::LaneShape::Skewed,
              gen::LaneShape::Random})
            cases.push_back(genCase(tree, shape));
    cases.push_back(nocCase(2, false));
    cases.push_back(nocCase(4, true));

    constexpr std::size_t kEpochs = 200;
    for (const ReplayCase &c : cases) {
        const auto epoch = c.rig();
        bool sawOutput = false;
        for (std::size_t e = 0; e < kEpochs; ++e) {
            const std::uint64_t seed = shardSeed(0x7e5e7ULL, e);
            const EpochTrace replayed = epoch(seed);
            const EpochTrace fresh = c.fresh(seed);
            ASSERT_TRUE(replayed == fresh)
                << c.name << " epoch " << e << ": value "
                << replayed.value << " vs " << fresh.value
                << ", switches " << replayed.switches << " vs "
                << fresh.switches << ", pulse times "
                << (replayed.times == fresh.times ? "equal" : "differ")
                << ", fabric "
                << (replayed.fabric == fresh.fabric ? "equal" : "differs");
            sawOutput = sawOutput || !fresh.times.empty() ||
                        fresh.fabric.delivered > 0;
        }
        EXPECT_TRUE(sawOutput) << c.name << ": no epoch produced output";
    }
}

TEST(Integration, SimulationIsDeterministic)
{
    // Two fresh netlists with the same stimulus give bit-identical
    // pulse times.
    auto run = [] {
        const EpochConfig cfg(5, 40 * kPicosecond);
        Netlist nl;
        auto &net = nl.create<TreeCountingNetwork>("net", 8);
        PulseTrace out;
        net.out().connect(out.input());
        Rng rng(99);
        for (int i = 0; i < 8; ++i) {
            auto &src = nl.create<PulseSource>("s" + std::to_string(i));
            src.out.connect(net.in(i));
            src.pulsesAt(cfg.streamTimes(
                static_cast<int>(rng.uniformInt(0, cfg.nmax()))));
        }
        nl.queue().run();
        return out.times();
    };
    EXPECT_EQ(run(), run());
}

// --- netlist-level area accounting ----------------------------------------------

TEST(Integration, NetlistAreaEqualsComponentSum)
{
    Netlist nl;
    auto &pe = nl.create<ProcessingElement>("pe", EpochConfig(6));
    auto &dpu = nl.create<DotProductUnit>("dpu", 8, DpuMode::Bipolar);
    auto &bank = nl.create<CoefficientBank>("bank", 8, 6);
    EXPECT_EQ(nl.totalJJs(),
              pe.jjCount() + dpu.jjCount() + bank.jjCount());
}

// --- functional FIR against per-tap composition -------------------------------

TEST(Integration, FirModelEqualsManualTapComposition)
{
    const UsfqFirConfig cfg{.taps = 4, .bits = 8,
                            .mode = DpuMode::Bipolar};
    const EpochConfig ecfg(cfg.bits, cfg.clockPeriod());
    // Peak >= 0.95 so the model's coefficient pre-scaling is identity
    // and the manual composition matches term for term.
    const std::vector<double> h{0.95, -0.25, 0.125, -0.0625};
    UsfqFirModel fir(h, cfg);
    ASSERT_DOUBLE_EQ(fir.coefficientScale(), 1.0);

    Rng rng(5);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> window(4);
        for (auto &v : window)
            v = rng.uniform(-1.0, 1.0);

        // Manual composition from the primitive counting models.
        std::vector<int> prods(4);
        for (int k = 0; k < 4; ++k) {
            const int hc = ecfg.streamCountOfBipolar(
                h[static_cast<std::size_t>(k)]);
            const int id = ecfg.rlIdOfBipolar(
                window[static_cast<std::size_t>(k)]);
            prods[static_cast<std::size_t>(k)] =
                bipolarProductCount(ecfg, hc, id);
        }
        const double manual = DotProductUnit::decode(
            ecfg, DpuMode::Bipolar, 4, 4,
            static_cast<std::size_t>(treeNetworkCount(prods)));

        EXPECT_DOUBLE_EQ(fir.step(window), manual) << "trial " << trial;
    }
}

} // namespace
} // namespace usfq
