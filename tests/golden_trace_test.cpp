/**
 * @file
 * Golden-trace regression tests: full pulse traces of small canonical
 * netlists are compared tick-for-tick against checked-in golden files.
 *
 * The goldens were generated with the original std::priority_queue
 * event kernel, so they pin the observable behaviour of the simulator
 * across kernel rewrites: any change to event ordering, cell timing, or
 * wire delays shows up as a pulse-level diff.
 *
 * Regenerate with:  USFQ_UPDATE_GOLDEN=1 ./golden_trace_test
 * (then inspect the diff of tests/golden/ before committing).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/adder.hh"
#include "core/encoding.hh"
#include "core/fir.hh"
#include "core/multiplier.hh"
#include "core/pnm.hh"
#include "func/components.hh"
#include "gen/balance.hh"
#include "gen/datapath.hh"
#include "gen/functional.hh"
#include "gen/spec.hh"
#include "obs/stats.hh"
#include "sim/netlist.hh"
#include "sim/sweep.hh"
#include "sim/trace.hh"
#include "sfq/sources.hh"
#include "sta/sta.hh"

#ifndef USFQ_GOLDEN_DIR
#error "USFQ_GOLDEN_DIR must point at tests/golden"
#endif

namespace usfq
{
namespace
{

/** One named pulse trace of a scenario. */
struct Channel
{
    std::string name;
    std::vector<Tick> times;
};

using Channels = std::vector<Channel>;

std::string
goldenPath(const std::string &scenario)
{
    return std::string(USFQ_GOLDEN_DIR) + "/" + scenario + ".trace";
}

void
writeGolden(const std::string &scenario, const Channels &channels)
{
    std::ofstream out(goldenPath(scenario));
    ASSERT_TRUE(out.good()) << "cannot write " << goldenPath(scenario);
    out << "# usfq golden trace: " << scenario << "\n";
    out << "# ticks are integer femtoseconds; regenerate with "
           "USFQ_UPDATE_GOLDEN=1\n";
    for (const auto &ch : channels) {
        out << "channel " << ch.name << " " << ch.times.size() << "\n";
        for (Tick t : ch.times)
            out << t << "\n";
    }
}

bool
readGolden(const std::string &scenario, Channels &channels)
{
    std::ifstream in(goldenPath(scenario));
    if (!in.good())
        return false;
    channels.clear();
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string word;
        ls >> word;
        if (word == "channel") {
            Channel ch;
            std::size_t count = 0;
            ls >> ch.name >> count;
            ch.times.reserve(count);
            channels.push_back(std::move(ch));
        } else {
            if (channels.empty())
                return false;
            channels.back().times.push_back(
                static_cast<Tick>(std::stoll(word)));
        }
    }
    return true;
}

/** Compare against the golden file, or regenerate it when asked to. */
void
checkGolden(const std::string &scenario, const Channels &actual)
{
    const char *update = std::getenv("USFQ_UPDATE_GOLDEN");
    if (update && update[0] == '1') {
        writeGolden(scenario, actual);
        SUCCEED() << "regenerated " << goldenPath(scenario);
        return;
    }

    Channels expected;
    ASSERT_TRUE(readGolden(scenario, expected))
        << "missing golden file " << goldenPath(scenario)
        << "; run with USFQ_UPDATE_GOLDEN=1 to create it";
    ASSERT_EQ(expected.size(), actual.size()) << scenario;
    for (std::size_t c = 0; c < expected.size(); ++c) {
        const Channel &e = expected[c];
        const Channel &a = actual[c];
        EXPECT_EQ(e.name, a.name) << scenario << " channel " << c;
        ASSERT_EQ(e.times.size(), a.times.size())
            << scenario << "." << e.name << ": pulse count changed";
        for (std::size_t i = 0; i < e.times.size(); ++i) {
            ASSERT_EQ(e.times[i], a.times[i])
                << scenario << "." << e.name << ": pulse " << i
                << " moved (golden " << e.times[i] << " fs, got "
                << a.times[i] << " fs)";
        }
    }
}

/**
 * STA-vs-sim envelope: every simulated pulse on @p port must land
 * inside the STA arrival window, and successive pulses may never be
 * closer than the STA separation floor -- so the STA-predicted max
 * pulse rate upper-bounds anything the event-driven kernel produced.
 */
void
expectStaEnvelope(const StaReport &sta, const OutputPort &port,
                  const std::vector<Tick> &observed,
                  const std::string &what)
{
    if (observed.empty())
        return;
    const ArrivalWindow w = sta.windowOf(port);
    ASSERT_TRUE(w.reachable)
        << what << ": traced port unreachable in STA";
    for (std::size_t i = 0; i < observed.size(); ++i) {
        EXPECT_GE(observed[i], w.earliest)
            << what << ": pulse " << i << " before the STA window";
        EXPECT_LE(observed[i], w.latest)
            << what << ": pulse " << i << " after the STA window";
    }
    const Tick floor = sta.separationFloor(port);
    for (std::size_t i = 1; i < observed.size(); ++i)
        EXPECT_GE(observed[i] - observed[i - 1], floor)
            << what << ": pulses " << i - 1 << " and " << i
            << " beat the STA separation floor";
}

// --- canonical netlists ----------------------------------------------------

/** One unipolar multiplier epoch: n-pulse stream gated by an RL pulse. */
std::vector<Tick>
runMultiplierEpoch(int bits, int stream_count, int rl_id)
{
    const EpochConfig cfg(bits);
    Netlist nl;
    auto &mult = nl.create<UnipolarMultiplier>("m");
    auto &e = nl.create<PulseSource>("e");
    auto &a = nl.create<PulseSource>("a");
    auto &b = nl.create<PulseSource>("b");
    PulseTrace out;
    e.out.connect(mult.epoch());
    a.out.connect(mult.streamIn());
    b.out.connect(mult.rlIn());
    mult.out().connect(out.input());
    e.pulseAt(0);
    a.pulsesAt(cfg.streamTimes(stream_count));
    b.pulseAt(cfg.rlArrival(rl_id));
    nl.run();
    expectStaEnvelope(runSta(nl), mult.out(), out.times(),
                      "multiplier n=" + std::to_string(stream_count));
    return out.times();
}

/** 8-input balancer tree summing one stream per input. */
std::vector<Tick>
runCountingNetwork(const std::vector<int> &counts)
{
    const EpochConfig cfg(6, 40 * kPicosecond);
    Netlist nl;
    auto &net = nl.create<TreeCountingNetwork>(
        "net", static_cast<int>(counts.size()));
    PulseTrace out;
    net.out().connect(out.input());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        auto &src = nl.create<PulseSource>(indexedName("s", i));
        src.out.connect(net.in(static_cast<int>(i)));
        src.pulsesAt(cfg.streamTimes(counts[i]));
    }
    nl.run();
    expectStaEnvelope(runSta(nl), net.out(), out.times(),
                      "counting network");
    return out.times();
}

/** A PNM generating its programmed stream from a divided clock. */
template <typename Pnm>
Channels
runPnm(int bits, int value, int num_epochs)
{
    constexpr Tick kTclk = 200 * kPicosecond;
    Netlist nl;
    auto &pnm = nl.create<Pnm>("pnm", bits);
    auto &clk = nl.create<ClockSource>("clk");
    PulseTrace stream, epochs;
    clk.out.connect(pnm.clkIn());
    pnm.out().connect(stream.input());
    pnm.epochOut().connect(epochs.input());
    pnm.program(value);
    clk.program(kTclk, kTclk,
                static_cast<std::uint64_t>(num_epochs)
                    << static_cast<unsigned>(bits));
    nl.run();
    const StaReport sta = runSta(nl);
    expectStaEnvelope(sta, pnm.out(), stream.times(), "pnm stream");
    expectStaEnvelope(sta, pnm.epochOut(), epochs.times(), "pnm epoch");
    return {{"stream", stream.times()}, {"epoch", epochs.times()}};
}

// --- the tests -------------------------------------------------------------

TEST(GoldenTrace, UnipolarMultiplierEpoch)
{
    Channels channels;
    channels.push_back({"out_n32_rl32", runMultiplierEpoch(6, 32, 32)});
    channels.push_back({"out_n17_rl45", runMultiplierEpoch(6, 17, 45)});
    channels.push_back({"out_n63_rl1", runMultiplierEpoch(6, 63, 1)});
    checkGolden("multiplier_epoch", channels);
}

TEST(GoldenTrace, CountingNetwork8)
{
    Channels channels;
    channels.push_back(
        {"out_ramp", runCountingNetwork({4, 10, 16, 22, 28, 34, 40, 46})});
    channels.push_back(
        {"out_flat", runCountingNetwork({32, 32, 32, 32, 32, 32, 32, 32})});
    checkGolden("counting_network8", channels);
}

// Kernel instrumentation (USFQ_OBS=1) must be invisible to simulation
// results: the same scenario re-checks against the same golden file
// with stats collection force-enabled.
TEST(GoldenTrace, UnipolarMultiplierEpochUnchangedUnderObs)
{
    obs::setKernelStatsEnabled(true);
    Channels channels;
    channels.push_back({"out_n32_rl32", runMultiplierEpoch(6, 32, 32)});
    channels.push_back({"out_n17_rl45", runMultiplierEpoch(6, 17, 45)});
    channels.push_back({"out_n63_rl1", runMultiplierEpoch(6, 63, 1)});
    obs::setKernelStatsEnabled(false);
    checkGolden("multiplier_epoch", channels);
}

TEST(GoldenTrace, PnmStreams)
{
    Channels channels;
    for (auto &ch : runPnm<UniformPnm>(6, 23, 2))
        channels.push_back({"uniform23_" + ch.name, ch.times});
    for (auto &ch : runPnm<ClassicPnm>(6, 11, 1))
        channels.push_back({"classic11_" + ch.name, ch.times});
    checkGolden("pnm_streams", channels);
}

// --- generated-datapath goldens ---------------------------------------------
//
// Auto-generated designs (src/gen/, docs/synthesis.md) pinned pre- AND
// post-balancing: the `pre` channel freezes the unbalanced datapath
// (the raw lane skew the balancing pass must close), the `post` channel
// freezes the compiled result.  Post-balancing pulses are additionally
// checked against the STA arrival windows under genStaOptions(), so the
// goldens tie the event kernel, the balancing pass and the timing
// engine together.

/** Trace one epoch of (spec, plan) on a fresh netlist. */
std::vector<Tick>
runGenEpoch(const gen::DesignSpec &spec, const gen::PaddingPlan &plan,
            const gen::EpochInputs &in, bool check_sta)
{
    Netlist nl("gen");
    auto &dp = nl.create<gen::StreamDatapath>("dp", spec, plan);
    PulseTrace out("trace");
    out.input().markObserver();
    dp.out().connect(out.input());
    dp.programEpoch(in);
    nl.run();
    if (check_sta) {
        const StaReport sta = runStaChecked(nl, gen::genStaOptions(spec));
        expectStaEnvelope(sta, dp.out(), out.times(),
                          std::string("gen ") +
                              gen::treeKindName(spec.tree));
        // Functional mirror cross-check: the slot algebra only models
        // the BALANCED design, so the post channel's pulse count must
        // equal the mirror prediction (the pre channel need not).
        EXPECT_EQ(static_cast<long long>(out.times().size()),
                  gen::evalEpoch(spec, in).count);
    }
    return out.times();
}

/** Pre/post channel pair of one generated scenario: the densest epoch
 *  (n = nmax) with every fourth lane gated off. */
Channels
genScenario(const gen::DesignSpec &spec)
{
    const gen::BalanceOutcome bo = gen::balanceDesign(spec);
    EXPECT_TRUE(bo.converged()) << bo.detail;
    gen::EpochInputs in;
    in.n = spec.nmax();
    for (int l = 0; l < spec.lanes; ++l)
        in.gates.push_back(l % 4 != 3);
    Channels channels;
    channels.push_back(
        {"pre", runGenEpoch(spec, {}, in, /*check_sta=*/false)});
    channels.push_back(
        {"post", runGenEpoch(spec, bo.plan, in, /*check_sta=*/true)});
    return channels;
}

TEST(GoldenTrace, GenSkewedBalancer)
{
    gen::DesignSpec s;
    s.tree = gen::TreeKind::Balancer;
    s.shape = gen::LaneShape::Skewed;
    s.skewStep = 2;
    s.maxDividers = 2;
    s.clockPeriodPs = 16;
    s.bits = 4;
    checkGolden("gen_skewed_balancer", genScenario(s));
}

TEST(GoldenTrace, GenRandomMerger)
{
    gen::DesignSpec s;
    s.tree = gen::TreeKind::Merger;
    s.shape = gen::LaneShape::Random;
    s.shapeSeed = 99;
    s.skewStep = 3;
    s.maxDividers = 2;
    s.clockPeriodPs = 10;
    s.bits = 4;
    checkGolden("gen_random_merger", genScenario(s));
}

TEST(GoldenTrace, GenBipolarTff2)
{
    gen::DesignSpec s;
    s.tree = gen::TreeKind::Tff2;
    s.encoding = gen::StreamEncoding::Bipolar;
    s.shape = gen::LaneShape::Skewed;
    s.skewStep = 1;
    s.clockPeriodPs = 24;
    s.bits = 3;
    checkGolden("gen_bipolar_tff2", genScenario(s));
}

TEST(GoldenTrace, GenRegisterBalancer)
{
    gen::DesignSpec s;
    s.tree = gen::TreeKind::Balancer;
    s.balance = gen::BalanceStyle::Register;
    s.shape = gen::LaneShape::Skewed;
    s.skewStep = 2;
    s.clockPeriodPs = 20;
    s.bits = 4;
    checkGolden("gen_register_balancer", genScenario(s));
}

// --- functional-backend goldens ---------------------------------------------
//
// The src/func/ engine has no pulse times to freeze, so its goldens
// pin integer epoch results instead: the channel "times" are output
// pulse counts (and JJ figures), one entry per design point.  Both
// scenarios mirror the pinned fig16/fig19 bench runs and are evaluated
// through a Backend::Functional sweep, so the goldens also cover the
// backend plumbing end to end.

TEST(GoldenTrace, FunctionalDpuFig16Pinned)
{
    // fig16's pinned-operand bipolar DPU at every bench vector length.
    const std::vector<int> taps{16, 32, 64, 128, 256};
    SweepOptions opt;
    opt.backend = Backend::Functional;
    const auto rows = runSweep(
        taps.size(),
        [&taps](const ShardContext &ctx) {
            EXPECT_EQ(ctx.backend, Backend::Functional);
            const int t = taps[ctx.index];
            const EpochConfig cfg(8);
            Netlist nl;
            auto &dpu = nl.create<func::DotProductUnit>(
                "dpu", t, DpuMode::Bipolar);
            std::vector<int> streams, rls;
            for (int i = 0; i < t; ++i) {
                streams.push_back((i * 37 + 11) % (cfg.nmax() + 1));
                rls.push_back((i * 53 + 7) % (cfg.nmax() + 1));
            }
            return std::pair<Tick, Tick>(
                dpu.evaluate(cfg, streams, rls), dpu.jjCount());
        },
        opt);

    Channels channels(2);
    channels[0].name = "count";
    channels[1].name = "jj";
    for (const auto &[count, jj] : rows) {
        channels[0].times.push_back(count);
        channels[1].times.push_back(jj);
    }
    checkGolden("func_dpu_fig16", channels);
}

TEST(GoldenTrace, FunctionalFirFig19Pinned)
{
    // fig19's pinned pulse-equivalence scenario on the functional
    // engine: per-epoch output pulse counts of the 4-tap unipolar FIR,
    // plus the documented pulse-vs-functional tolerance -- freezing
    // that tolerance in-repo so a bench-side relaxation cannot slip
    // through unnoticed.
    const int taps = 4, bits = 6;
    UsfqFirConfig cfg{.taps = taps, .bits = bits,
                      .mode = DpuMode::Unipolar};
    const EpochConfig ecfg(bits, cfg.clockPeriod());
    const std::vector<double> h{0.95, 0.3, 0.2, 0.1};
    const std::vector<double> x{0.0, 0.2, 0.8, 0.5, 0.9, 0.1,
                                0.6, 0.3, 0.7, 0.4, 0.5, 0.5};

    SweepOptions opt;
    opt.backend = Backend::Functional;
    const auto counts = runSweep(
        1,
        [&](const ShardContext &) {
            Netlist nl;
            auto &fir = nl.create<func::UsfqFir>("fir", cfg);
            for (int k = 0; k < taps; ++k)
                fir.setCoefficient(k, h[static_cast<std::size_t>(k)]);
            std::vector<Tick> out;
            std::vector<int> window;
            for (double sample : x) {
                window.insert(window.begin(),
                              ecfg.rlIdOfUnipolar(sample));
                if (static_cast<int>(window.size()) > taps)
                    window.pop_back();
                out.push_back(fir.stepCount(window));
            }
            return out;
        },
        opt)[0];

    Channels channels;
    channels.push_back({"count", counts});
    channels.push_back({"pulse_equiv_tolerance", {2}});
    checkGolden("func_fir_fig19", channels);
}

} // namespace
} // namespace usfq
