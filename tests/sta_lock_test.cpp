/**
 * @file
 * STA bit-identity lock (ctest label `sta`): digests of the complete
 * StaReport -- findings in order, the critical path, every port's
 * arrival window and separation floor, the graph counts -- plus the
 * per-component slack annotations, over the golden netlists, the STA
 * corner fixtures (loops, waivers, zero anchors, strict races) and
 * every 9th point of the fig20 generator grid (unbalanced and
 * balanced).  The fig20 slice also digests each point's full
 * gen::BalanceOutcome.
 *
 * The pinned values lock the engine's observable output: a change to
 * the timing graph's representation or to the balancer's loop must
 * leave both digests untouched.  A deliberate timing-model change
 * re-pins them (the failure message prints the new value).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/adder.hh"
#include "core/encoding.hh"
#include "core/multiplier.hh"
#include "core/pnm.hh"
#include "gen/balance.hh"
#include "gen/datapath.hh"
#include "gen/spec.hh"
#include "sfq/cells.hh"
#include "sfq/sources.hh"
#include "sim/component.hh"
#include "sim/netlist.hh"
#include "sim/port.hh"
#include "sim/trace.hh"
#include "sta/sta.hh"

namespace usfq
{
namespace
{

/** Order-sensitive FNV-1a over the fields of STA results. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    byte(unsigned char c)
    {
        h ^= c;
        h *= 0x100000001b3ULL;
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(v >> (8 * i)));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            byte(static_cast<unsigned char>(c));
    }
};

void
foldWindow(Digest &d, const ArrivalWindow &w)
{
    d.u64(w.reachable);
    d.i64(w.earliest);
    d.i64(w.latest);
}

/** Everything @p report says about @p nl, plus the slack annotations. */
void
foldReport(Digest &d, const StaReport &report, const Netlist &nl)
{
    d.u64(report.numPorts);
    d.u64(report.numEdges);
    d.u64(report.numCutEdges);
    d.u64(report.numAnchors);
    d.i64(report.requiredStreamSpacing);
    d.i64(report.worstSlack);
    d.u64(report.hasWorstSlack);

    d.u64(report.findings.size());
    for (const LintFinding &f : report.findings) {
        d.u64(static_cast<std::uint64_t>(f.rule));
        d.str(f.subject);
        d.str(f.component);
        d.str(f.message);
        d.i64(f.margin);
        d.u64(f.waived);
        d.str(f.waiverReason);
    }

    const StaPath &cp = report.criticalPath;
    d.u64(cp.valid);
    d.str(cp.startpoint);
    d.str(cp.endpoint);
    d.i64(cp.length);
    d.u64(cp.hops.size());
    for (const StaHop &hop : cp.hops) {
        d.str(hop.from);
        d.str(hop.to);
        d.str(hop.kind);
        d.i64(hop.minDelay);
        d.i64(hop.maxDelay);
        d.i64(hop.at);
    }

    for (const Component *c : nl.graphComponents()) {
        d.str(c->name());
        d.u64(c->hasStaSlack());
        if (c->hasStaSlack())
            d.i64(c->staSlack());
        for (const InputPort *p : c->inputPorts()) {
            foldWindow(d, report.windowOf(*p));
            d.i64(report.separationFloor(*p));
        }
        for (const OutputPort *p : c->outputPorts()) {
            foldWindow(d, report.windowOf(*p));
            d.i64(report.separationFloor(*p));
        }
    }
}

void
foldSta(Digest &d, Netlist &nl, const StaOptions &opts = {})
{
    const StaReport report = runSta(nl, opts);
    foldReport(d, report, nl);
}

// --- the golden netlists (golden_trace_test.cpp), built but not run ---------

void
foldMultiplierEpoch(Digest &d, int bits, int stream_count, int rl_id)
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
    foldSta(d, nl);
}

void
foldCountingNetwork(Digest &d, const std::vector<int> &counts)
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
    foldSta(d, nl);
}

template <typename Pnm>
void
foldPnm(Digest &d, int bits, int value, int num_epochs)
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
    foldSta(d, nl);
}

/** One generated datapath (densest epoch, every fourth lane gated). */
void
foldGenDatapath(Digest &d, const gen::DesignSpec &spec,
                const gen::PaddingPlan &plan)
{
    Netlist nl("gen");
    auto &dp = nl.create<gen::StreamDatapath>("dp", spec, plan);
    PulseTrace out("trace");
    out.input().markObserver();
    dp.out().connect(out.input());
    gen::EpochInputs in;
    in.n = spec.nmax();
    for (int l = 0; l < spec.lanes; ++l)
        in.gates.push_back(l % 4 != 3);
    dp.programEpoch(in);
    foldSta(d, nl, gen::genStaOptions(spec));
}

void
foldGenScenario(Digest &d, const gen::DesignSpec &spec)
{
    const gen::BalanceOutcome bo = gen::balanceDesign(spec);
    ASSERT_TRUE(bo.converged()) << bo.detail;
    foldGenDatapath(d, spec, {});
    foldGenDatapath(d, spec, bo.plan);
}

// --- STA corner fixtures (sta_test.cpp) -------------------------------------

/** Feedback through @p Cell back into a merger fed by a pulse source. */
template <typename Cell>
void
foldLoop(Digest &d)
{
    Netlist nl;
    auto &src = nl.create<PulseSource>("s");
    auto &m = nl.create<Merger>("m");
    auto &c = nl.create<Cell>("c");
    src.out.connect(m.inA);
    m.out.connect(c.in);
    c.out.connect(m.inB);
    src.pulsesAt({0, 30 * kPicosecond});
    foldSta(d, nl);
}

/** DFF capture with a clock skewed by @p skew; waivers per @p level. */
void
foldDffCapture(Digest &d, Tick skew, int level)
{
    Netlist nl;
    auto &src = nl.create<PulseSource>("s");
    auto &sp = nl.create<Splitter>("sp");
    auto &ff = nl.create<Dff>("ff");
    src.out.connect(sp.in);
    sp.out1.connect(ff.d);
    sp.out2.connect(ff.clk, skew);
    ff.q.markOpen("sta lock endpoint");
    src.pulsesAt({0, 40 * kPicosecond, 80 * kPicosecond});
    StaOptions opts;
    if (level >= 1)
        opts.waivers[LintRule::SetupHoldViolation] = "options waiver";
    if (level >= 2)
        nl.waive(LintRule::SetupHoldViolation, "netlist waiver");
    foldSta(d, nl, opts);
}

void
foldZeroModeDff(Digest &d, bool strict)
{
    Netlist nl;
    auto &dff = nl.create<Dff>("ff");
    dff.d.markOptional("sta lock: stimulus-less");
    dff.clk.markOptional("sta lock: stimulus-less");
    dff.q.markOpen("sta lock endpoint");
    StaOptions opts;
    opts.anchorMode = StaOptions::AnchorMode::Zero;
    opts.strictRaces = strict;
    foldSta(d, nl, opts);
}

/** The fig20 grid (bench/fig20_design_space.cpp enumerateSpace()). */
std::vector<gen::DesignSpec>
fig20Grid()
{
    std::vector<gen::DesignSpec> specs;
    for (int lanes : {4, 8, 16})
        for (int bits : {3, 4, 5, 6})
            for (int period : {10, 16, 20, 24})
                for (gen::TreeKind tree :
                     {gen::TreeKind::Balancer, gen::TreeKind::Merger,
                      gen::TreeKind::Tff2})
                    for (gen::LaneShape shape :
                         {gen::LaneShape::Balanced, gen::LaneShape::Skewed,
                          gen::LaneShape::Random})
                        for (int style = 0; style < 3; ++style) {
                            gen::DesignSpec s;
                            s.lanes = lanes;
                            s.bits = bits;
                            s.clockPeriodPs = period;
                            s.tree = tree;
                            s.shape = shape;
                            s.encoding = style == 2
                                             ? gen::StreamEncoding::Bipolar
                                             : gen::StreamEncoding::Unipolar;
                            s.balance = style == 1
                                            ? gen::BalanceStyle::Register
                                            : gen::BalanceStyle::Jtl;
                            s.maxDividers = 2;
                            s.skewStep = 2;
                            s.shapeSeed = 0x5eedULL + specs.size();
                            specs.push_back(s);
                        }
    return specs;
}

void
foldOutcome(Digest &d, const gen::BalanceOutcome &bo)
{
    d.u64(static_cast<std::uint64_t>(bo.status));
    d.u64(bo.plan.lanes.size());
    for (const gen::LanePad &pad : bo.plan.lanes) {
        d.i64(pad.pre);
        d.i64(pad.preTrim);
        d.i64(pad.tap);
        d.i64(pad.tapTrim);
        d.i64(pad.post);
        d.i64(pad.postTrim);
    }
    d.i64(bo.iterations);
    d.i64(bo.insertedJJ);
    d.i64(bo.residualSkew);
    d.str(bo.detail);
    d.i64(bo.requiredStreamSpacing);
    d.f64(bo.maxStreamRateHz);
    d.i64(bo.worstSlack);
    d.u64(bo.hasWorstSlack);
}

TEST(StaLock, GoldenNetlistsAndFixtures)
{
    Digest d;
    foldMultiplierEpoch(d, 6, 32, 32);
    foldMultiplierEpoch(d, 6, 17, 45);
    foldMultiplierEpoch(d, 6, 63, 1);
    foldCountingNetwork(d, {4, 10, 16, 22, 28, 34, 40, 46});
    foldCountingNetwork(d, {32, 32, 32, 32, 32, 32, 32, 32});
    foldPnm<UniformPnm>(d, 6, 23, 2);
    foldPnm<ClassicPnm>(d, 6, 11, 1);

    gen::DesignSpec skewedBalancer;
    skewedBalancer.tree = gen::TreeKind::Balancer;
    skewedBalancer.shape = gen::LaneShape::Skewed;
    skewedBalancer.skewStep = 2;
    skewedBalancer.maxDividers = 2;
    skewedBalancer.clockPeriodPs = 16;
    skewedBalancer.bits = 4;
    foldGenScenario(d, skewedBalancer);

    gen::DesignSpec randomMerger;
    randomMerger.tree = gen::TreeKind::Merger;
    randomMerger.shape = gen::LaneShape::Random;
    randomMerger.shapeSeed = 99;
    randomMerger.skewStep = 3;
    randomMerger.maxDividers = 2;
    randomMerger.clockPeriodPs = 10;
    randomMerger.bits = 4;
    foldGenScenario(d, randomMerger);

    gen::DesignSpec bipolarTff2;
    bipolarTff2.tree = gen::TreeKind::Tff2;
    bipolarTff2.encoding = gen::StreamEncoding::Bipolar;
    bipolarTff2.shape = gen::LaneShape::Skewed;
    bipolarTff2.skewStep = 1;
    bipolarTff2.clockPeriodPs = 24;
    bipolarTff2.bits = 3;
    foldGenScenario(d, bipolarTff2);

    gen::DesignSpec registerBalancer;
    registerBalancer.tree = gen::TreeKind::Balancer;
    registerBalancer.balance = gen::BalanceStyle::Register;
    registerBalancer.shape = gen::LaneShape::Skewed;
    registerBalancer.skewStep = 2;
    registerBalancer.clockPeriodPs = 20;
    registerBalancer.bits = 4;
    foldGenScenario(d, registerBalancer);

    foldLoop<Tff>(d);
    foldLoop<Jtl>(d);
    for (int level = 0; level <= 2; ++level) {
        foldDffCapture(d, 1 * kPicosecond, level);
        foldDffCapture(d, 12 * kPicosecond, level);
    }
    foldZeroModeDff(d, false);
    foldZeroModeDff(d, true);

    EXPECT_EQ(d.h, 0x26e1f3879324573dULL) << std::hex << "digest 0x" << d.h;
}

TEST(StaLock, Fig20GridEveryNinthPoint)
{
    const std::vector<gen::DesignSpec> grid = fig20Grid();
    ASSERT_EQ(grid.size(), 1296u);
    Digest sta;
    Digest balance;
    int points = 0;
    int converged = 0;
    for (std::size_t i = 0; i < grid.size(); i += 9) {
        const gen::DesignSpec &spec = grid[i];
        ++points;
        const gen::BalanceOutcome bo = gen::balanceDesign(spec);
        foldOutcome(balance, bo);
        foldGenDatapath(sta, spec, {});
        if (bo.converged()) {
            ++converged;
            foldGenDatapath(sta, spec, bo.plan);
        }
    }
    EXPECT_EQ(points, 144);
    EXPECT_GT(converged, 0);
    EXPECT_LT(converged, points);
    EXPECT_EQ(sta.h, 0x4e4f63f7cffc913eULL) << std::hex << "sta digest 0x" << sta.h;
    EXPECT_EQ(balance.h, 0x4b9606d454ff31a5ULL)
        << std::hex << "balance digest 0x" << balance.h;
}

} // namespace
} // namespace usfq
