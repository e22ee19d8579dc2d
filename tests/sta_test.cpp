/**
 * @file
 * Static timing engine tests (src/sta/, docs/sta.md): window
 * arithmetic on hand-computed cell chains, port lookups outside the
 * analysed graph, feedback-loop cutting, setup/hold / collision / rate
 * margins, waiver precedence, the critical-path report, thread-count
 * invariance of the jitter Monte-Carlo, and the picosecond formatter.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sfq/cells.hh"
#include "sfq/params.hh"
#include "sfq/sources.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"
#include "sta/graph.hh"
#include "sta/monte_carlo.hh"
#include "sta/sta.hh"
#include "util/random.hh"

namespace usfq
{
namespace
{

/** Findings of one rule. */
std::vector<const LintFinding *>
findingsOf(const StaReport &report, LintRule rule)
{
    std::vector<const LintFinding *> out;
    for (const LintFinding &f : report.findings)
        if (f.rule == rule)
            out.push_back(&f);
    return out;
}

// --- window arithmetic ------------------------------------------------------

TEST(Sta, WindowsOnJtlChain)
{
    Netlist nl;
    auto &src = nl.create<PulseSource>("s");
    auto &j1 = nl.create<Jtl>("j1");
    auto &j2 = nl.create<Jtl>("j2");
    src.out.connect(j1.in, 5 * kPicosecond);
    j1.out.connect(j2.in);
    j2.out.markOpen("sta test endpoint");
    src.pulseAt(10 * kPicosecond);
    src.pulseAt(30 * kPicosecond);

    const StaReport report = runSta(nl);
    EXPECT_EQ(report.errors(), 0u);
    EXPECT_EQ(report.numAnchors, 1u);

    // Hand-computed: source [10, 30] ps, +5 ps wire, +2 ps per JTL.
    const ArrivalWindow in1 = report.windowOf(j1.in);
    ASSERT_TRUE(in1.reachable);
    EXPECT_EQ(in1.earliest, 15 * kPicosecond);
    EXPECT_EQ(in1.latest, 35 * kPicosecond);

    const ArrivalWindow out2 = report.windowOf(j2.out);
    ASSERT_TRUE(out2.reachable);
    EXPECT_EQ(out2.earliest, 19 * kPicosecond);
    EXPECT_EQ(out2.latest, 39 * kPicosecond);

    // The 20 ps stimulus spacing survives the fixed-delay chain.
    EXPECT_EQ(report.separationFloor(j2.out), 20 * kPicosecond);

    // Critical path: wire, arc, wire, arc from the source to j2.out.
    ASSERT_TRUE(report.criticalPath.valid);
    EXPECT_EQ(report.criticalPath.startpoint, "s.out");
    EXPECT_EQ(report.criticalPath.endpoint, "j2.out");
    EXPECT_EQ(report.criticalPath.length, 9 * kPicosecond);
    ASSERT_EQ(report.criticalPath.hops.size(), 4u);
    EXPECT_EQ(report.criticalPath.hops[0].maxDelay, 5 * kPicosecond);
    EXPECT_EQ(report.criticalPath.hops[1].maxDelay, cell::kJtlDelay);
}

// --- setup / hold margins ---------------------------------------------------

namespace
{

/** Splitter fans one source into dff.d and (via @p clk_lag) dff.clk. */
struct DffFixture
{
    Netlist nl;
    Splitter *sp = nullptr;
    Dff *dff = nullptr;
    PulseSource *src = nullptr;

    explicit DffFixture(Tick clk_lag)
    {
        src = &nl.create<PulseSource>("s");
        sp = &nl.create<Splitter>("sp");
        dff = &nl.create<Dff>("ff");
        src->out.connect(sp->in);
        sp->out1.connect(dff->d);
        sp->out2.connect(dff->clk, clk_lag);
        dff->q.markOpen("sta test endpoint");
    }
};

} // namespace

TEST(Sta, DffSetupMarginSameAnchor)
{
    DffFixture f(10 * kPicosecond);
    f.src->pulseAt(0);

    const StaReport report = runSta(f.nl);
    EXPECT_EQ(report.errors(), 0u);
    // clk trails d by exactly 10 ps; setup 2 ps -> margin 8 ps.
    ASSERT_TRUE(report.hasWorstSlack);
    EXPECT_EQ(report.worstSlack, 8 * kPicosecond);
    ASSERT_TRUE(f.dff->hasStaSlack());
    EXPECT_EQ(f.dff->staSlack(), 8 * kPicosecond);
}

TEST(Sta, DffSetupViolation)
{
    // clk only 1 ps behind d: inside the 2 ps setup window, margin -1.
    DffFixture f(1 * kPicosecond);
    f.src->pulseAt(0);

    const StaReport report = runSta(f.nl);
    const auto hits =
        findingsOf(report, LintRule::SetupHoldViolation);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0]->margin, -1 * kPicosecond);
    EXPECT_EQ(hits[0]->component, "ff");
    EXPECT_FALSE(hits[0]->waived);
    EXPECT_EQ(report.errors(), 1u);
    EXPECT_EQ(f.dff->staSlack(), -1 * kPicosecond);
}

TEST(Sta, PeriodicNeighbourShiftBinds)
{
    // Periodic stimulus every 20 ps, clk 18 ps behind d: the previous
    // clock pulse lands 2 ps BEFORE the data pulse -- outside the 1 ps
    // hold window with exactly 1 ps to spare.  The exact-period shift
    // must find that neighbour margin (1 ps), not the same-pulse
    // margin (16 ps).
    DffFixture f(18 * kPicosecond);
    for (int i = 0; i < 3; ++i)
        f.src->pulseAt(i * 20 * kPicosecond);

    const StaReport report = runSta(f.nl);
    EXPECT_EQ(report.errors(), 0u);
    ASSERT_TRUE(f.dff->hasStaSlack());
    EXPECT_EQ(f.dff->staSlack(), 1 * kPicosecond);
}

TEST(Sta, ChecksSkipUnreachablePorts)
{
    Netlist nl;
    auto &clk = nl.create<ClockSource>("c");
    auto &dff = nl.create<Dff>("ff");
    clk.out.connect(dff.clk);
    dff.d.markOptional("sta test: never driven");
    dff.q.markOpen("sta test endpoint");
    clk.program(0, 10 * kPicosecond, 4);

    const StaReport report = runSta(nl);
    // d never pulses: the setup/hold check must not fire.
    EXPECT_TRUE(
        findingsOf(report, LintRule::SetupHoldViolation).empty());
    EXPECT_FALSE(report.windowOf(dff.d).reachable);
    EXPECT_TRUE(report.windowOf(dff.q).reachable);
}

// --- port lookups -----------------------------------------------------------

namespace
{

/** Source -> JTL -> JTL with an observer trace on the last output. */
struct ChainFixture
{
    Netlist nl;
    PulseSource &src;
    Jtl &j1;
    Jtl &j2;

    explicit ChainFixture(PulseTrace &probe)
        : src(nl.create<PulseSource>("s")), j1(nl.create<Jtl>("j1")),
          j2(nl.create<Jtl>("j2"))
    {
        src.out.connect(j1.in);
        j1.out.connect(j2.in);
        probe.input().markObserver();
        j2.out.connect(probe.input());
        src.pulseAt(0);
        src.pulseAt(20 * kPicosecond);
    }
};

void
expectNoNode(const StaReport &report, const InputPort &port)
{
    const ArrivalWindow w = report.windowOf(port);
    EXPECT_FALSE(w.reachable) << port.name();
    EXPECT_EQ(w.earliest, 0) << port.name();
    EXPECT_EQ(w.latest, 0) << port.name();
    EXPECT_EQ(report.separationFloor(port), 0) << port.name();
}

void
expectNoNode(const StaReport &report, const OutputPort &port)
{
    const ArrivalWindow w = report.windowOf(port);
    EXPECT_FALSE(w.reachable) << port.name();
    EXPECT_EQ(w.earliest, 0) << port.name();
    EXPECT_EQ(w.latest, 0) << port.name();
    EXPECT_EQ(report.separationFloor(port), 0) << port.name();
}

} // namespace

TEST(Sta, LookupsOfUnregisteredPortsReturnDefaults)
{
    PulseTrace probe("probe");
    ChainFixture f(probe);
    const StaReport report = runSta(f.nl);
    ASSERT_TRUE(report.windowOf(f.j2.out).reachable);
    EXPECT_EQ(report.separationFloor(f.j2.out), 20 * kPicosecond);

    // A PulseTrace observer port, driven by an analysed output.
    expectNoNode(report, probe.input());
    // Free-standing ports, whether or not they share the netlist's
    // queue.
    const InputPort looseIn("loose.in", nullptr);
    const OutputPort looseOut("loose.out", &f.nl.queue());
    expectNoNode(report, looseIn);
    expectNoNode(report, looseOut);
}

TEST(Sta, LookupsOfAnIdenticalNetlistsPortsReturnDefaults)
{
    // Same construction, so every port has the same hierarchy node id
    // and slot in both netlists: only the netlist check separates them.
    PulseTrace probeA("probe"), probeB("probe");
    ChainFixture a(probeA), b(probeB);
    const StaReport report = runSta(a.nl);

    std::size_t ports = 0, reachable = 0;
    for (const Component *comp : b.nl.graphComponents()) {
        for (const InputPort *p : comp->inputPorts()) {
            expectNoNode(report, *p);
            ++ports;
        }
        for (const OutputPort *p : comp->outputPorts()) {
            expectNoNode(report, *p);
            ++ports;
        }
    }
    for (const Component *comp : a.nl.graphComponents()) {
        for (const InputPort *p : comp->inputPorts())
            reachable += report.windowOf(*p).reachable ? 1 : 0;
        for (const OutputPort *p : comp->outputPorts())
            reachable += report.windowOf(*p).reachable ? 1 : 0;
    }
    EXPECT_EQ(ports, report.numPorts);
    EXPECT_EQ(reachable, report.numPorts);
}

namespace
{

/** Registers one outside input port @p times times. */
class SharedPortUser : public Component
{
  public:
    SharedPortUser(Netlist &nl, const std::string &name,
                   InputPort &shared, int times)
        : Component(nl, name)
    {
        for (int i = 0; i < times; ++i)
            addPort(shared);
    }

    int jjCount() const override { return 0; }
};

} // namespace

TEST(StaDeathTest, PortRegisteredByTwoComponentsPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            InputPort shared("shared", nullptr);
            shared.markOptional("sta test: undriven");
            Netlist nl;
            nl.create<SharedPortUser>("a", shared, 1);
            nl.create<SharedPortUser>("b", shared, 1);
            runSta(nl);
        },
        "sta: port shared registered twice");
}

TEST(StaDeathTest, PortRegisteredTwiceByOneComponentPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            InputPort shared("shared", nullptr);
            shared.markOptional("sta test: undriven");
            Netlist nl;
            nl.create<SharedPortUser>("a", shared, 2);
            runSta(nl);
        },
        "sta: port shared registered twice");
}

// --- collision margins ------------------------------------------------------

TEST(Sta, MergerCollisionSameAnchor)
{
    Netlist nl;
    auto &src = nl.create<PulseSource>("s");
    auto &sp = nl.create<Splitter>("sp");
    auto &m = nl.create<Merger>("m");
    src.out.connect(sp.in);
    sp.out1.connect(m.inA);
    sp.out2.connect(m.inB, 2 * kPicosecond);
    m.out.markOpen("sta test endpoint");
    src.pulseAt(0);

    const StaReport report = runSta(nl);
    // inB trails inA by 2 ps, inside the 5 ps collision window: the
    // needed clearance is one tick past the window, margin
    // 2 ps - (5 ps + 1) = -(3 ps + 1).
    const auto hits = findingsOf(report, LintRule::CollisionRisk);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0]->margin, -3 * kPicosecond - 1);
    EXPECT_EQ(hits[0]->component, "m");
}

TEST(Sta, CrossStreamRacesAreOptIn)
{
    Netlist nl;
    auto &a = nl.create<PulseSource>("a");
    auto &b = nl.create<PulseSource>("b");
    auto &m = nl.create<Merger>("m");
    a.out.connect(m.inA);
    b.out.connect(m.inB);
    m.out.markOpen("sta test endpoint");
    a.pulseAt(0);
    b.pulseAt(2 * kPicosecond);

    // Unrelated streams: silent by default ...
    const StaReport lax = runSta(nl);
    EXPECT_TRUE(findingsOf(lax, LintRule::CollisionRisk).empty());

    // ... but strictRaces checks the absolute windows against each
    // other: 2 ps apart inside the 5 ps collision window.
    StaOptions strict;
    strict.strictRaces = true;
    const StaReport strictReport = runSta(nl, strict);
    const auto hits =
        findingsOf(strictReport, LintRule::CollisionRisk);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0]->margin, -3 * kPicosecond - 1);
    EXPECT_NE(hits[0]->message.find("cross-stream race"),
              std::string::npos);
}

// --- rate / recovery --------------------------------------------------------

TEST(Sta, InverterRateCeiling)
{
    Netlist nl;
    auto &clk = nl.create<ClockSource>("c");
    auto &inv = nl.create<Inverter>("inv");
    clk.out.connect(inv.clk);
    inv.d.markOptional("sta test: rate analysis only");
    inv.q.markOpen("sta test endpoint");
    clk.program(0, 5 * kPicosecond, 8);

    const StaReport report = runSta(nl);
    // 5 ps spacing against the inverter's 9 ps recovery: -4 ps.
    const auto hits = findingsOf(report, LintRule::RateViolation);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0]->margin, -4 * kPicosecond);

    // The paper's stream-rate ceiling: t_INV = 9 ps caps streams at
    // 111 GHz (Section 3.3).
    EXPECT_EQ(report.requiredStreamSpacing, cell::kInverterTiming.recovery);
    EXPECT_NEAR(report.maxStreamRateHz() * 1e-9, 111.1, 0.1);
}

TEST(Sta, TffDividesRateRequirement)
{
    Netlist nl;
    auto &clk = nl.create<ClockSource>("c");
    auto &tff = nl.create<Tff>("t");
    auto &inv = nl.create<Inverter>("inv");
    clk.out.connect(tff.in);
    tff.out.connect(inv.clk);
    inv.d.markOptional("sta test: rate analysis only");
    inv.q.markOpen("sta test endpoint");
    clk.program(0, 5 * kPicosecond, 16);

    const StaReport report = runSta(nl);
    // The TFF halves the stream before the inverter: the inverter
    // needs ceil(9/2) = 5 ps of stimulus spacing, the TFF itself 5 ps
    // -- both met at a 5 ps clock, so no findings.
    EXPECT_EQ(report.errors(), 0u);
    EXPECT_EQ(report.requiredStreamSpacing, 5 * kPicosecond);
    // And the divided stream's spacing floor doubles.
    EXPECT_EQ(report.separationFloor(tff.out), 10 * kPicosecond);
    EXPECT_EQ(report.separationFloor(inv.clk), 10 * kPicosecond);
}

// --- feedback loops ---------------------------------------------------------

TEST(Sta, RegisteredLoopIsCutSilently)
{
    Netlist nl;
    auto &src = nl.create<PulseSource>("s");
    auto &m = nl.create<Merger>("m");
    auto &tff = nl.create<Tff>("t");
    src.out.connect(m.inA);
    m.out.connect(tff.in);
    tff.out.connect(m.inB);
    src.pulseAt(0);

    const StaReport report = runSta(nl);
    EXPECT_EQ(report.numCutEdges, 1u);
    EXPECT_TRUE(
        findingsOf(report, LintRule::CombinationalLoop).empty());
}

TEST(Sta, CombinationalLoopIsAFinding)
{
    Netlist nl;
    auto &src = nl.create<PulseSource>("s");
    auto &m = nl.create<Merger>("m");
    auto &j = nl.create<Jtl>("j");
    src.out.connect(m.inA);
    m.out.connect(j.in);
    j.out.connect(m.inB);
    src.pulseAt(0);

    const StaReport report = runSta(nl);
    const auto hits =
        findingsOf(report, LintRule::CombinationalLoop);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_FALSE(hits[0]->waived);
    EXPECT_EQ(report.numCutEdges, 1u);
    EXPECT_GE(report.errors(), 1u);
}

// --- waivers ----------------------------------------------------------------

TEST(Sta, NetlistWaiverAppliesAndTakesPrecedence)
{
    DffFixture f(1 * kPicosecond);
    f.src->pulseAt(0);
    f.nl.waive(LintRule::SetupHoldViolation, "netlist-level waiver");

    StaOptions opts;
    opts.waivers[LintRule::SetupHoldViolation] = "options-level waiver";
    const StaReport report = runSta(f.nl, opts);
    const auto hits =
        findingsOf(report, LintRule::SetupHoldViolation);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_TRUE(hits[0]->waived);
    // The netlist's own waive() shadows the per-run options waiver,
    // matching the elaboration lint's precedence.
    EXPECT_EQ(hits[0]->waiverReason, "netlist-level waiver");
    EXPECT_EQ(report.errors(), 0u);
}

TEST(Sta, OptionsWaiverAlone)
{
    DffFixture f(1 * kPicosecond);
    f.src->pulseAt(0);

    StaOptions opts;
    opts.waivers[LintRule::SetupHoldViolation] = "options-level waiver";
    const StaReport report = runSta(f.nl, opts);
    const auto hits =
        findingsOf(report, LintRule::SetupHoldViolation);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_TRUE(hits[0]->waived);
    EXPECT_EQ(hits[0]->waiverReason, "options-level waiver");
    EXPECT_EQ(report.errors(), 0u);
}

TEST(StaDeathTest, CheckedRunDiesOnViolation)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    DffFixture f(1 * kPicosecond);
    f.src->pulseAt(0);
    EXPECT_DEATH(runStaChecked(f.nl), "unwaived timing violations");
}

// --- zero-anchor mode -------------------------------------------------------

TEST(Sta, ZeroModeAnchorsDriverlessPorts)
{
    Netlist nl;
    auto &dff = nl.create<Dff>("ff");
    dff.d.markOptional("sta test: stimulus-less");
    dff.clk.markOptional("sta test: stimulus-less");
    dff.q.markOpen("sta test endpoint");

    StaOptions opts;
    opts.anchorMode = StaOptions::AnchorMode::Zero;
    const StaReport report = runSta(nl, opts);
    // Both inputs launch at t=0; q is reachable through the clk arc.
    EXPECT_TRUE(report.windowOf(dff.d).reachable);
    EXPECT_TRUE(report.windowOf(dff.clk).reachable);
    const ArrivalWindow q = report.windowOf(dff.q);
    ASSERT_TRUE(q.reachable);
    EXPECT_EQ(q.earliest, cell::kDffDelay);
    EXPECT_EQ(q.latest, cell::kDffDelay);
    // d and clk are *different* zero anchors: their race only shows up
    // under strictRaces (coincident launch inside the capture window).
    EXPECT_TRUE(
        findingsOf(report, LintRule::SetupHoldViolation).empty());

    opts.strictRaces = true;
    const StaReport strict = runSta(nl, opts);
    const auto hits =
        findingsOf(strict, LintRule::SetupHoldViolation);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0]->margin, -1 * kPicosecond);
}

// --- hierarchy roll-up ------------------------------------------------------

TEST(Sta, ReportRollsUpWorstSlack)
{
    DffFixture f(10 * kPicosecond);
    f.src->pulseAt(0);

    // Pre-STA: no slack column data.
    EXPECT_FALSE(f.nl.report().root.hasSlack);

    runSta(f.nl);
    const HierReport hier = f.nl.report();
    ASSERT_TRUE(hier.root.hasSlack);
    EXPECT_EQ(hier.root.worstSlack, 8 * kPicosecond);
}

// --- jitter Monte-Carlo -----------------------------------------------------

namespace
{

void
buildMcDesign(Netlist &nl)
{
    // Separate JTLs in the data and clock branches: their independent
    // per-cell jitter moves the d/clk skew (a shared splitter's jitter
    // would cancel out of the relative margin).
    auto &src = nl.create<PulseSource>("s");
    auto &sp = nl.create<Splitter>("sp");
    auto &ja = nl.create<Jtl>("ja");
    auto &jb = nl.create<Jtl>("jb");
    auto &dff = nl.create<Dff>("ff");
    src.out.connect(sp.in);
    sp.out1.connect(ja.in);
    sp.out2.connect(jb.in);
    ja.out.connect(dff.d);
    jb.out.connect(dff.clk, 4 * kPicosecond);
    dff.q.markOpen("sta mc endpoint");
    src.pulseAt(0);
}

} // namespace

TEST(Sta, MonteCarloIsThreadCountInvariant)
{
    StaJitterOptions opts;
    opts.trials = 24;
    opts.amplitude = 3 * kPicosecond;
    opts.baseSeed = 0xfeedULL;

    opts.threads = 1;
    const StaJitterStats serial = runStaJitter(buildMcDesign, opts);
    opts.threads = 4;
    const StaJitterStats parallel = runStaJitter(buildMcDesign, opts);

    ASSERT_EQ(serial.samples.size(), parallel.samples.size());
    for (std::size_t i = 0; i < serial.samples.size(); ++i) {
        EXPECT_EQ(serial.samples[i].worstSlack,
                  parallel.samples[i].worstSlack);
        EXPECT_EQ(serial.samples[i].hasSlack,
                  parallel.samples[i].hasSlack);
        EXPECT_EQ(serial.samples[i].violations,
                  parallel.samples[i].violations);
    }
    EXPECT_EQ(serial.passes, parallel.passes);
    EXPECT_EQ(serial.slackMin, parallel.slackMin);
    EXPECT_EQ(serial.slackMax, parallel.slackMax);
    EXPECT_DOUBLE_EQ(serial.slackMean, parallel.slackMean);

    // The nominal margin is 4 ps against a 3 ps amplitude on both the
    // splitter and DFF arcs: trials must spread around it.
    EXPECT_EQ(serial.trials, 24u);
    ASSERT_GT(serial.samples.size(), 0u);
    EXPECT_LT(serial.slackMin, serial.slackMax);
    EXPECT_GE(serial.yield(), 0.0);
    EXPECT_LE(serial.yield(), 1.0);
}

TEST(Sta, MonteCarloZeroAmplitudeIsNominal)
{
    StaJitterOptions opts;
    opts.trials = 4;
    opts.amplitude = 0;
    const StaJitterStats stats = runStaJitter(buildMcDesign, opts);
    for (const StaJitterSample &s : stats.samples) {
        ASSERT_TRUE(s.hasSlack);
        // 4 ps clk lag minus the 2 ps setup window.
        EXPECT_EQ(s.worstSlack, 2 * kPicosecond);
        EXPECT_EQ(s.violations, 0u);
    }
    EXPECT_DOUBLE_EQ(stats.yield(), 1.0);
}

// --- figure formatting --------------------------------------------------------

TEST(StaFormat, FmtPsMatchesPrintf)
{
    // Every STA message and report line prints picoseconds through
    // fmtPs; it must equal printf's "%.1f" of the same double.
    char buf[64];
    const auto printf1 = [&](Tick t) {
        std::snprintf(buf, sizeof buf, "%.1f", ticksToPs(t));
        return std::string(buf);
    };
    std::size_t checked = 0, mismatches = 0;
    std::string firstBad;
    const auto check = [&](Tick t) {
        ++checked;
        if (sta_detail::fmtPs(t) == printf1(t))
            return;
        if (mismatches++ == 0)
            firstBad = std::to_string(t) + ": " + sta_detail::fmtPs(t) +
                       " vs " + printf1(t);
    };
    for (Tick t = -2'000'000; t <= 2'000'000; ++t)
        check(t);
    Rng rng(0xf3a7ULL);
    constexpr std::int64_t kSpan = 1'000'000'000'000'000;
    for (int i = 0; i < 1'000'000; ++i)
        check(rng.uniformInt(-kSpan, kSpan));
    EXPECT_EQ(checked, 5'000'001u);
    EXPECT_EQ(mismatches, 0u) << "first: " << firstBad;
}

} // namespace
} // namespace usfq
