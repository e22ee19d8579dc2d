/**
 * @file
 * Tests of the phase-2 elaboration pipeline: every structural lint
 * rule firing and being waived, the hard failure modes (unbound emit,
 * connect-after-elaborate, unwaived findings), idempotent elaboration
 * over the packed delivery path, and the hierarchical metrics rollup
 * arithmetic (see docs/elaboration.md).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "sfq/cells.hh"
#include "sfq/sources.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"

namespace usfq
{
namespace
{

/**
 * Minimal registered cell: one input, one output, a configurable
 * internal delay (2 "JJs", 2 switches per pulse).
 */
class TestCell : public Component
{
  public:
    TestCell(Netlist &nl, std::string cell_name, Tick internal_delay = 0)
        : Component(nl, std::move(cell_name)),
          in(name() + ".in",
             [this](Tick t) {
                 recordSwitches(2);
                 out.emit(t + delay);
             }),
          out(name() + ".out", &queue()),
          delay(internal_delay)
    {
        addPorts(in, out);
    }

    int jjCount() const override { return 2; }
    Tick minInternalDelay() const override { return delay; }

    InputPort in;
    OutputPort out;

  private:
    Tick delay;
};

/** A registered cell whose output was never bound to an event queue. */
class UnboundCell : public Component
{
  public:
    UnboundCell(Netlist &nl, std::string cell_name)
        : Component(nl, std::move(cell_name))
    {
        addPort(out);
    }

    int jjCount() const override { return 2; }

    OutputPort out;
};

/** Unwaived findings for one rule. */
std::size_t
countErrors(const std::vector<LintFinding> &findings, LintRule rule)
{
    std::size_t n = 0;
    for (const auto &f : findings)
        n += (f.rule == rule && !f.waived) ? 1 : 0;
    return n;
}

/** Waived findings for one rule. */
std::size_t
countWaived(const std::vector<LintFinding> &findings, LintRule rule)
{
    std::size_t n = 0;
    for (const auto &f : findings)
        n += (f.rule == rule && f.waived) ? 1 : 0;
    return n;
}

// --- lint rules ------------------------------------------------------------

TEST(ElaborateLint, DanglingInputAndOpenOutput)
{
    Netlist nl;
    auto &a = nl.create<TestCell>("a");
    auto &b = nl.create<TestCell>("b");
    a.out.connect(b.in);

    const auto findings = nl.lint();
    // a.in has no driver; b.out has nowhere to send pulses.
    EXPECT_EQ(countErrors(findings, LintRule::DanglingInput), 1u);
    EXPECT_EQ(countErrors(findings, LintRule::OpenOutput), 1u);
    EXPECT_EQ(countErrors(findings, LintRule::IllegalFanout), 0u);
    EXPECT_EQ(countErrors(findings, LintRule::ZeroDelayCycle), 0u);
}

TEST(ElaborateLint, UnboundOutput)
{
    Netlist nl;
    nl.create<UnboundCell>("u");
    const auto findings = nl.lint();
    EXPECT_EQ(countErrors(findings, LintRule::UnboundOutput), 1u);
}

TEST(ElaborateLint, IllegalFanoutNeedsASplitter)
{
    Netlist nl;
    auto &a = nl.create<TestCell>("a");
    auto &b = nl.create<TestCell>("b");
    auto &c = nl.create<TestCell>("c");
    a.out.connect(b.in);
    a.out.connect(c.in);

    EXPECT_EQ(countErrors(nl.lint(), LintRule::IllegalFanout), 1u);

    // The same two loads behind a splitter are legal: its outputs are
    // the sanctioned fan-out point.
    Netlist nl2;
    auto &a2 = nl2.create<TestCell>("a");
    auto &s = nl2.create<Splitter>("s");
    auto &b2 = nl2.create<TestCell>("b");
    auto &c2 = nl2.create<TestCell>("c");
    a2.out.connect(s.in);
    s.out1.connect(b2.in);
    s.out2.connect(c2.in);
    EXPECT_EQ(countErrors(nl2.lint(), LintRule::IllegalFanout), 0u);
}

TEST(ElaborateLint, ObserverConnectionsDoNotCountAsLoads)
{
    Netlist nl;
    auto &a = nl.create<TestCell>("a");
    auto &b = nl.create<TestCell>("b");
    PulseTrace probe;
    a.out.connect(b.in);
    a.out.connect(probe.input()); // markObserver()'d by PulseTrace
    EXPECT_EQ(countErrors(nl.lint(), LintRule::IllegalFanout), 0u);
}

TEST(ElaborateLint, ZeroDelayCycle)
{
    Netlist nl;
    auto &a = nl.create<TestCell>("a", 0);
    auto &b = nl.create<TestCell>("b", 0);
    a.out.connect(b.in);
    b.out.connect(a.in);
    EXPECT_EQ(countErrors(nl.lint(), LintRule::ZeroDelayCycle), 1u);

    // One picosecond anywhere in the loop breaks the livelock.
    Netlist nl2;
    auto &a2 = nl2.create<TestCell>("a", kPicosecond);
    auto &b2 = nl2.create<TestCell>("b", 0);
    a2.out.connect(b2.in);
    b2.out.connect(a2.in);
    EXPECT_EQ(countErrors(nl2.lint(), LintRule::ZeroDelayCycle), 0u);
}

// --- waivers ---------------------------------------------------------------

TEST(ElaborateLint, PortWaiversSuppressErrorsWithAReason)
{
    Netlist nl;
    auto &a = nl.create<TestCell>("a");
    auto &b = nl.create<TestCell>("b");
    a.out.connect(b.in);
    a.in.markOptional("driven by the test harness via receive()");
    b.out.markOpen("terminator: pulses are deliberately discarded");

    const auto findings = nl.lint();
    EXPECT_EQ(countErrors(findings, LintRule::DanglingInput), 0u);
    EXPECT_EQ(countErrors(findings, LintRule::OpenOutput), 0u);
    EXPECT_EQ(countWaived(findings, LintRule::DanglingInput), 1u);
    EXPECT_EQ(countWaived(findings, LintRule::OpenOutput), 1u);
    for (const auto &f : findings)
        if (f.waived) {
            EXPECT_FALSE(f.waiverReason.empty()) << f.message;
        }
}

TEST(ElaborateLint, BlanketWaiversCoverAreaStudies)
{
    Netlist nl;
    nl.create<TestCell>("a"); // fully unwired
    nl.waive(LintRule::DanglingInput, "area study: unwired on purpose");
    nl.waive(LintRule::OpenOutput, "area study: unwired on purpose");

    const auto &report = nl.elaborate();
    EXPECT_EQ(report.errors(), 0u);
    EXPECT_EQ(countWaived(report.findings, LintRule::DanglingInput), 1u);
    EXPECT_EQ(countWaived(report.findings, LintRule::OpenOutput), 1u);
}

// --- hard failure modes ----------------------------------------------------

TEST(ElaborateDeath, UnboundEmitIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Netlist nl;
    auto &u = nl.create<UnboundCell>("u");
    EXPECT_DEATH(u.out.emitNow(), "unbound");
}

TEST(ElaborateDeath, ElaborationFailsOnUnwaivedFindings)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Netlist nl;
    nl.create<TestCell>("lonely");
    EXPECT_DEATH(nl.elaborate(), "lint");
}

TEST(ElaborateDeath, ConnectAfterElaborateIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Netlist nl;
    auto &a = nl.create<TestCell>("a", kPicosecond);
    auto &b = nl.create<TestCell>("b", kPicosecond);
    a.out.connect(b.in);
    a.in.markOptional("test stimulus via receive()");
    b.out.markOpen("test terminator");
    nl.elaborate();
    EXPECT_DEATH(b.out.connect(a.in), "elaborat");
}

// --- elaboration and the packed path ---------------------------------------

TEST(Elaborate, IdempotentAndRunsThePackedPath)
{
    Netlist nl;
    auto &src = nl.create<PulseSource>("src");
    auto &a = nl.create<TestCell>("a", kPicosecond);
    auto &b = nl.create<TestCell>("b", kPicosecond);
    PulseTrace out;
    src.out.connect(a.in);
    a.out.connect(b.in, 2 * kPicosecond);
    b.out.connect(out.input());
    src.pulseAt(10 * kPicosecond);
    src.pulseAt(20 * kPicosecond);

    EXPECT_FALSE(nl.elaborated());
    const ElabReport &first = nl.elaborate();
    EXPECT_TRUE(nl.elaborated());
    EXPECT_EQ(first.errors(), 0u);
    EXPECT_EQ(first.numEdges, 3u);

    // Second elaborate is the cached report, not a re-run.
    const ElabReport &second = nl.elaborate();
    EXPECT_EQ(&first, &second);

    nl.run();
    ASSERT_EQ(out.count(), 2u);
    // src -> a (1 ps cell) -> 2 ps wire -> b (1 ps cell).
    EXPECT_EQ(out.times().front(), 14 * kPicosecond);
    EXPECT_EQ(b.out.pulseCount(), 2u);
}

TEST(Elaborate, RunElaboratesAutomatically)
{
    Netlist nl;
    auto &src = nl.create<PulseSource>("src");
    auto &a = nl.create<TestCell>("a", kPicosecond);
    PulseTrace out;
    src.out.connect(a.in);
    a.out.connect(out.input());
    src.pulseAt(kPicosecond);
    nl.run();
    EXPECT_TRUE(nl.elaborated());
    EXPECT_EQ(out.count(), 1u);
}

// --- hierarchical rollup ---------------------------------------------------

/** jjChildren must equal the sum of the children's inclusive counts. */
void
verifyChildSums(const HierReport::Node &node)
{
    int child_jj = 0;
    std::uint64_t child_switches = 0, child_in = 0, child_out = 0,
                  child_lost = 0;
    for (const auto &c : node.children) {
        verifyChildSums(c);
        child_jj += c.jj;
        child_switches += c.switches;
        child_in += c.inPulses;
        child_out += c.outPulses;
        child_lost += c.lost;
    }
    EXPECT_EQ(node.jjChildren, child_jj) << node.name;
    if (!node.children.empty()) {
        // Subtree aggregates contain at least the children's share;
        // the difference is the node's own (glue) contribution.
        EXPECT_GE(node.switches, child_switches) << node.name;
        EXPECT_GE(node.inPulses, child_in) << node.name;
        EXPECT_GE(node.outPulses, child_out) << node.name;
        EXPECT_GE(node.lost, child_lost) << node.name;
    }
}

TEST(HierRollup, ChildSumsMatchParent)
{
    Netlist nl;
    auto &src = nl.create<PulseSource>("src");
    TestCell *a = nullptr;
    TestCell *b = nullptr;
    {
        auto grp = nl.scope("grp");
        a = &nl.create<TestCell>("a", kPicosecond);
        b = &nl.create<TestCell>("b", kPicosecond);
    }
    auto &c = nl.create<TestCell>("c", kPicosecond);
    PulseTrace out;
    src.out.connect(a->in);
    a->out.connect(b->in);
    b->out.connect(c.in);
    c.out.connect(out.input());
    src.pulseAt(10 * kPicosecond);
    src.pulseAt(30 * kPicosecond);
    nl.run();

    const HierReport rollup = nl.report();
    verifyChildSums(rollup.root);

    // Flat totals: root aggregates must match the netlist counters.
    EXPECT_EQ(rollup.root.jj, nl.totalJJs());
    EXPECT_EQ(rollup.root.switches, nl.totalSwitches());

    // The scope node: two 2-JJ cells, 2 pulses through each.
    ASSERT_EQ(rollup.root.children.size(), 3u); // src, grp, c
    const auto &grp = rollup.root.children[1];
    EXPECT_EQ(grp.name, "grp");
    ASSERT_EQ(grp.children.size(), 2u);
    EXPECT_EQ(grp.jj, 4);
    EXPECT_EQ(grp.jjChildren, 4);
    EXPECT_EQ(grp.switches, 8u);  // 2 cells x 2 pulses x 2 switches
    EXPECT_EQ(grp.inPulses, 4u);  // 2 pulses into each of a and b
    EXPECT_EQ(grp.outPulses, 4u);
    EXPECT_EQ(grp.lost, 0u);
}

TEST(HierRollup, MergerCollisionsShowUpAsLostPulses)
{
    Netlist nl;
    auto &sa = nl.create<PulseSource>("sa");
    auto &sb = nl.create<PulseSource>("sb");
    auto &m = nl.create<Merger>("m");
    PulseTrace out;
    sa.out.connect(m.inA);
    sb.out.connect(m.inB);
    m.out.connect(out.input());
    // Coincident arrivals: one pulse is absorbed.
    sa.pulseAt(10 * kPicosecond);
    sb.pulseAt(10 * kPicosecond);
    nl.run();

    const HierReport rollup = nl.report();
    EXPECT_EQ(rollup.root.lost, 1u);
    EXPECT_EQ(out.count(), 1u);
}

} // namespace
} // namespace usfq
