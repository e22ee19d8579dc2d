/**
 * @file
 * Generator unit tier (ctest label `gen`): the DesignSpec vocabulary
 * (JSON round trip, hash determinism, validation), the STA-guided
 * balancing pass (convergence, budget exhaustion, infeasibility) and
 * the inserted-JJ accounting contract -- jjCount(), the closed form
 * jjsFor(), Netlist::totalJJs() and the hierarchical report() rollup
 * must all agree, and the balancing overhead must be exactly the
 * plan's insertedJJ().  See docs/synthesis.md.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gen/balance.hh"
#include "gen/datapath.hh"
#include "gen/functional.hh"
#include "gen/spec.hh"
#include "sfq/params.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"
#include "util/json.hh"
#include "util/random.hh"

namespace usfq::gen
{
namespace
{

/** Round-trip a spec through its JSON object form. */
DesignSpec
roundTrip(const DesignSpec &spec)
{
    std::string out;
    JsonWriter w(out);
    designSpecToJson(spec, w);
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(parseJson(out, doc, &err)) << err;
    DesignSpec back;
    EXPECT_TRUE(designSpecFromJson(doc, back, &err)) << err;
    return back;
}

/** A spec with every field off its default. */
DesignSpec
fullyCustomSpec()
{
    DesignSpec s;
    s.lanes = 16;
    s.bits = 4;
    s.clockPeriodPs = 16;
    s.encoding = StreamEncoding::Bipolar;
    s.tree = TreeKind::Merger;
    s.shape = LaneShape::Random;
    s.balance = BalanceStyle::Jtl;
    s.maxDividers = 2;
    s.skewStep = 3;
    s.shapeSeed = 0xfeedbeefULL;
    s.balanceBudgetJJ = 512;
    return s;
}

TEST(GenSpec, JsonRoundTripDefaults)
{
    const DesignSpec s;
    EXPECT_EQ(roundTrip(s), s);
}

TEST(GenSpec, JsonRoundTripCustom)
{
    const DesignSpec s = fullyCustomSpec();
    EXPECT_EQ(roundTrip(s), s);
}

TEST(GenSpec, JsonAbsentFieldsKeepDefaults)
{
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson("{}", doc, &err)) << err;
    DesignSpec out;
    ASSERT_TRUE(designSpecFromJson(doc, out, &err)) << err;
    EXPECT_EQ(out, DesignSpec{});
}

TEST(GenSpec, JsonRejectsUnknownEnum)
{
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson("{\"tree\": \"pyramid\"}", doc, &err));
    DesignSpec out;
    EXPECT_FALSE(designSpecFromJson(doc, out, &err));
    EXPECT_NE(err.find("pyramid"), std::string::npos) << err;
}

TEST(GenSpec, ValidateRejectsOutOfRange)
{
    DesignSpec s;
    s.lanes = 6; // not a power of two
    EXPECT_FALSE(s.validate());
    s = DesignSpec{};
    s.lanes = 128;
    EXPECT_FALSE(s.validate());
    s = DesignSpec{};
    s.bits = 0;
    EXPECT_FALSE(s.validate());
    s = DesignSpec{};
    s.clockPeriodPs = 0;
    EXPECT_FALSE(s.validate());
    s = DesignSpec{};
    s.maxDividers = 4;
    EXPECT_FALSE(s.validate());
    // Bipolar complement needs the inverter capture stage; the
    // Register balancing style would claim the same slot.
    s = DesignSpec{};
    s.encoding = StreamEncoding::Bipolar;
    s.balance = BalanceStyle::Register;
    std::string err;
    EXPECT_FALSE(s.validate(&err));
    EXPECT_FALSE(err.empty());
}

TEST(GenSpec, HashDeterministicAndFieldSensitive)
{
    const DesignSpec base = fullyCustomSpec();
    const std::uint64_t h0 = designSpecHash(1469598103934665603ULL, base);
    EXPECT_EQ(designSpecHash(1469598103934665603ULL, base), h0);

    // Every result-affecting field must move the hash.
    std::vector<DesignSpec> mutants;
    for (int i = 0; i < 10; ++i)
        mutants.push_back(base);
    mutants[0].lanes = 8;
    mutants[1].bits = 5;
    mutants[2].clockPeriodPs = 20;
    mutants[3].encoding = StreamEncoding::Unipolar;
    mutants[4].tree = TreeKind::Tff2;
    mutants[5].shape = LaneShape::Skewed;
    mutants[6].balance = BalanceStyle::Register;
    mutants[7].maxDividers = 1;
    mutants[8].skewStep = 2;
    mutants[9].shapeSeed = 2;
    std::set<std::uint64_t> hashes{h0};
    for (const DesignSpec &m : mutants)
        hashes.insert(designSpecHash(1469598103934665603ULL, m));
    EXPECT_EQ(hashes.size(), mutants.size() + 1)
        << "a field mutation collided with the base hash";
}

TEST(GenSpec, RandomSpecsAlwaysValid)
{
    Rng rng(123);
    for (int i = 0; i < 200; ++i) {
        const DesignSpec s = randomDesignSpec(rng);
        std::string err;
        EXPECT_TRUE(s.validate(&err)) << err;
    }
}

TEST(GenSpec, DerivedLaneShapes)
{
    DesignSpec s;
    s.shape = LaneShape::Balanced;
    for (int l = 0; l < s.lanes; ++l) {
        EXPECT_EQ(s.dividersOf(l), s.dividersOf(0));
        EXPECT_EQ(s.skewJtlsOf(l), s.skewJtlsOf(0));
    }
    s.shape = LaneShape::Random;
    s.shapeSeed = 7;
    std::vector<int> divs, skews;
    for (int l = 0; l < s.lanes; ++l) {
        divs.push_back(s.dividersOf(l));
        skews.push_back(s.skewJtlsOf(l));
        EXPECT_GE(divs.back(), 0);
        EXPECT_LE(divs.back(), s.maxDividers);
    }
    // Deterministic in the seed.
    for (int l = 0; l < s.lanes; ++l) {
        EXPECT_EQ(s.dividersOf(l), divs[static_cast<std::size_t>(l)]);
        EXPECT_EQ(s.skewJtlsOf(l), skews[static_cast<std::size_t>(l)]);
    }
}

// --- the balancing pass ----------------------------------------------------

TEST(GenBalance, BalancedShapeConvergesWithoutPadding)
{
    DesignSpec s; // Balanced shape, Unipolar, Jtl: nothing to fix.
    const BalanceOutcome bo = balanceDesign(s);
    ASSERT_TRUE(bo.converged()) << bo.detail;
    EXPECT_TRUE(bo.plan.empty());
    EXPECT_EQ(bo.insertedJJ, 0);
    EXPECT_EQ(bo.residualSkew, 0);
    EXPECT_GT(bo.maxStreamRateHz, 0.0);
    EXPECT_GT(bo.requiredStreamSpacing, 0);
}

TEST(GenBalance, SkewedShapeConvergesWithPadding)
{
    DesignSpec s;
    s.shape = LaneShape::Skewed;
    s.skewStep = 2;
    s.maxDividers = 2;
    const BalanceOutcome bo = balanceDesign(s);
    ASSERT_TRUE(bo.converged()) << bo.detail;
    EXPECT_FALSE(bo.plan.empty());
    EXPECT_GT(bo.insertedJJ, 0);
    EXPECT_EQ(bo.insertedJJ, bo.plan.insertedJJ());
    EXPECT_EQ(bo.residualSkew, 0)
        << "converged plans align the tree leaves exactly";
    EXPECT_LE(bo.insertedJJ, s.balanceBudgetJJ);

    // The pass is a pure function of the spec.
    const BalanceOutcome again = balanceDesign(s);
    EXPECT_EQ(again.plan, bo.plan);
    EXPECT_EQ(again.iterations, bo.iterations);
}

TEST(GenBalance, RegisterStyleAbsorbsSkew)
{
    DesignSpec s;
    s.balance = BalanceStyle::Register;
    s.shape = LaneShape::Skewed;
    s.skewStep = 2;
    s.clockPeriodPs = 20;
    const BalanceOutcome bo = balanceDesign(s);
    ASSERT_TRUE(bo.converged()) << bo.detail;
    EXPECT_EQ(bo.residualSkew, 0);
    EXPECT_GT(bo.insertedJJ, 0)
        << "capture-band steering needs tap padding on a skewed shape";

    // The re-timing stage itself costs one DFF per lane of base area,
    // plus the extra splitter fan-out feeding each lane's clock tap.
    DesignSpec j = s;
    j.balance = BalanceStyle::Jtl;
    EXPECT_EQ(StreamDatapath::jjsFor(s, {}) -
                  StreamDatapath::jjsFor(j, {}),
              s.lanes * (cell::kDffJJs + cell::kSplitterJJs));
    const BalanceOutcome jo = balanceDesign(j);
    ASSERT_TRUE(jo.converged()) << jo.detail;
}

TEST(GenBalance, BudgetExhaustionReported)
{
    DesignSpec s;
    s.shape = LaneShape::Skewed;
    s.skewStep = 4;
    s.balanceBudgetJJ = 2;
    const BalanceOutcome bo = balanceDesign(s);
    EXPECT_EQ(bo.status, BalanceStatus::BudgetExhausted);
    EXPECT_GT(bo.insertedJJ, s.balanceBudgetJJ);
    EXPECT_NE(bo.detail.find("budget"), std::string::npos) << bo.detail;
}

TEST(GenBalance, PeriodGatesAreInfeasible)
{
    // Balancer below the BFF dead time.
    DesignSpec s;
    s.tree = TreeKind::Balancer;
    s.clockPeriodPs =
        static_cast<int>(cell::kBffDeadTime / kPicosecond) - 1;
    BalanceOutcome bo = balanceDesign(s);
    EXPECT_EQ(bo.status, BalanceStatus::Infeasible);
    EXPECT_NE(bo.detail.find("dead time"), std::string::npos)
        << bo.detail;

    // Merger inside the collision window.
    s = DesignSpec{};
    s.tree = TreeKind::Merger;
    s.clockPeriodPs =
        static_cast<int>(cell::kMergerCollisionWindow / kPicosecond);
    bo = balanceDesign(s);
    EXPECT_EQ(bo.status, BalanceStatus::Infeasible);
    EXPECT_NE(bo.detail.find("collision window"), std::string::npos)
        << bo.detail;

    // Tff2 below the TFF2 recovery.
    s = DesignSpec{};
    s.tree = TreeKind::Tff2;
    s.clockPeriodPs =
        static_cast<int>(cell::kTff2Delay / kPicosecond) - 1;
    bo = balanceDesign(s);
    EXPECT_EQ(bo.status, BalanceStatus::Infeasible);
    EXPECT_NE(bo.detail.find("recovery"), std::string::npos)
        << bo.detail;

    // At exactly the gate everything is legal again.
    s = DesignSpec{};
    s.tree = TreeKind::Balancer;
    s.clockPeriodPs =
        static_cast<int>(cell::kBffDeadTime / kPicosecond);
    bo = balanceDesign(s);
    EXPECT_TRUE(bo.converged()) << bo.detail;
}

TEST(GenBalance, ExactBudgetBoundaryConverges)
{
    // A budget of exactly the needed padding must converge: the gate
    // is `inserted > budget`, not `>=`.
    DesignSpec s;
    s.shape = LaneShape::Skewed;
    s.skewStep = 2;
    const BalanceOutcome ref = balanceDesign(s);
    ASSERT_TRUE(ref.converged()) << ref.detail;
    ASSERT_GT(ref.insertedJJ, 0);
    s.balanceBudgetJJ = ref.insertedJJ;
    const BalanceOutcome tight = balanceDesign(s);
    EXPECT_TRUE(tight.converged()) << tight.detail;
    EXPECT_EQ(tight.insertedJJ, ref.insertedJJ);
}

// --- inserted-JJ accounting ------------------------------------------------

TEST(GenArea, PlanOverheadIsExactlyInsertedJJ)
{
    DesignSpec s;
    s.shape = LaneShape::Skewed;
    s.skewStep = 2;
    s.maxDividers = 2;
    const BalanceOutcome bo = balanceDesign(s);
    ASSERT_TRUE(bo.converged()) << bo.detail;
    const int bare = StreamDatapath::jjsFor(s, {});
    const int padded = StreamDatapath::jjsFor(s, bo.plan);
    EXPECT_EQ(padded - bare, bo.insertedJJ);
}

TEST(GenArea, CountRollupAgreesEverywhere)
{
    for (const TreeKind tree :
         {TreeKind::Balancer, TreeKind::Merger, TreeKind::Tff2}) {
        DesignSpec s;
        s.tree = tree;
        s.shape = LaneShape::Skewed;
        s.skewStep = 1;
        s.clockPeriodPs = tree == TreeKind::Tff2 ? 24 : 16;
        const BalanceOutcome bo = balanceDesign(s);
        ASSERT_TRUE(bo.converged())
            << treeKindName(tree) << ": " << bo.detail;

        Netlist nl("acct");
        auto &dp = nl.create<StreamDatapath>("dp", s, bo.plan);
        PulseTrace tr("t");
        tr.input().markObserver();
        dp.out().connect(tr.input());
        dp.programEpoch({s.nmax(), {}});
        nl.run();

        const int closed = StreamDatapath::jjsFor(s, bo.plan);
        EXPECT_EQ(dp.jjCount(), closed) << treeKindName(tree);
        EXPECT_EQ(nl.totalJJs(), closed) << treeKindName(tree);
        const HierReport rep = nl.report();
        EXPECT_EQ(rep.root.jj, closed) << treeKindName(tree);
    }
}

TEST(GenArea, LanePadDelayMatchesJjCost)
{
    LanePad pad;
    pad.addPre(3 * cell::kJtlDelay);
    EXPECT_EQ(pad.pre, 3);
    EXPECT_EQ(pad.preTrim, 0);
    EXPECT_EQ(pad.preDelay(), 3 * cell::kJtlDelay);
    pad.addPost(cell::kJtlDelay + 500);
    EXPECT_EQ(pad.post, 1);
    EXPECT_EQ(pad.postTrim, 500);
    EXPECT_EQ(pad.postDelay(), cell::kJtlDelay + 500);
    // Unit JTLs plus one trim JTL for the sub-unit remainder.
    EXPECT_EQ(pad.jjs(), (3 + 1 + 1) * cell::kJtlJJs);
}

// --- the functional mirror (spot checks; the differential tier does
// --- the heavy lifting) ----------------------------------------------------

TEST(GenFunctional, LaneSlotsAlgebra)
{
    DesignSpec s;
    s.maxDividers = 2;
    s.shape = LaneShape::Skewed;

    // Gate off: nothing (Unipolar).
    EXPECT_TRUE(laneSlots(s, 0, 16, false).empty());

    // k dividers keep every 2^k-th slot, phase 2^k - 1.
    for (int lane = 0; lane < s.lanes; ++lane) {
        const int k = s.dividersOf(lane);
        const std::vector<int> slots = laneSlots(s, lane, 16, true);
        for (const int m : slots)
            EXPECT_EQ(m % (1 << k), (1 << k) - 1);
        EXPECT_EQ(static_cast<int>(slots.size()), 16 >> k);
    }

    // Bipolar complements within [0, n).
    DesignSpec b = s;
    b.encoding = StreamEncoding::Bipolar;
    const std::vector<int> on = laneSlots(s, 1, 16, true);
    const std::vector<int> comp = laneSlots(b, 1, 16, true);
    EXPECT_EQ(on.size() + comp.size(), 16u);
    std::vector<int> merged = on;
    merged.insert(merged.end(), comp.begin(), comp.end());
    std::sort(merged.begin(), merged.end());
    for (int m = 0; m < 16; ++m)
        EXPECT_EQ(merged[static_cast<std::size_t>(m)], m);
    // Gate off under Bipolar: the inverter emits every clock slot.
    EXPECT_EQ(laneSlots(b, 1, 16, false).size(), 16u);
}

TEST(GenFunctional, TreeLossInvariants)
{
    Rng rng(9);
    for (int i = 0; i < 24; ++i) {
        DesignSpec s = randomDesignSpec(rng);
        const EpochInputs in = drawEpochInputs(s, 77 + i);
        const EpochEval ev = evalEpoch(s, in);
        EXPECT_GE(ev.count, 0);
        EXPECT_GE(ev.lost, 0);
        EXPECT_LE(ev.count, ev.laneSum);
        if (s.tree == TreeKind::Balancer) {
            EXPECT_EQ(ev.lost, 0) << "balancer trees are lossless";
        }
        if (s.tree == TreeKind::Merger) {
            EXPECT_EQ(ev.count, ev.laneSum - ev.lost)
                << "merger trees only lose collided pulses";
        }
    }
}

TEST(GenFunctional, DrawEpochInputsDeterministic)
{
    const DesignSpec s;
    const EpochInputs a = drawEpochInputs(s, 42);
    const EpochInputs b = drawEpochInputs(s, 42);
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.gates, b.gates);
    EXPECT_EQ(static_cast<int>(a.gates.size()), s.lanes);
    EXPECT_GE(a.n, 1);
    EXPECT_LE(a.n, s.nmax());
    const EpochInputs c = drawEpochInputs(s, 43);
    EXPECT_TRUE(c.n != a.n || c.gates != a.gates);
}

TEST(GenFunctional, PulseMatchesMirrorSpotCheck)
{
    // One spec per tree kind at pulse level; the gen differential tier
    // covers the full random space.
    for (const TreeKind tree :
         {TreeKind::Balancer, TreeKind::Merger, TreeKind::Tff2}) {
        DesignSpec s;
        s.tree = tree;
        s.shape = LaneShape::Random;
        s.shapeSeed = 5;
        s.maxDividers = 2;
        s.clockPeriodPs = tree == TreeKind::Tff2 ? 24 : 16;
        const BalanceOutcome bo = balanceDesign(s);
        ASSERT_TRUE(bo.converged())
            << treeKindName(tree) << ": " << bo.detail;
        for (int e = 0; e < 3; ++e) {
            const EpochInputs in = drawEpochInputs(s, 900 + e);
            EXPECT_EQ(runPulseEpoch(s, bo.plan, in),
                      evalEpoch(s, in).count)
                << treeKindName(tree) << " epoch " << e;
        }
    }
}

// --- mirror lock -------------------------------------------------------------

/** Every tree x shape x encoding x lane count x resolution; two divider
 *  levels and a per-spec shape seed make the lanes differ. */
std::vector<DesignSpec>
mirrorLockSpecs()
{
    std::vector<DesignSpec> specs;
    for (const TreeKind tree :
         {TreeKind::Balancer, TreeKind::Merger, TreeKind::Tff2})
        for (const LaneShape shape :
             {LaneShape::Balanced, LaneShape::Skewed, LaneShape::Random})
            for (const StreamEncoding encoding :
                 {StreamEncoding::Unipolar, StreamEncoding::Bipolar})
                for (const int lanes : {2, 4, 8, 16, 32, 64})
                    for (const int bits : {3, 5, 8}) {
                        DesignSpec s;
                        s.tree = tree;
                        s.shape = shape;
                        s.encoding = encoding;
                        s.lanes = lanes;
                        s.bits = bits;
                        s.maxDividers = 2;
                        s.shapeSeed = 0x5eedULL + specs.size();
                        specs.push_back(s);
                    }
    return specs;
}

constexpr int kMirrorLockEpochs = 200;

/** Epoch @p e of spec @p index; every tenth epoch leaves the gates
 *  empty (all lanes on). */
EpochInputs
mirrorLockInputs(const DesignSpec &spec, std::size_t index, int e)
{
    EpochInputs in = drawEpochInputs(
        spec, 0x9e3779b97f4a7c15ULL * (index + 1) +
                  static_cast<std::uint64_t>(e));
    if (e % 10 == 9)
        in.gates.clear();
    return in;
}

std::uint64_t
foldEval(std::uint64_t h, const EpochEval &ev)
{
    h = hashFold(h, static_cast<std::uint64_t>(ev.count));
    h = hashFold(h, static_cast<std::uint64_t>(ev.lost));
    return hashFold(h, static_cast<std::uint64_t>(ev.laneSum));
}

TEST(GenMirrorLock, EvalEpochDigest)
{
    const std::vector<DesignSpec> specs = mirrorLockSpecs();
    ASSERT_EQ(specs.size(), 324u);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < specs.size(); ++i)
        for (int e = 0; e < kMirrorLockEpochs; ++e)
            h = foldEval(h, evalEpoch(specs[i],
                                      mirrorLockInputs(specs[i], i, e)));
    std::ostringstream hex;
    hex << std::hex << h;
    EXPECT_EQ(h, 0x6a4cb4424a8f5585ULL)
        << "mirror digest is now 0x" << hex.str();
}

TEST(GenMirrorLock, ReusedMirrorMatchesFreshMirrors)
{
    // One mirror fed every (spec, epoch) of the lock grid in shuffled
    // order -- lane counts, resolutions and trees change from one
    // epoch to the next -- must give what a fresh mirror gives.
    const std::vector<DesignSpec> specs = mirrorLockSpecs();
    std::vector<std::pair<std::size_t, int>> order;
    for (std::size_t i = 0; i < specs.size(); ++i)
        for (int e = 0; e < kMirrorLockEpochs; ++e)
            order.emplace_back(i, e);
    Rng rng(0x5eedULL);
    for (std::size_t k = order.size() - 1; k > 0; --k)
        std::swap(order[k], order[rng.next() % (k + 1)]);

    EpochMirror reused;
    for (const auto &[i, e] : order) {
        const EpochInputs in = mirrorLockInputs(specs[i], i, e);
        const EpochEval got = reused.eval(specs[i], in);
        const EpochEval want = EpochMirror().eval(specs[i], in);
        ASSERT_EQ(got.count, want.count) << "spec " << i << " epoch " << e;
        ASSERT_EQ(got.lost, want.lost) << "spec " << i << " epoch " << e;
        ASSERT_EQ(got.laneSum, want.laneSum)
            << "spec " << i << " epoch " << e;
    }
}

} // namespace
} // namespace usfq::gen
