/**
 * @file
 * STA-guided delay balancing of generated datapaths (docs/synthesis.md).
 *
 * balanceDesign() compiles a DesignSpec into an aligned PaddingPlan by
 * iterating: build the datapath, run the timing engine, read arrival
 * windows, and insert JTL padding where the windows say a path is
 * under-slack -- first steering every capture cell's clock-to-data
 * separation into its legal band (the Clock-Follow-Data move: the tap
 * clock chases the data phase), then equalizing the slot-grid phase of
 * every counting-tree leaf.  The loop ends when an iteration changes
 * nothing and every remaining STA finding is one of the documented
 * by-design classes (isByDesignFinding), when the inserted-JJ budget is
 * exhausted, or when the spec is structurally infeasible (slot period
 * below a tree's dead-time/recovery gate).
 */

#ifndef USFQ_GEN_BALANCE_HH
#define USFQ_GEN_BALANCE_HH

#include <string>

#include "gen/datapath.hh"
#include "gen/spec.hh"
#include "sta/sta.hh"

namespace usfq::gen
{

/** How a balanceDesign() run ended. */
enum class BalanceStatus
{
    /** Plan aligns the design and runStaChecked passes under
     *  genStaOptions() waivers. */
    Converged,
    /** The plan's inserted JJs exceeded spec.balanceBudgetJJ before
     *  the design aligned. */
    BudgetExhausted,
    /** No plan can fix the spec: a slot-period gate failed or an
     *  actionable STA finding survived full alignment. */
    Infeasible,
};

const char *balanceStatusName(BalanceStatus status);

/** Everything one balanceDesign() run produces. */
struct BalanceOutcome
{
    BalanceStatus status = BalanceStatus::Infeasible;

    /** The padding compiled so far (final when Converged). */
    PaddingPlan plan;

    /** Build/analyze iterations consumed. */
    int iterations = 0;

    /** plan.insertedJJ(): the balancing area overhead. */
    int insertedJJ = 0;

    /** Max minus min counting-tree leaf phase after the last analysis
     *  (0 when Converged: the slot grids coincide exactly). */
    Tick residualSkew = 0;

    /** Failure reason / first actionable finding (diagnostics). */
    std::string detail;

    // Final-STA figures of the balanced design (valid when Converged).
    Tick requiredStreamSpacing = 0;
    double maxStreamRateHz = 0.0;
    Tick worstSlack = 0;
    bool hasWorstSlack = false;

    bool converged() const { return status == BalanceStatus::Converged; }

    bool operator==(const BalanceOutcome &other) const = default;
};

/**
 * True when @p f is one of the by-design STA finding classes of
 * (docs/synthesis.md) -- structural-floor pessimism with an exact,
 * constant margin, guaranteed harmless by the slot-period gates:
 *
 *  - CollisionRisk, margin -(t_MC+1): an aligned pair at a merger --
 *    the modelled lossy behaviour of the Merger/Tff2 trees and the
 *    balancer's own output-merger double-count.
 *  - CollisionRisk, margin -(t_BFF+1): an aligned pair at a routing
 *    unit -- the paper's designed case (ii).
 *  - CollisionRisk, margin (t_MC+1)-t_BFF (Balancer trees): inner-level
 *    routing units fed through a merger whose declared floor hides the
 *    real slot spacing (>= t_BFF by the period gate).
 *  - RateViolation, margin (t_MC+1)-t_TFF2 (Tff2 trees): same floor
 *    pessimism at the TFF2 behind each node merger (real spacing >=
 *    t_TFF2 by the period gate).
 */
bool isByDesignFinding(const DesignSpec &spec, const LintFinding &f);

/**
 * STA options for checked runs over a generated design: stimulus
 * anchors plus blanket waivers covering exactly the by-design classes
 * above (CollisionRisk always; RateViolation additionally for Tff2
 * trees).  balanceDesign() classifies every finding against
 * isByDesignFinding() BEFORE declaring convergence, so the blanket
 * never hides an actionable finding on a Converged design.
 */
StaOptions genStaOptions(const DesignSpec &spec);

/** Compile @p spec: iterate STA + padding until aligned (see file
 *  comment). */
BalanceOutcome balanceDesign(const DesignSpec &spec);

} // namespace usfq::gen

#endif // USFQ_GEN_BALANCE_HH
