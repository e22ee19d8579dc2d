/**
 * @file
 * The STA propagation and margin passes: arrival windows and per-anchor
 * delay bounds over the levelized timing graph, setup/hold / collision
 * margins from the bound differences, separation-floor propagation for
 * the rate analysis, slack annotation and report assembly (docs/sta.md).
 */

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/phase.hh"
#include "obs/stats.hh"
#include "sim/component.hh"
#include "sim/netlist.hh"
#include "sim/port.hh"
#include "sta/graph.hh"
#include "sta/sta.hh"
#include "util/logging.hh"

namespace usfq
{

namespace
{

using sta_detail::AnchorInfo;
using sta_detail::Edge;
using sta_detail::EdgeKind;
using sta_detail::Node;
using sta_detail::StaGraph;
using sta_detail::fmtPs;

/**
 * Spacing value meaning "provably at most one pulse ever" -- far above
 * any real spacing, low enough that the saturating arithmetic below
 * cannot overflow a Tick.
 */
constexpr Tick kSinglePulse = std::numeric_limits<Tick>::max() / 8;

/** Delay bounds a port sees from one anchor, in anchor-relative time. */
struct AnchorBound
{
    std::int32_t anchor;
    Tick lo; ///< fastest path delay from the anchor
    Tick hi; ///< slowest path delay from the anchor
    /**
     * Smallest product of arc rate divisors over any contributing
     * path: pulses at this port are at least `div` anchor periods
     * apart (worst case over paths).
     */
    std::uint64_t div;
};

/** Everything the topo-order forward pass computes. */
struct Propagated
{
    std::vector<ArrivalWindow> windows;
    /** Every node's per-anchor bounds, back to back in topo order. */
    std::vector<AnchorBound> bounds;
    /** Node -> (first, count) of its slice of `bounds`. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> boundSlice;
    std::vector<Tick> floors;
    std::vector<std::uint32_t> predEdge; ///< latest-arrival tree

    std::span<const AnchorBound>
    boundsOf(std::uint32_t v) const
    {
        return {bounds.data() + boundSlice[v].first, boundSlice[v].second};
    }
};

Propagated
propagate(const StaGraph &g)
{
    const std::size_t n = g.nodes.size();
    Propagated p;
    p.windows.assign(n, {});
    p.bounds.reserve(n);
    p.boundSlice.assign(n, {0, 0});
    p.floors.assign(n, 0);
    p.predEdge.assign(n, UINT32_MAX);

    for (const AnchorInfo &a : g.anchors)
        p.windows[a.node] = {a.first, a.last, true};

    // Arrival windows and per-anchor bounds, in dependency order: when
    // a node is visited every uncut in-edge has already contributed.
    for (std::uint32_t u : g.topo) {
        if (!p.windows[u].reachable)
            continue;

        // u's bounds: its own anchor, then its live predecessors'
        // bounds shifted across the edge, merged per anchor.
        const auto first = static_cast<std::uint32_t>(p.bounds.size());
        if (g.nodes[u].anchor >= 0)
            p.bounds.push_back({g.nodes[u].anchor, 0, 0, 1});
        for (std::uint32_t ei : g.inEdges.of(u)) {
            const Edge &e = g.edges[ei];
            if (e.cut || !p.windows[e.from].reachable)
                continue;
            const auto [from, count] = p.boundSlice[e.from];
            for (std::uint32_t i = from; i < from + count; ++i) {
                // By value: the push_back below may move the storage.
                const AnchorBound ab = p.bounds[i];
                const std::uint64_t div =
                    std::min<std::uint64_t>(ab.div * e.rateDiv,
                                            1u << 20);
                const AnchorBound cand{ab.anchor, ab.lo + e.minDelay,
                                       ab.hi + e.maxDelay, div};
                const auto it = std::find_if(
                    p.bounds.begin() + first, p.bounds.end(),
                    [&](const AnchorBound &b) {
                        return b.anchor == ab.anchor;
                    });
                if (it == p.bounds.end()) {
                    p.bounds.push_back(cand);
                } else {
                    it->lo = std::min(it->lo, cand.lo);
                    it->hi = std::max(it->hi, cand.hi);
                    it->div = std::min(it->div, cand.div);
                }
            }
        }
        p.boundSlice[u] = {
            first, static_cast<std::uint32_t>(p.bounds.size()) - first};

        for (std::uint32_t ei : g.outEdges.of(u)) {
            const Edge &e = g.edges[ei];
            if (e.cut)
                continue;
            ArrivalWindow &w = p.windows[e.to];
            const Tick early = p.windows[u].earliest + e.minDelay;
            const Tick late = p.windows[u].latest + e.maxDelay;
            if (!w.reachable) {
                w = {early, late, true};
                p.predEdge[e.to] = ei;
            } else {
                w.earliest = std::min(w.earliest, early);
                if (late > w.latest) {
                    w.latest = late;
                    p.predEdge[e.to] = ei;
                }
            }
        }
    }

    // Separation floors: the provable minimum spacing between any two
    // pulses at a port.  A port fed by exactly one live edge inherits
    // its source's floor, stretched by the arc's rate division and
    // compressed by its delay spread; reconvergent ports guarantee
    // nothing on their own; cells that absorb close pulses re-impose
    // their output floor regardless.
    for (std::uint32_t v : g.topo) {
        const Node &nd = g.nodes[v];
        Tick base = 0;
        if (!nd.isInput && nd.comp >= 0) {
            const auto ci = static_cast<std::size_t>(nd.comp);
            const std::size_t numOuts = g.comps[ci]->outputPorts().size();
            for (const OutputFloor &f : g.models[ci].floors) {
                if (f.port < numOuts && g.outputNode(ci, f.port) == v)
                    base = std::max(base, f.spacing);
            }
        }

        if (nd.anchor >= 0) {
            const AnchorInfo &a =
                g.anchors[static_cast<std::size_t>(nd.anchor)];
            const Tick s =
                a.count <= 1 ? kSinglePulse : a.minSpacing;
            p.floors[v] = std::max(base, s);
            continue;
        }

        std::uint32_t live = UINT32_MAX;
        std::size_t liveCount = 0;
        for (std::uint32_t ei : g.inEdges.of(v)) {
            const Edge &e = g.edges[ei];
            if (e.cut || !p.windows[e.from].reachable)
                continue;
            live = ei;
            ++liveCount;
        }
        Tick prop = 0;
        if (liveCount == 1) {
            const Edge &e = g.edges[live];
            const Tick su = p.floors[e.from];
            if (su >= kSinglePulse / e.rateDiv) {
                prop = kSinglePulse;
            } else if (su > 0) {
                prop = std::max<Tick>(
                    0, su * e.rateDiv - (e.maxDelay - e.minDelay));
            }
        }
        p.floors[v] = std::max(base, prop);
    }

    return p;
}

/**
 * Margin of the separation interval @p lo .. @p hi (possible values of
 * ref minus data arrival) against the open forbidden zone
 * (-hold, setup): positive = clearance, negative = violation depth.
 */
Tick
zoneMargin(Tick lo, Tick hi, Tick setup, Tick hold)
{
    return std::max(lo - setup, -hold - hi);
}

Tick
floorDiv(Tick a, Tick b)
{
    const Tick q = a / b;
    const Tick r = a % b;
    return r != 0 && ((r < 0) != (b < 0)) ? q - 1 : q;
}

/**
 * Worst margin of the anchored separation interval [lo, hi] against
 * the forbidden zone (-hold, setup), over every stream-neighbour
 * pairing: pulses launched j source periods apart see the interval
 * shifted by j spacings.  A periodic anchor shifts by exact multiples
 * of the period; an aperiodic one only bounds gaps from below
 * (>= minSpacing), so the shifted intervals are half-open and negative
 * shift margins are clamped to the zone span.
 */
Tick
streamMargin(const AnchorInfo &a, Tick lo, Tick hi, Tick setup,
             Tick hold)
{
    Tick margin = zoneMargin(lo, hi, setup, hold);
    if (a.count <= 1 || a.minSpacing <= 0)
        return margin;

    const Tick S = a.minSpacing;
    const Tick maxJ = static_cast<Tick>(
        std::min<std::uint64_t>(a.count - 1, 1u << 20));

    if (a.periodic) {
        // Only shifts that land the interval near the zone can bind.
        Tick jlo = std::max<Tick>(floorDiv(-hold - hi, S) - 1, -maxJ);
        Tick jhi = std::min<Tick>(floorDiv(setup - lo, S) + 1, maxJ);
        if (jhi - jlo <= 128) {
            for (Tick j = jlo; j <= jhi; ++j) {
                if (j == 0)
                    continue;
                margin = std::min(margin,
                                  zoneMargin(lo + j * S, hi + j * S,
                                             setup, hold));
            }
            return margin;
        }
        // Degenerate spacing (windows far wider than the period):
        // fall through to the conservative aperiodic bounds.
    }

    // Aperiodic: the +1 neighbour arrives at least S later (interval
    // [lo + S, inf)), the -1 neighbour at least S earlier (interval
    // (-inf, hi - S]); deeper shifts are dominated by these.
    const Tick span = setup + hold;
    const Tick up = lo + S - setup;
    margin = std::min(margin, std::max(up, -span));
    const Tick down = -hold - (hi - S);
    margin = std::min(margin, std::max(down, -span));
    return margin;
}

/**
 * Mark @p f waived when @p nl's own blanket waivers or, failing those,
 * @p opts' waivers cover its rule (the netlist's reason shadows).
 */
void
resolveWaiver(const Netlist &nl, const StaOptions &opts, LintFinding &f)
{
    auto it = nl.blanketWaiverMap().find(f.rule);
    if (it == nl.blanketWaiverMap().end()) {
        it = opts.waivers.find(f.rule);
        if (it == opts.waivers.end())
            return;
    }
    f.waived = true;
    f.waiverReason = it->second;
}

struct CheckContext
{
    const StaGraph &g;
    const Propagated &p;
    const StaOptions &opts;
    const Netlist &nl;
    StaReport &report;
    /** Worst evaluated margin per component (valid, value). */
    std::vector<std::pair<bool, Tick>> compSlack;

    void
    recordSlack(std::size_t ci, Tick margin)
    {
        auto &s = compSlack[ci];
        if (!s.first || margin < s.second)
            s = {true, margin};
        if (!report.hasWorstSlack || margin < report.worstSlack) {
            report.worstSlack = margin;
            report.hasWorstSlack = true;
        }
    }

    void
    addFinding(LintRule rule, std::string subject, std::string component,
               std::string message, Tick margin)
    {
        LintFinding f;
        f.rule = rule;
        f.subject = std::move(subject);
        f.component = std::move(component);
        f.message = std::move(message);
        f.margin = margin;
        resolveWaiver(nl, opts, f);
        report.findings.push_back(std::move(f));
    }
};

/** Setup/hold and collision checks of every cell. */
void
runChecks(CheckContext &ctx)
{
    const StaGraph &g = ctx.g;
    const Propagated &p = ctx.p;

    for (std::size_t ci = 0; ci < g.comps.size(); ++ci) {
        Component *comp = g.comps[ci];
        const TimingModel &m = g.models[ci];
        const auto &ins = comp->inputPorts();

        for (const TimingCheck &chk : m.checks) {
            if (chk.data >= ins.size() || chk.ref >= ins.size())
                panic("sta: %s: timing check ports %u/%u outside the "
                      "registered inputs",
                      comp->name().c_str(), chk.data, chk.ref);
            const std::uint32_t d = g.inputNode(ci, chk.data);
            const std::uint32_t r = g.inputNode(ci, chk.ref);
            if (!p.windows[d].reachable || !p.windows[r].reachable)
                continue;

            const bool isCollision =
                chk.kind == TimingCheckKind::Collision;
            const Tick setup = isCollision ? chk.window + 1 : chk.setup;
            const Tick hold = isCollision ? chk.window + 1 : chk.hold;

            bool evaluated = false;
            bool worstIsCross = false;
            Tick worst = 0;

            // Same-anchor pass: pulses launched by one source reach
            // both ports with a separation inside [lo, hi]; neighbour
            // pulses of the stream shift that interval by multiples of
            // the anchor spacing (only the +/-1 shifts can bind).
            for (const AnchorBound &ad : p.boundsOf(d)) {
                for (const AnchorBound &ar : p.boundsOf(r)) {
                    if (ad.anchor != ar.anchor)
                        continue;
                    const AnchorInfo &a = g.anchors[
                        static_cast<std::size_t>(ad.anchor)];
                    const Tick lo = ar.lo - ad.hi;
                    const Tick hi = ar.hi - ad.lo;
                    const Tick margin =
                        streamMargin(a, lo, hi, setup, hold);
                    if (!evaluated || margin < worst) {
                        worst = margin;
                        worstIsCross = false;
                    }
                    evaluated = true;
                }
            }

            // Cross-anchor race pass (opt-in): absolute windows of
            // unrelated streams against each other.
            if (ctx.opts.strictRaces) {
                bool distinct = false;
                for (const AnchorBound &ad : p.boundsOf(d))
                    for (const AnchorBound &ar : p.boundsOf(r))
                        distinct |= ad.anchor != ar.anchor;
                if (distinct) {
                    const ArrivalWindow &wd = p.windows[d];
                    const ArrivalWindow &wr = p.windows[r];
                    const Tick margin =
                        zoneMargin(wr.earliest - wd.latest,
                                   wr.latest - wd.earliest, setup, hold);
                    if (!evaluated || margin < worst) {
                        worst = margin;
                        worstIsCross = true;
                    }
                    evaluated = true;
                }
            }

            if (!evaluated)
                continue;
            ctx.recordSlack(ci, worst);
            if (worst >= 0)
                continue;

            const std::string &dn = *g.nodes[d].name;
            const std::string &rn = *g.nodes[r].name;
            std::string msg;
            if (isCollision) {
                msg = "pulses at " + dn + " and " + rn +
                      " can land within the " + fmtPs(chk.window) +
                      " ps collision window (margin " + fmtPs(worst) +
                      " ps)";
            } else {
                msg = "data " + dn + " can land inside the " +
                      fmtPs(chk.setup) + "/" + fmtPs(chk.hold) +
                      " ps setup/hold window of " + rn + " (margin " +
                      fmtPs(worst) + " ps)";
            }
            if (worstIsCross)
                msg += " [cross-stream race]";
            ctx.addFinding(isCollision ? LintRule::CollisionRisk
                                       : LintRule::SetupHoldViolation,
                           dn + " vs " + rn, comp->name(),
                           std::move(msg), worst);
        }
    }
}

/**
 * Recovery-time (lossless rate) checks, plus the stimulus-spacing
 * requirement every recovery-limited cell imposes back on the anchors.
 */
void
runRateChecks(CheckContext &ctx)
{
    const StaGraph &g = ctx.g;
    const Propagated &p = ctx.p;

    for (std::size_t ci = 0; ci < g.comps.size(); ++ci) {
        Component *comp = g.comps[ci];
        const TimingModel &m = g.models[ci];
        if (m.recovery <= 0)
            continue;

        for (std::size_t k = 0; k < comp->inputPorts().size(); ++k) {
            const std::uint32_t v = g.inputNode(ci, k);
            if (!p.windows[v].reachable)
                continue;

            // A cell `div` rate-divisions downstream of the anchor
            // sees every div-th pulse: its recovery constrains the
            // anchor spacing to recovery / div.
            for (const AnchorBound &ab : p.boundsOf(v)) {
                const Tick req = (m.recovery +
                                  static_cast<Tick>(ab.div) - 1) /
                                 static_cast<Tick>(ab.div);
                ctx.report.requiredStreamSpacing = std::max(
                    ctx.report.requiredStreamSpacing, req);
            }

            const Tick floor = p.floors[v];
            if (floor <= 0 || floor >= kSinglePulse)
                continue; // spacing unknown, or provably a lone pulse
            const Tick margin = floor - m.recovery;
            ctx.recordSlack(ci, margin);
            if (margin >= 0)
                continue;
            const std::string &pn = *g.nodes[v].name;
            std::string msg =
                "stream at " + pn + " can beat the cell's " +
                fmtPs(m.recovery) + " ps recovery time (spacing floor " +
                fmtPs(floor) + " ps, margin " + fmtPs(margin) + " ps)";
            ctx.addFinding(m.absorbs ? LintRule::CollisionRisk
                                     : LintRule::RateViolation,
                           pn, comp->name(), std::move(msg), margin);
        }
    }
}

/** Walk the latest-arrival predecessor tree back from the endpoint. */
StaPath
extractCriticalPath(const StaGraph &g, const Propagated &p)
{
    StaPath path;
    std::uint32_t end = UINT32_MAX;
    for (std::uint32_t v = 0;
         v < static_cast<std::uint32_t>(g.nodes.size()); ++v) {
        if (!p.windows[v].reachable)
            continue;
        if (end == UINT32_MAX ||
            p.windows[v].latest > p.windows[end].latest)
            end = v;
    }
    if (end == UINT32_MAX)
        return path;

    std::vector<std::uint32_t> chain;
    std::uint32_t v = end;
    while (p.predEdge[v] != UINT32_MAX) {
        chain.push_back(p.predEdge[v]);
        v = g.edges[p.predEdge[v]].from;
    }
    std::reverse(chain.begin(), chain.end());

    path.valid = true;
    path.startpoint = *g.nodes[v].name;
    path.endpoint = *g.nodes[end].name;
    path.length = p.windows[end].latest - p.windows[v].latest;
    path.hops.reserve(chain.size());
    for (std::uint32_t ei : chain) {
        const Edge &e = g.edges[ei];
        path.hops.push_back({*g.nodes[e.from].name, *g.nodes[e.to].name,
                             sta_detail::edgeKindName(e.kind),
                             e.minDelay, e.maxDelay,
                             p.windows[e.to].latest});
    }
    return path;
}

} // namespace

StaReport
runSta(Netlist &nl, const StaOptions &opts)
{
    if (!nl.elaborated())
        nl.elaborate();

    obs::ScopedPhase timer(obs::Phase::Sta);
    StaGraph g = sta_detail::buildStaGraph(nl, opts);
    Propagated p = propagate(g);

    StaReport report;
    report.numPorts = g.nodes.size();
    report.numEdges = g.edges.size();
    report.numCutEdges = g.numCut;
    report.numAnchors = g.anchors.size();

    CheckContext ctx{g, p, opts, nl, report, {}};
    ctx.compSlack.assign(g.comps.size(), {false, 0});

    for (LintFinding &f : g.loopFindings) {
        resolveWaiver(nl, opts, f);
        report.findings.push_back(std::move(f));
    }

    runChecks(ctx);
    runRateChecks(ctx);
    report.criticalPath = extractCriticalPath(g, p);

    if (opts.annotate) {
        for (std::size_t ci = 0; ci < g.comps.size(); ++ci) {
            if (ctx.compSlack[ci].first)
                g.comps[ci]->setStaSlack(ctx.compSlack[ci].second);
            else
                g.comps[ci]->clearStaSlack();
        }
    }

    report.portNodes = std::move(g.portNodes);
    report.nodeWindows = std::move(p.windows);
    report.nodeFloors = std::move(p.floors);
    // A floor at the single-pulse sentinel is reported as "no floor":
    // query results stay in physical units.
    for (Tick &f : report.nodeFloors)
        if (f >= kSinglePulse)
            f = 0;

    std::size_t waived = 0;
    for (const LintFinding &f : report.findings)
        if (f.waived)
            ++waived;
    obs::StatsRegistry &reg = obs::currentStats();
    reg.counter(nl.name() + "/sta/runs") += 1;
    reg.counter(nl.name() + "/sta/findings") += report.findings.size();
    reg.counter(nl.name() + "/sta/waived") += waived;
    reg.counter(nl.name() + "/sta/errors") += report.errors();
    return report;
}

void
gateStaReport(const Netlist &nl, StaReport &report, const StaOptions &opts)
{
    for (LintFinding &f : report.findings)
        if (!f.waived)
            resolveWaiver(nl, opts, f);
    if (report.errors() > 0) {
        for (const LintFinding &f : report.findings)
            if (!f.waived)
                warn("sta: [%s] %s: %s", lintRuleName(f.rule),
                     f.component.c_str(), f.message.c_str());
        fatal("sta: %s: %zu unwaived timing violations",
              nl.name().c_str(), report.errors());
    }
}

StaReport
runStaChecked(Netlist &nl, const StaOptions &opts)
{
    StaReport report = runSta(nl, opts);
    gateStaReport(nl, report, opts);
    return report;
}

} // namespace usfq
