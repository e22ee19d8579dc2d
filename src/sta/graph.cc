#include "sta/graph.hh"

#include <algorithm>
#include <type_traits>

#include "sim/component.hh"
#include "sim/netlist.hh"
#include "sim/port.hh"
#include "util/logging.hh"

namespace usfq::sta_detail
{

const char *
edgeKindName(EdgeKind kind)
{
    switch (kind) {
    case EdgeKind::Wire:
        return "wire";
    case EdgeKind::Arc:
        return "arc";
    case EdgeKind::Alias:
        return "alias";
    }
    return "?";
}

namespace
{

/** Apply a per-component delay shift to every arc, clamped at zero. */
void
applyJitter(TimingModel &model, Tick delta)
{
    for (TimingArc &arc : model.arcs) {
        arc.minDelay = std::max<Tick>(0, arc.minDelay + delta);
        arc.maxDelay = std::max(arc.minDelay, arc.maxDelay + delta);
    }
}

/**
 * Cut one feedback edge per cycle until the uncut graph is acyclic.
 *
 * Iterative colored DFS; every back edge closes a cycle, which we cut
 * at an arc of a registered cell when the cycle contains one (a stored
 * fluxon legally decouples the wavefronts there) and at the back edge
 * itself otherwise -- the latter is a CombinationalLoop finding.  One
 * restart per cut keeps the code simple; real designs have few
 * feedback arcs.
 */
void
cutLoops(StaGraph &g)
{
    const std::size_t n = g.nodes.size();
    std::vector<std::uint8_t> color(n);  // 0 white, 1 grey, 2 black
    std::vector<std::uint32_t> viaEdge(n, UINT32_MAX);

    // DFS frame: node plus a cursor into its out-edge list.  One stack
    // serves every root and every restart.
    struct Frame
    {
        std::uint32_t node;
        std::size_t next = 0;
    };
    std::vector<Frame> stack;

    for (std::size_t attempt = 0; attempt <= g.edges.size(); ++attempt) {
        std::fill(color.begin(), color.end(), 0);
        bool cutSomething = false;

        for (std::uint32_t root = 0; root < n && !cutSomething; ++root) {
            if (color[root] != 0)
                continue;
            stack.clear();
            stack.push_back({root});
            color[root] = 1;
            while (!stack.empty() && !cutSomething) {
                Frame &f = stack.back();
                const std::span<const std::uint32_t> outs =
                    g.outEdges.of(f.node);
                if (f.next >= outs.size()) {
                    color[f.node] = 2;
                    stack.pop_back();
                    continue;
                }
                const std::uint32_t ei = outs[f.next++];
                const Edge &e = g.edges[ei];
                if (e.cut)
                    continue;
                if (color[e.to] == 0) {
                    color[e.to] = 1;
                    viaEdge[e.to] = ei;
                    stack.push_back({e.to});
                    continue;
                }
                if (color[e.to] != 1)
                    continue;

                // Back edge: the cycle is e plus the tree path from
                // e.to down to e.from.
                std::vector<std::uint32_t> cycle{ei};
                for (std::uint32_t v = e.from; v != e.to;
                     v = g.edges[viaEdge[v]].from)
                    cycle.push_back(viaEdge[v]);
                std::reverse(cycle.begin(), cycle.end());

                std::uint32_t victim = UINT32_MAX;
                for (std::uint32_t ce : cycle) {
                    const Edge &c = g.edges[ce];
                    if (c.kind == EdgeKind::Arc && c.comp >= 0 &&
                        g.models[static_cast<std::size_t>(c.comp)]
                            .registered) {
                        victim = ce;
                        break;
                    }
                }
                if (victim == UINT32_MAX) {
                    // No stateful cell anywhere on the loop: arrival
                    // windows around it are not statically boundable.
                    victim = ei;
                    const Node &head = g.nodes[e.to];
                    LintFinding f2;
                    f2.rule = LintRule::CombinationalLoop;
                    f2.subject = *head.name;
                    if (head.comp >= 0)
                        f2.component =
                            g.comps[static_cast<std::size_t>(head.comp)]
                                ->name();
                    std::string path;
                    for (std::uint32_t ce : cycle) {
                        if (!path.empty())
                            path += " -> ";
                        path += *g.nodes[g.edges[ce].to].name;
                    }
                    f2.message =
                        "combinational feedback loop with no registered "
                        "cell to cut it: " +
                        path;
                    g.loopFindings.push_back(std::move(f2));
                }
                g.edges[victim].cut = true;
                ++g.numCut;
                cutSomething = true;
            }
        }
        if (!cutSomething)
            return; // acyclic over uncut edges
    }
    panic("sta: loop cutting did not converge");
}

/** Kahn topological sort over the uncut edges. */
void
topoSort(StaGraph &g)
{
    const std::size_t n = g.nodes.size();
    std::vector<std::uint32_t> indeg(n, 0);
    for (const Edge &e : g.edges)
        if (!e.cut)
            ++indeg[e.to];

    std::vector<std::uint32_t> ready;
    ready.reserve(n);
    for (std::uint32_t v = 0; v < n; ++v)
        if (indeg[v] == 0)
            ready.push_back(v);

    g.topo.clear();
    g.topo.reserve(n);
    for (std::size_t head = 0; head < ready.size(); ++head) {
        const std::uint32_t u = ready[head];
        g.topo.push_back(u);
        for (std::uint32_t ei : g.outEdges.of(u)) {
            const Edge &e = g.edges[ei];
            if (!e.cut && --indeg[e.to] == 0)
                ready.push_back(e.to);
        }
    }
    if (g.topo.size() != n)
        panic("sta: %zu nodes missing from topological order "
              "(loop cutting incomplete)",
              n - g.topo.size());
}

/**
 * Add the node of slot @p slot of component @p comp (index @p ci).
 * The port's owner and slot must point back at this registration: a
 * port registered by two components, or twice by one, would otherwise
 * alias another port's node.
 */
template <typename Port>
void
addNode(StaGraph &g, const Port &port, const Component *comp,
        std::size_t ci, std::size_t slot)
{
    if (port.owner() != comp || port.slot() != slot)
        panic("sta: port %s registered twice", port.name().c_str());
    g.nodes.push_back({&port.name(), static_cast<std::int32_t>(ci),
                       std::is_same_v<Port, InputPort>, -1});
}

/** CSR lists of @p edges grouped by endpoint @p key. */
Adjacency
groupEdges(const std::vector<Edge> &edges, std::size_t numNodes,
           std::uint32_t Edge::*key)
{
    Adjacency adj;
    adj.start.assign(numNodes + 1, 0);
    adj.index.resize(edges.size());
    for (const Edge &e : edges)
        ++adj.start[e.*key + 1];
    for (std::size_t v = 0; v < numNodes; ++v)
        adj.start[v + 1] += adj.start[v];
    // Scatter in edge order, using start[v] as v's cursor; afterwards
    // start[v] holds v's end, so shift the offsets back by one node.
    for (std::uint32_t ei = 0; ei < edges.size(); ++ei)
        adj.index[adj.start[edges[ei].*key]++] = ei;
    for (std::size_t v = numNodes; v > 0; --v)
        adj.start[v] = adj.start[v - 1];
    adj.start[0] = 0;
    return adj;
}

} // namespace

StaGraph
buildStaGraph(Netlist &nl, const StaOptions &opts)
{
    StaGraph g;
    g.comps = nl.graphComponents();

    // Size the node and edge storage up front from the port and
    // connection counts (arcs are added once the models exist).  The
    // components come in hierarchy order, so the last one has the
    // highest hierarchy node id.
    std::size_t numPorts = 0;
    std::size_t maxEdges = 0;
    for (const Component *comp : g.comps) {
        numPorts +=
            comp->inputPorts().size() + comp->outputPorts().size();
        maxEdges += comp->portAliases().size();
        for (const OutputPort *out : comp->outputPorts())
            maxEdges += out->connectionList().size();
    }
    g.nodes.reserve(numPorts);
    g.models.reserve(g.comps.size());
    g.firstNode.reserve(g.comps.size());
    g.portNodes.netlist = &nl;
    g.portNodes.first.assign(
        g.comps.empty()
            ? 0
            : static_cast<std::size_t>(g.comps.back()->nodeId()) + 1,
        UINT32_MAX);

    // Nodes: every registered port of every live component, plus the
    // per-component timing model (with jitter folded in).
    for (std::size_t ci = 0; ci < g.comps.size(); ++ci) {
        const Component *comp = g.comps[ci];
        TimingModel &model = g.models.emplace_back(comp->timingModel());
        if (opts.delayDelta) {
            const int id = comp->nodeId();
            if (id >= 0 &&
                static_cast<std::size_t>(id) < opts.delayDelta->size())
                applyJitter(model,
                            (*opts.delayDelta)[static_cast<std::size_t>(
                                id)]);
        }
        maxEdges += model.arcs.size();

        const auto first = static_cast<std::uint32_t>(g.nodes.size());
        g.firstNode.push_back(first);
        g.portNodes.first[static_cast<std::size_t>(comp->nodeId())] =
            first;
        const auto &ins = comp->inputPorts();
        for (std::size_t k = 0; k < ins.size(); ++k)
            addNode(g, *ins[k], comp, ci, k);
        const auto &outs = comp->outputPorts();
        for (std::size_t k = 0; k < outs.size(); ++k)
            addNode(g, *outs[k], comp, ci, k);
    }
    g.edges.reserve(maxEdges);

    // Edges.
    for (std::size_t ci = 0; ci < g.comps.size(); ++ci) {
        Component *comp = g.comps[ci];
        const auto &ins = comp->inputPorts();
        const auto &outs = comp->outputPorts();
        const TimingModel &model = g.models[ci];

        for (const TimingArc &arc : model.arcs) {
            if (arc.from >= ins.size() || arc.to >= outs.size())
                panic("sta: %s: timing arc %u -> %u outside the "
                      "registered ports",
                      comp->name().c_str(), arc.from, arc.to);
            g.edges.push_back({g.inputNode(ci, arc.from),
                               g.outputNode(ci, arc.to), arc.minDelay,
                               arc.maxDelay, EdgeKind::Arc, arc.rateDiv,
                               static_cast<std::int32_t>(ci), false});
        }
        for (const Component::PortAlias &alias : comp->portAliases()) {
            const std::uint32_t from = g.portNodes.of(*alias.outer);
            const std::uint32_t to = g.portNodes.of(*alias.inner);
            if (from == UINT32_MAX || to == UINT32_MAX)
                continue; // alias into a free-standing port
            g.edges.push_back(
                {from, to, 0, 0, EdgeKind::Alias, 1, -1, false});
        }
        for (std::size_t k = 0; k < outs.size(); ++k) {
            const std::uint32_t from = g.outputNode(ci, k);
            for (const OutputPort::Connection &conn :
                 outs[k]->connectionList()) {
                if (conn.dst->isObserver())
                    continue; // measurement probes don't load the wire
                const std::uint32_t to = g.portNodes.of(*conn.dst);
                if (to == UINT32_MAX)
                    continue; // free-standing destination (fixtures)
                g.edges.push_back({from, to, conn.delay, conn.delay,
                                   EdgeKind::Wire, 1, -1, false});
            }
        }
    }

    g.outEdges = groupEdges(g.edges, g.nodes.size(), &Edge::from);
    g.inEdges = groupEdges(g.edges, g.nodes.size(), &Edge::to);

    // Anchors.
    if (opts.anchorMode == StaOptions::AnchorMode::Stimulus) {
        for (std::size_t ci = 0; ci < g.comps.size(); ++ci) {
            const PulseAnchor *a = g.comps[ci]->stimulusAnchor();
            if (!a || a->count == 0)
                continue;
            for (std::size_t k = 0;
                 k < g.comps[ci]->outputPorts().size(); ++k) {
                const std::uint32_t v = g.outputNode(ci, k);
                g.nodes[v].anchor =
                    static_cast<std::int32_t>(g.anchors.size());
                g.anchors.push_back({v, a->first, a->last,
                                     a->minSpacing, a->count,
                                     a->periodic});
            }
        }
    } else {
        // Zero mode: every driverless port launches one pulse at t=0.
        // State-only inputs (no out-edges) are included so their
        // setup/hold checks against a reachable clock still evaluate.
        for (std::uint32_t v = 0;
             v < static_cast<std::uint32_t>(g.nodes.size()); ++v) {
            if (!g.inEdges.of(v).empty())
                continue;
            g.nodes[v].anchor =
                static_cast<std::int32_t>(g.anchors.size());
            g.anchors.push_back({v, 0, 0, 0, 1, false});
        }
    }

    cutLoops(g);
    topoSort(g);
    return g;
}

} // namespace usfq::sta_detail
