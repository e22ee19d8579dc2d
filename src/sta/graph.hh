/**
 * @file
 * Internal port-level timing graph shared by the STA passes
 * (graph.cc builds and levelizes it, analysis.cc propagates over it).
 * Not installed API; include only from src/sta/ and its tests.
 */

#ifndef USFQ_STA_GRAPH_HH
#define USFQ_STA_GRAPH_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/component.hh"
#include "sim/timing.hh"
#include "sta/sta.hh"
#include "util/types.hh"

namespace usfq
{

namespace sta_detail
{

enum class EdgeKind : std::uint8_t
{
    Wire,  ///< recorded OutputPort connection (fixed wire delay)
    Arc,   ///< TimingModel propagation arc (input -> output of a cell)
    Alias, ///< declared zero-delay port alias (input -> input)
};

const char *edgeKindName(EdgeKind kind);

struct Edge
{
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    Tick minDelay = 0;
    Tick maxDelay = 0;
    EdgeKind kind = EdgeKind::Wire;
    std::uint8_t rateDiv = 1;
    /** Owning component index (Arc edges only), -1 otherwise. */
    std::int32_t comp = -1;
    /** Cut during levelization (feedback through a registered cell). */
    bool cut = false;
};

struct Node
{
    const std::string *name = nullptr;
    std::int32_t comp = -1; ///< owning component index
    bool isInput = false;
    std::int32_t anchor = -1; ///< index into anchors, -1 if none
};

/** One arrival-window anchor (stimulus source or zero-launch point). */
struct AnchorInfo
{
    std::uint32_t node = 0;
    Tick first = 0;
    Tick last = 0;
    Tick minSpacing = 0; ///< 0 = unknown / unbounded rate
    std::uint64_t count = 1;
    bool periodic = false; ///< exactly uniform schedule
};

/**
 * Compressed (CSR) per-node edge lists: the edges of node v are
 * index[start[v] .. start[v + 1]), in ascending edge order.
 */
struct Adjacency
{
    std::vector<std::uint32_t> start; ///< nodes + 1 offsets
    std::vector<std::uint32_t> index; ///< one entry per edge

    std::span<const std::uint32_t>
    of(std::uint32_t v) const
    {
        return {index.data() + start[v], start[v + 1] - start[v]};
    }
};

struct StaGraph
{
    std::vector<Node> nodes;
    std::vector<Edge> edges;
    Adjacency outEdges; ///< by Edge::from
    Adjacency inEdges;  ///< by Edge::to
    std::vector<AnchorInfo> anchors;

    std::vector<Component *> comps;
    /** Per-component model, with any delayDelta jitter already applied. */
    std::vector<TimingModel> models;
    /**
     * First node of each component: its input ports are nodes
     * firstNode[c] + slot, its output ports follow them.
     */
    std::vector<std::uint32_t> firstNode;

    /** The same numbering keyed by hierarchy node id (any port). */
    StaPortNodes portNodes;

    /** Node indices in dependency order over uncut edges. */
    std::vector<std::uint32_t> topo;

    /** CombinationalLoop findings raised while cutting. */
    std::vector<LintFinding> loopFindings;
    std::size_t numCut = 0;

    /** Node of input port @p port of component @p comp. */
    std::uint32_t
    inputNode(std::size_t comp, std::size_t port) const
    {
        return firstNode[comp] + static_cast<std::uint32_t>(port);
    }

    /** Node of output port @p port of component @p comp. */
    std::uint32_t
    outputNode(std::size_t comp, std::size_t port) const
    {
        return inputNode(comp, comps[comp]->inputPorts().size() + port);
    }
};

/**
 * Build the timing graph for @p nl: one node per registered port, wire
 * edges from the recorded connectivity, arc edges from the per-cell
 * TimingModels, alias edges from the declared port aliases; then seed
 * the anchors per @p opts, cut feedback at registered cells (raising
 * CombinationalLoop findings for loops without one) and compute the
 * topological order.
 */
StaGraph buildStaGraph(Netlist &nl, const StaOptions &opts);

/**
 * @p t in picoseconds with one decimal, as printf's "%.1f" prints it
 * (std::to_chars, so locale-independent): the unit of every STA
 * finding message and report line.
 */
std::string fmtPs(Tick t);

} // namespace sta_detail

} // namespace usfq

#endif // USFQ_STA_GRAPH_HH
