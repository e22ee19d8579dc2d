/**
 * @file
 * Fabric-level static timing (docs/noc.md): runSta over a built
 * TileGrid plus the route-level view -- per-flow latencies, the
 * critical route, and per-hop rate floors along it.
 *
 * Routes surface in the STA critical path as the chain
 * injector -> router buffers/demuxes/pads/mergers -> link JTLs ->
 * sink; analyzeFabric() additionally reports them in plan terms
 * (flow, hop list), which is what the benches and the noc_mesh
 * example print.
 */

#ifndef USFQ_NOC_STA_HH
#define USFQ_NOC_STA_HH

#include <string>
#include <vector>

#include "noc/grid.hh"
#include "sta/sta.hh"

namespace usfq::noc
{

/** One flow's route timing, from the plan's equalized budget. */
struct FabricRoute
{
    int flow = 0;
    int routers = 0; ///< routers traversed (manhattan distance + 1)
    Tick latency = 0;
};

struct FabricStaReport
{
    StaReport sta;
    std::vector<FabricRoute> routes;

    /** Index of the latency-critical flow (-1 when no flows). */
    int criticalFlow = -1;
    Tick criticalLatency = 0;

    /**
     * Provable minimum pulse spacing at each router input along the
     * critical route (0 = no floor provable at that hop).
     */
    std::vector<Tick> hopFloors;

    /**
     * Sustained per-flow flit rate the critical route supports: the
     * tightest hop floor as a rate.  0 when no floor is provable.
     */
    double maxRouteRateHz() const;
};

/**
 * The fabric's STA options: stimulus anchoring, and pairwise collision
 * findings waived -- tile counting trees arbitrate same-stream pulses
 * dynamically, and shared-window merger losses are accounted by the
 * router ledger.  Window/recovery checks and separation floors stay
 * enforced.
 */
StaOptions fabricStaOptions();

/**
 * STA over the fabric netlist under @p opts plus the fabricStaOptions()
 * waivers (a waiver already in @p opts wins), and the route-level
 * extraction.  Uses runStaChecked semantics: fatal on unwaived
 * findings.
 */
FabricStaReport analyzeFabric(Netlist &nl, const TileGrid &grid,
                              StaOptions opts = {});

/** "t2_1 -[e]-> r2_1 ... -> t0_1" route rendering for reports. */
std::string describeRoute(const GridPlan &plan, int flow);

} // namespace usfq::noc

#endif // USFQ_NOC_STA_HH
