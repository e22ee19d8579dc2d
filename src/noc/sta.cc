#include "noc/sta.hh"

#include <algorithm>

#include "util/logging.hh"

namespace usfq::noc
{

double
FabricStaReport::maxRouteRateHz() const
{
    Tick worst = 0;
    for (Tick floor : hopFloors)
        worst = std::max(worst, floor);
    if (worst <= 0)
        return 0.0;
    return 1e15 / static_cast<double>(worst); // Tick is femtoseconds
}

StaOptions
fabricStaOptions()
{
    // Pairwise collision pessimism is structural here: tile counting
    // trees arbitrate same-stream pulses dynamically (the balancer
    // never routes two pulses into one merger leg), and fabric merger
    // collisions under shared sink windows are intentional arbitration
    // accounted by the router ledger.  Window/recovery checks and the
    // separation floors stay fully enforced.
    StaOptions opts;
    opts.anchorMode = StaOptions::AnchorMode::Stimulus;
    opts.waivers[LintRule::CollisionRisk] =
        "noc fabric: counting trees arbitrate dynamically and shared-"
        "window merger losses are accounted by the router ledger";
    return opts;
}

FabricStaReport
analyzeFabric(Netlist &nl, const TileGrid &grid, StaOptions opts)
{
    const GridPlan &plan = grid.plan();
    opts.waivers.merge(fabricStaOptions().waivers);

    FabricStaReport rep;
    rep.sta = runStaChecked(nl, opts);

    rep.routes.reserve(plan.flows.size());
    for (std::size_t f = 0; f < plan.flows.size(); ++f) {
        const FlowPlan &fp = plan.flows[f];
        FabricRoute route;
        route.flow = static_cast<int>(f);
        route.routers = static_cast<int>(fp.routers.size());
        route.latency = fp.latency;
        rep.routes.push_back(route);
        if (route.latency > rep.criticalLatency ||
            rep.criticalFlow < 0) {
            rep.criticalFlow = route.flow;
            rep.criticalLatency = route.latency;
        }
    }

    if (rep.criticalFlow >= 0) {
        const FlowPlan &fp =
            plan.flows[static_cast<std::size_t>(rep.criticalFlow)];
        for (std::size_t k = 0; k < fp.routers.size(); ++k) {
            const NocRouter *router = grid.router(fp.routers[k]);
            if (router == nullptr)
                fatal("noc sta: flow %d crosses unbuilt router %d",
                      rep.criticalFlow, fp.routers[k]);
            rep.hopFloors.push_back(
                rep.sta.separationFloor(router->in(fp.inDir[k])));
        }
    }
    return rep;
}

std::string
describeRoute(const GridPlan &plan, int flow)
{
    const FlowPlan &fp =
        plan.flows[static_cast<std::size_t>(flow)];
    std::string s = tileLabel(plan.spec, fp.spec.src);
    for (std::size_t k = 0; k < fp.routers.size(); ++k) {
        s += " -[";
        s += dirName(fp.outDir[k]);
        s += "]-> ";
        s += routerLabel(plan.spec, fp.routers[k]);
    }
    s += " -> ";
    s += tileLabel(plan.spec, fp.spec.dst);
    return s;
}

} // namespace usfq::noc
