/**
 * @file
 * TileGrid: instantiates a planned NoC fabric (noc/plan.hh) inside a
 * Netlist -- compute tiles (DPU / PE / FIR-step), injector and sink
 * terminals, routers, links, and the TDM schedule sources (injector
 * triggers + demux selects) -- wired lint-clean and grouped so
 * Netlist::report() rolls the fabric up per tile / router / link.
 *
 * The builder is deliberately NOT a Component: everything it makes is
 * create<>'d on the netlist (correct totalJJs() and report() without
 * double counting), and the builder object itself is just handles.
 *
 * One TileGrid run == one computing epoch: program the seeded operands
 * (programOperands), elaborate, run(plan.horizon), observe().  The
 * same grid replays further epochs after Netlist::resetAll() and
 * programSchedule() -- PulseFabricRig below.
 */

#ifndef USFQ_NOC_GRID_HH
#define USFQ_NOC_GRID_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "core/dpu.hh"
#include "core/pe.hh"
#include "noc/plan.hh"
#include "noc/router.hh"
#include "sfq/sources.hh"
#include "sim/netlist.hh"

namespace usfq::noc
{

class TileGrid
{
  public:
    TileGrid(Netlist &nl, const GridPlan &plan);

    const GridPlan &plan() const { return gp; }

    /**
     * Program the planned stimulus -- epoch markers, bipolar grid
     * clocks, injector triggers and demux selects -- in construction
     * order.  The constructor calls it; after Netlist::resetAll() call
     * it again before programOperands(), so the event queue sees the
     * same schedule, in the same order, as a freshly built grid.
     */
    void programSchedule();

    /**
     * Program the per-tile operand sources (the only seed-dependent
     * stimulus).  Call once per epoch, after programSchedule's
     * stimulus, before run.
     */
    void programOperands(const TileOperands &ops);

    /** Collect the flit-for-flit observables after a run. */
    FabricObservation observe() const;

    /** Tile pulses that arrived at injectors after their trigger. */
    std::uint64_t latePulses() const;

    /**
     * Per-tile injected value (post-cap), 0 for non-source tiles --
     * comparable against func::nocTileCounts after a run.
     */
    std::vector<int> injectedCounts() const;

    /** Sink pulses off the global window/slot grid. */
    std::uint64_t misaligned() const;

    /** Router at @p id, or null when no flow crosses it. */
    NocRouter *router(int id) { return routers[id]; }
    const NocRouter *router(int id) const { return routers[id]; }

  private:
    struct Tile
    {
        DotProductUnit *dpu = nullptr;
        ProcessingElement *pe = nullptr;
        std::vector<PulseSource *> rl;     ///< DPU a_i sources
        std::vector<PulseSource *> stream; ///< DPU b_i sources
        PulseSource *in1 = nullptr;        ///< PE operand sources
        PulseSource *in2 = nullptr;
        PulseSource *in3 = nullptr;
        NocInjector *inj = nullptr;
        NocSink *snk = nullptr;
    };

    void buildTile(int t, int flow);
    void buildRouters();
    void buildLinks();
    void buildTaps();

    Netlist &nl;
    GridPlan gp;
    std::vector<Tile> tiles;

    /** Planned stimulus, construction order (programSchedule()). */
    std::vector<std::pair<PulseSource *, std::vector<Tick>>> schedule;
    std::vector<NocRouter *> routers;

    /** Output occupancy taps, router * kDirCount + dir (sparse). */
    std::vector<NocTap *> taps;
};

/** One pulse-level fabric evaluation (one epoch). */
struct PulseFabricResult
{
    FabricObservation obs;
    std::uint64_t latePulses = 0;
    std::uint64_t misaligned = 0;
    long long totalJJ = 0;
};

/**
 * A TileGrid in a netlist of its own, built and elaborated once and
 * replayed per epoch: run() resets every component and the event
 * queue, re-programs the planned schedule and the seed's operands, and
 * runs to the horizon -- bit-identical to a freshly built grid, since
 * the queue sees the same events in the same order.
 */
class PulseFabricRig
{
  public:
    explicit PulseFabricRig(const GridPlan &plan);

    PulseFabricRig(const PulseFabricRig &) = delete;
    PulseFabricRig &operator=(const PulseFabricRig &) = delete;

    PulseFabricResult run(std::uint64_t seed);

    Netlist &netlist() { return nl; }
    const TileGrid &grid() const { return tileGrid; }

  private:
    Netlist nl;
    TileGrid tileGrid;
};

/** One epoch on a rig built for it alone. */
PulseFabricResult runPulseFabric(const GridPlan &plan,
                                 std::uint64_t seed);

} // namespace usfq::noc

#endif // USFQ_NOC_GRID_HH
