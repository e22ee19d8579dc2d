/**
 * @file
 * Static planning layer of the temporal NoC (docs/noc.md): XY routes,
 * TDM window assignment, and the slot-aligned latency budget that both
 * engines share.
 *
 * The fabric is circuit-switched: a flow (source tile -> sink tile)
 * owns its XY route for one TDM window of every super-epoch.  Flows
 * whose routes share a channel but end at different sinks get disjoint
 * windows (a deterministic greedy coloring), so their pulse streams
 * never meet inside a merger.  Flows to the SAME sink may share a
 * window (GridSpec::sharedSinkWindows): their streams union in the
 * routers' merger trees and same-slot pulses collide -- the arbitration
 * loss the per-router collision ledger counts.
 *
 * Exactness contract: every link and every router traversal is padded
 * to an integer number of epoch slots, and injectors launch each flow
 * early by (maxFlowLatency - flowLatency), so every stream everywhere
 * in the fabric sits on ONE global slot-center grid and all streams of
 * a window arrive at their sink in phase.  Slot width always exceeds
 * the merger collision window (core/encoding.hh), so the pulse-level
 * merger trees compute exact slot unions -- which is precisely what
 * the functional mirror (func/noc.hh) evaluates.
 */

#ifndef USFQ_NOC_PLAN_HH
#define USFQ_NOC_PLAN_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/encoding.hh"
#include "util/types.hh"

namespace usfq::obs
{
class StatsRegistry;
}

namespace usfq::noc
{

/** Compute block instantiated in every tile. */
enum class TileKind
{
    Dpu, ///< dot-product unit (core/dpu.hh)
    Pe,  ///< temporal processing element; injects its result flit
    Fir, ///< one FIR step = a tap-window dot product on DPU hardware
};

const char *tileKindName(TileKind kind);

/** One circuit-switched flow: src tile streams its result to dst. */
struct FlowSpec
{
    int src = 0;
    int dst = 0;

    bool operator==(const FlowSpec &other) const = default;
};

/** Router port directions; Local attaches the tile itself. */
enum Dir : int
{
    kDirN = 0,
    kDirE,
    kDirS,
    kDirW,
    kDirLocal,
    kDirCount,
};

const char *dirName(int dir);

/** N<->S, E<->W; Local maps to itself. */
int oppositeDir(int dir);

/** Parameterized mesh description (the NoC twin of api::NetlistSpec). */
struct GridSpec
{
    int rows = 4;
    int cols = 4;
    TileKind kind = TileKind::Dpu;
    int taps = 4;
    int bits = 4;
    DpuMode mode = DpuMode::Bipolar;
    std::vector<FlowSpec> flows;

    /**
     * true: flows to one sink share a TDM window and arbitrate in the
     * merger trees (collisions expected, counted in the ledger).
     * false: every channel-sharing pair is TDM-separated -- the fabric
     * is collision-free by schedule.
     */
    bool sharedSinkWindows = false;

    /** JTL stages per mesh link (per-hop delay from sfq/params.hh). */
    int linkHops = 3;

    bool validate(std::string *err = nullptr) const;
};

/** Per-router structural plan derived from the union of flow routes. */
struct RouterPlan
{
    /** A demux-tree node steering branch range [lo, mid) vs [mid, hi). */
    struct DemuxNode
    {
        int lo = 0;
        int mid = 0;
        int hi = 0;
        int depth = 0; ///< stages after the input buffer (root = 0)
    };

    bool inUsed[kDirCount] = {};
    bool outUsed[kDirCount] = {};
    bool turn[kDirCount][kDirCount] = {};

    /** Contributing inputs per output, ascending: merger leaf order. */
    std::vector<int> feeders[kDirCount];

    /** Destination outputs per input, ascending: demux branch order. */
    std::vector<int> branches[kDirCount];

    /** Demux tree per input, breadth-first; empty when 1 branch. */
    std::vector<DemuxNode> demux[kDirCount];

    bool used() const;

    /** Demux stages a pulse entering @p in traverses to reach @p out. */
    int demuxDepth(int in, int out) const;

    /**
     * Demux-tree walk from @p in to @p out: (node index into
     * demux[in], side) per stage, side 0 steering low (out0).
     */
    std::vector<std::pair<int, int>> demuxPath(int in, int out) const;

    /** Merger tree depth of @p out (0 when a single feeder). */
    int mergerDepth(int out) const;
};

/** One flow's placed route, window and latency. */
struct FlowPlan
{
    FlowSpec spec;
    int window = 0;

    /** Router ids along the route, source to sink. */
    std::vector<int> routers;

    /** Entry / exit direction at routers[k] (Local at the ends). */
    std::vector<int> inDir;
    std::vector<int> outDir;

    /** Injector output to sink input, an exact multiple of the slot. */
    Tick latency = 0;
};

/**
 * The fully placed grid: everything the pulse-level builder
 * (noc/grid.hh) and the functional mirror (func/noc.hh) need, computed
 * once and shared so the two engines cannot drift.
 */
struct GridPlan
{
    GridSpec spec;
    EpochConfig cfg{2};

    std::vector<FlowPlan> flows;
    std::vector<RouterPlan> routers; ///< rows*cols, row-major

    int windows = 1;         ///< TDM windows per super-epoch (K)
    Tick routerLatency = 0;  ///< every in->out traversal, slot multiple
    Tick linkLatency = 0;    ///< every mesh link, slot multiple
    Tick maxFlowLatency = 0; ///< D: the grid's worst route latency
    Tick windowPitch = 0;    ///< window period: epoch + D guard band
    Tick computeStart = 0;   ///< tiles finish computing before this
    Tick horizon = 0;        ///< run() end time covering every arrival

    int tiles() const { return spec.rows * spec.cols; }
    int routerAt(int row, int col) const
    {
        return row * spec.cols + col;
    }

    /** Sink tiles, ascending: the observation row order. */
    std::vector<int> sinkTiles() const;

    /** Injector trigger time of @p flow (window start, phase-advanced). */
    Tick triggerTime(int flow) const;

    /**
     * Remaining latency from the OUTPUT of route hop @p hop of @p flow
     * to its sink -- the phase algebra behind demux select times and
     * the functional mirror's shift-free unions.
     */
    Tick remainingAfter(int flow, int hop) const;
};

/**
 * Place a grid: routes (XY dimension order), per-router structure,
 * slot-aligned latency budget, TDM coloring.  fatal() on an invalid
 * spec -- gate with GridSpec::validate first when the input is
 * untrusted.
 */
GridPlan planGrid(const GridSpec &spec);

/** Every tile below row 0 streams to its column head -- a FIR bank. */
std::vector<FlowSpec> columnCollectFlows(int rows, int cols);

/** Every other tile streams to @p dst -- dot-product tiling traffic. */
std::vector<FlowSpec> hotspotFlows(int rows, int cols, int dst);

/** Flit-for-flit observables both engines must agree on. */
struct FabricObservation
{
    /** Tile ids of the sinks, ascending (sinkTiles()). */
    std::vector<int> sinks;

    /** Delivered pulse count per sink per TDM window. */
    std::vector<std::vector<std::uint64_t>> sinkWindowCounts;

    /** Collision-ledger total per router (rows*cols, row-major). */
    std::vector<std::uint64_t> routerCollisions;

    /**
     * Post-merger occupancy of every router output per TDM window:
     * index (router * kDirCount + dir) * windows + window, sized
     * routers * kDirCount * windows, zero where no flow crosses.  The
     * pulse engine counts these with zero-JJ output taps (NocTap); the
     * functional mirror computes the same slot unions -- part of the
     * flit-for-flit equality contract like everything else here.
     */
    std::vector<std::uint64_t> outputWindowPulses;

    std::uint64_t delivered = 0;
    std::uint64_t collisions = 0;

    bool operator==(const FabricObservation &other) const = default;
};

/** Order-sensitive FNV-1a fingerprint of an observation. */
std::uint64_t observationDigest(const FabricObservation &obs);

/** Hierarchy label of @p router ("r<row>_<col>"), the stats-path and
 *  netlist name of the router alike. */
std::string routerLabel(const GridSpec &spec, int router);

/** Wall-clock-free window timetable entry of one router output. */
struct OutputWindowBase
{
    Tick start = 0; ///< arrival time of slot 0 of @p window here
    int window = 0;
};

/**
 * The window timetable of every router output channel (index router *
 * kDirCount + dir, empty where no flow crosses): for each TDM window
 * routed through that output, when its slot-0 pulse passes -- derived
 * purely from the plan's phase algebra (sink base minus the remaining
 * route latency), ascending in start.  Flows sharing a channel and
 * window share one route suffix, so the entry is unique; fatal() if
 * the algebra ever disagrees.
 */
std::vector<std::vector<OutputWindowBase>>
outputWindowBases(const GridPlan &plan);

/**
 * Delivered fraction of the fabric's scheduled window capacity:
 * delivered / (nmax * #(sink, window) pairs carrying any flow).
 */
double windowUtilization(const GridPlan &plan,
                         const FabricObservation &obs);

/**
 * Fabric telemetry summed over epochs in flat counters, under names
 * fixed per plan ("<prefix>/r<row>_<col>/out_<dir>/w<k>",
 * ".../out_<dir>/link_pulses" for mesh outputs, ".../collisions" per
 * used router, and the "<prefix>/fabric/..." rollups including the
 * window_utilization high-water gauge).  accumulate() adds one
 * observation; exportTo() registers the totals.  Counters add and the
 * gauge keeps the max, so the export equals per-epoch exports merged
 * in any order -- a sweep accumulates per worker, merges the workers
 * and exports once.  Names depend only on the plan, values only on the
 * observations, so the export is identical for both engines --
 * extending the flit-for-flit differential contract to telemetry.
 */
class FabricTelemetry
{
  public:
    explicit FabricTelemetry(const GridPlan &plan,
                             const std::string &prefix = "noc");

    void accumulate(const FabricObservation &obs);

    /** Fold another accumulator of the same plan and prefix in. */
    void mergeFrom(const FabricTelemetry &other);

    /** Add the totals to @p reg (nothing when no epoch accumulated). */
    void exportTo(obs::StatsRegistry &reg) const;

  private:
    /** counters[counter] += outputWindowPulses[pulses] (and links). */
    struct WindowTerm
    {
        std::size_t counter;
        std::size_t link; ///< link_pulses counter, or npos for Local
        std::size_t pulses;
    };

    std::vector<std::string> names; ///< counter names, table order
    std::vector<std::uint64_t> counters;
    std::vector<std::pair<std::size_t, std::size_t>>
        collisionTerms; ///< (counter, router)
    std::vector<WindowTerm> windowTerms;
    std::size_t delivered = 0; ///< counter index
    std::size_t collisions = 0;
    std::string utilizationName;
    double capacity = 0.0; ///< windowUtilization's denominator
    double utilization = 0.0;
    std::uint64_t epochs = 0;
};

/** One observation's telemetry: FabricTelemetry, accumulate, export. */
void exportFabricTelemetry(const GridPlan &plan,
                           const FabricObservation &obs,
                           obs::StatsRegistry &reg,
                           const std::string &prefix = "noc");

/**
 * Seeded per-tile operands, identical in both engines: `taps` stream
 * counts and RL ids per tile, drawn tile-major from Rng(seed).  (PE
 * tiles consume the first three values; the draw shape is the same so
 * the operand schedule is independent of the tile kind.)
 */
struct TileOperands
{
    std::vector<int> streams; ///< tiles x taps, tile-major
    std::vector<int> ids;     ///< tiles x taps, tile-major
};

TileOperands drawTileOperands(const GridPlan &plan, std::uint64_t seed);

/**
 * Closed-form JJ area of the fabric itself (routers + links; tiles,
 * injectors and sinks excluded), matching the pulse netlist exactly --
 * noc_test pins netlist totals against it.
 */
long long fabricJJs(const GridPlan &plan);

} // namespace usfq::noc

#endif // USFQ_NOC_PLAN_HH
