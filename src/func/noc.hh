/**
 * @file
 * Stream-level functional mirror of the temporal NoC (docs/noc.md).
 *
 * The plan's latency equalization puts every stream in the fabric on
 * one global slot grid with zero relative shift inside a TDM window
 * (noc/plan.hh), so the entire pulse-level fabric reduces to counting
 * algebra over Euclidean slot bitmaps:
 *
 *  - a sink's per-window delivery is the slot union of the counts of
 *    the flows sharing that (sink, window) -- mergerTreeUnionCount;
 *  - a router's collision ledger is, per output and window, the sum of
 *    its per-input stream sizes minus their overall union (union loss
 *    is associative over the merger-tree topology).
 *
 * Tile results come from the counting kernels of core/encoding.hh
 * (exact for DPU / FIR-step counts; the PE injects exactly one result
 * pulse, so its count is exact too even though its slot is +/-1).
 * The differential tier (tests/noc_differential_test.cpp) locks all of
 * this to the pulse engine flit-for-flit.
 */

#ifndef USFQ_FUNC_NOC_HH
#define USFQ_FUNC_NOC_HH

#include <cstdint>
#include <vector>

#include "noc/plan.hh"

namespace usfq::func
{

/**
 * A plan's routing structure, flattened once (per sweep, not per
 * epoch): the source tiles sharing every (sink, window), and the ones
 * crossing every (router, output, window) channel grouped by router
 * input.  evaluateFabric walks these lists instead of re-deriving
 * them from the routes.
 */
struct FabricIndex
{
    explicit FabricIndex(const noc::GridPlan &plan);

    /** Flows delivered at one sink in one window. */
    struct SinkWindow
    {
        std::size_t sink = 0; ///< row of sinks / sinkWindowCounts
        int window = 0;
        std::vector<int> srcs; ///< source tiles, flow order
    };

    /** Flows leaving one router output in one window. */
    struct Channel
    {
        int router = 0;
        std::size_t slot = 0; ///< index into outputWindowPulses
        /** Source tiles per feeding router input, ascending input. */
        std::vector<std::vector<int>> inputs;
    };

    EpochConfig cfg;
    int windows = 1;
    std::size_t routers = 0;
    std::vector<int> sinks; ///< plan.sinkTiles()
    std::vector<SinkWindow> sinkWindows;
    std::vector<Channel> channels;
};

/**
 * Injected result count per tile (capped at nmax, as the injector
 * caps) for one operand draw; non-source tiles report 0.
 */
std::vector<int> nocTileCounts(const noc::GridPlan &plan,
                               const noc::TileOperands &ops);

/** Fabric counting algebra over per-tile injected counts. */
noc::FabricObservation evaluateFabric(const FabricIndex &index,
                                      const std::vector<int> &counts);

/** One full functional evaluation of a seeded epoch. */
noc::FabricObservation evaluateFabricSeed(const noc::GridPlan &plan,
                                          const FabricIndex &index,
                                          std::uint64_t seed);

/** evaluateFabricSeed on a plan indexed for this one call. */
noc::FabricObservation evaluateFabricSeed(const noc::GridPlan &plan,
                                          std::uint64_t seed);

} // namespace usfq::func

#endif // USFQ_FUNC_NOC_HH
