/**
 * @file
 * NoC figure: dot-product tiling traffic (docs/noc.md).  Every tile
 * except the center streams its partial dot product to the center
 * tile -- the all-to-one reduction of a tiled DPU -- with the flows
 * sharing one TDM window per sink (GridSpec::sharedSinkWindows), so
 * their streams union in the router merger trees and same-slot flits
 * collide.
 *
 * That arbitration loss is the point of the figure: the per-router
 * collision ledger accounts every dropped flit exactly (delivered +
 * ledgered == injected on both engines, flit for flit), which is what
 * lets the temporal fabric skip per-packet buffering and arbitration
 * logic entirely -- the area story of the paper carried to the
 * interconnect.
 */

#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench_common.hh"
#include "func/noc.hh"
#include "noc/grid.hh"
#include "noc/plan.hh"
#include "noc/sta.hh"
#include "sim/backend.hh"
#include "sim/netlist.hh"
#include "util/table.hh"

using namespace usfq;

namespace
{

noc::GridSpec
tilingSpec(int rows, int cols)
{
    noc::GridSpec spec;
    spec.rows = rows;
    spec.cols = cols;
    spec.kind = noc::TileKind::Dpu;
    spec.taps = 2;
    spec.bits = 4;
    spec.mode = DpuMode::Unipolar;
    const int center = (rows / 2) * cols + cols / 2;
    spec.flows = noc::hotspotFlows(rows, cols, center);
    spec.sharedSinkWindows = true;
    return spec;
}

constexpr std::uint64_t kSeed = 0xd07;

int
runBackend(Backend backend, const bench::BenchArgs &args)
{
    bench::Artifact artifact("fig_noc_dot_tiling", args, backend);

    Table table(std::string("Dot tiling hotspot (") +
                    backendName(backend) + " backend)",
                {"Mesh", "Flows", "Injected", "Delivered", "Ledgered",
                 "Loss %"});

    int lastRows = 0;
    int lastCols = 0;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const auto &[rows, cols] : {std::pair{3, 3}, std::pair{5, 5}}) {
        const noc::GridPlan plan = noc::planGrid(tilingSpec(rows, cols));
        const noc::FabricObservation reference =
            func::evaluateFabricSeed(plan, kSeed);

        noc::FabricObservation obs;
        if (backend == Backend::PulseLevel) {
            Netlist nl("noc");
            noc::TileGrid grid(nl, plan);
            grid.programOperands(noc::drawTileOperands(plan, kSeed));
            nl.elaborate(); // fatal on unwaived findings
            noc::analyzeFabric(nl, grid); // fatal on timing findings
            nl.run(plan.horizon);
            obs = grid.observe();
            if (obs != reference) {
                std::cerr << "FAIL: pulse fabric diverges from the "
                             "functional mirror at "
                          << rows << "x" << cols << "\n";
                return 1;
            }
        } else {
            obs = reference;
        }

        // Ledger conservation: every injected flit either arrives or
        // is accounted by exactly one router's collision counter.
        std::uint64_t injected = 0;
        for (int c : func::nocTileCounts(
                 plan, noc::drawTileOperands(plan, kSeed)))
            injected += static_cast<std::uint64_t>(c);
        if (obs.delivered + obs.collisions != injected) {
            std::cerr << "FAIL: delivered (" << obs.delivered
                      << ") + ledgered (" << obs.collisions
                      << ") != injected (" << injected << ")\n";
            return 1;
        }

        const double lossPct =
            injected > 0 ? 100.0 * static_cast<double>(obs.collisions) /
                               static_cast<double>(injected)
                         : 0.0;
        table.row()
            .cell(std::to_string(rows) + "x" + std::to_string(cols))
            .cell(static_cast<std::int64_t>(plan.flows.size()))
            .cell(static_cast<std::int64_t>(injected))
            .cell(static_cast<std::int64_t>(obs.delivered))
            .cell(static_cast<std::int64_t>(obs.collisions))
            .cell(lossPct, 1);
        lastRows = rows;
        lastCols = cols;
        digest = (digest ^ noc::observationDigest(obs)) *
                 0x100000001b3ULL;
        artifact.metric("ledgered_" + std::to_string(rows) + "x" +
                            std::to_string(cols),
                        static_cast<double>(obs.collisions), "pulses");
        artifact.metric("loss_pct_" + std::to_string(rows) + "x" +
                            std::to_string(cols),
                        lossPct, "%");
    }
    table.print(std::cout);

    // Headline geometry of the largest mesh swept (json_lint requires
    // these on every BENCH_fig_noc_* artifact).
    artifact.metric("grid_rows", lastRows);
    artifact.metric("grid_cols", lastCols);
    artifact.metric("tiles", lastRows * lastCols);
    artifact.note("traffic", "all-to-one hotspot (dot tiling), "
                             "shared sink window");
    // Fingerprint of everything both engines observed, identical on
    // the pulse and functional legs (obs == reference is asserted
    // above) -- json_lint cross-checks the pair, bench_diff gates it
    // against the committed baseline.
    std::ostringstream hex;
    hex << std::hex << std::setfill('0') << std::setw(16) << digest;
    artifact.note("result_digest", hex.str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::BenchArgs::parse(&argc, argv);
    bench::banner(
        "NoC figure: dot-product tiling hotspot",
        "shared-window flows arbitrate in the merger trees; the "
        "router collision ledger accounts every lost flit exactly");

    for (Backend backend : args.backends()) {
        const int rc = runBackend(backend, args);
        if (rc != 0)
            return rc;
    }

    std::cout << "\nledger check: delivered + ledgered == injected on "
                 "every mesh, on every backend; the pulse fabric "
                 "matches the functional mirror flit for flit.\n";
    return 0;
}
