/**
 * @file
 * NoC figure: a FIR bank on the temporal mesh (docs/noc.md).  Every
 * tile below row 0 computes one FIR step (a tap-window dot product on
 * DPU hardware) and streams its result flit up its column to the row-0
 * collector -- the column-collect traffic pattern of a filter bank
 * tiled across the fabric.
 *
 * The TDM schedule gives every column-sharing flow its own window, so
 * the fabric is collision-free by construction: the bench asserts a
 * zero ledger, full delivery (delivered == sum of injected counts),
 * exact pulse-vs-functional agreement on the pulse leg, lint-clean
 * elaboration, a passing fabric STA (runStaChecked semantics), and
 * the closed-form fabric area against the built netlist.
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
bankSpec(int rows, int cols)
{
    noc::GridSpec spec;
    spec.rows = rows;
    spec.cols = cols;
    spec.kind = noc::TileKind::Fir;
    spec.taps = 4;
    spec.bits = 4;
    spec.mode = DpuMode::Unipolar;
    spec.flows = noc::columnCollectFlows(rows, cols);
    return spec;
}

constexpr std::uint64_t kSeed = 0xf1b;

int
runBackend(Backend backend, const bench::BenchArgs &args)
{
    bench::Artifact artifact("fig_noc_fir_bank", args, backend);

    Table table(std::string("FIR bank mesh (") + backendName(backend) +
                    " backend)",
                {"Mesh", "Flows", "Delivered", "Collisions",
                 "Fabric JJ", "Route rate (GHz)"});

    int lastRows = 0;
    int lastCols = 0;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const auto &[rows, cols] : {std::pair{4, 4}, std::pair{8, 8}}) {
        const noc::GridPlan plan = noc::planGrid(bankSpec(rows, cols));
        const noc::FabricObservation reference =
            func::evaluateFabricSeed(plan, kSeed);

        noc::FabricObservation obs;
        double routeRateGhz = 0.0;
        if (backend == Backend::PulseLevel) {
            Netlist nl("noc");
            noc::TileGrid grid(nl, plan);
            grid.programOperands(noc::drawTileOperands(plan, kSeed));
            nl.elaborate(); // fatal on unwaived findings

            // Fabric STA: fatal on any unwaived timing finding, and
            // the critical route must support a nonzero flit rate.
            const noc::FabricStaReport sta =
                noc::analyzeFabric(nl, grid);
            routeRateGhz = sta.maxRouteRateHz() / 1e9;
            if (sta.criticalFlow >= 0)
                std::cout << "  critical route: "
                          << noc::describeRoute(plan, sta.criticalFlow)
                          << "\n";

            nl.run(plan.horizon);
            obs = grid.observe();

            // The two engines must agree flit for flit -- counts AND
            // per-router collision ledgers.
            if (obs != reference) {
                std::cerr << "FAIL: pulse fabric diverges from the "
                             "functional mirror at "
                          << rows << "x" << cols << "\n";
                return 1;
            }

            // Closed-form fabric area == the cells the netlist built.
            const HierReport rollup = nl.report();
            long long fabric = 0;
            for (const auto &node : rollup.root.children)
                if (!node.name.empty() && node.name[0] == 'r')
                    fabric += node.jj;
            if (fabric != noc::fabricJJs(plan)) {
                std::cerr << "FAIL: fabric JJ rollup (" << fabric
                          << ") != closed form ("
                          << noc::fabricJJs(plan) << ")\n";
                return 1;
            }
            if (rows == 4) {
                std::cout << "Hierarchical JJ rollup (4x4, top "
                             "level):\n";
                rollup.print(std::cout, 1);
                std::cout << "\n";
            }
        } else {
            obs = reference;
            // No netlist to run STA over: report the schedule-level
            // rate instead (one flit window per pitch, Tick = fs).
            routeRateGhz = 1e6 / static_cast<double>(plan.windowPitch);
        }

        // Collision-free contract of the per-column TDM schedule.
        if (obs.collisions != 0) {
            std::cerr << "FAIL: column-collect schedule ledgered "
                      << obs.collisions << " collisions\n";
            return 1;
        }
        std::uint64_t injected = 0;
        for (int c : func::nocTileCounts(
                 plan, noc::drawTileOperands(plan, kSeed)))
            injected += static_cast<std::uint64_t>(c);
        if (obs.delivered != injected) {
            std::cerr << "FAIL: delivered (" << obs.delivered
                      << ") != injected (" << injected << ")\n";
            return 1;
        }

        table.row()
            .cell(std::to_string(rows) + "x" + std::to_string(cols))
            .cell(static_cast<std::int64_t>(plan.flows.size()))
            .cell(static_cast<std::int64_t>(obs.delivered))
            .cell(static_cast<std::int64_t>(obs.collisions))
            .cell(static_cast<std::int64_t>(noc::fabricJJs(plan)))
            .cell(routeRateGhz, 2);
        lastRows = rows;
        lastCols = cols;
        digest = (digest ^ noc::observationDigest(obs)) *
                 0x100000001b3ULL;
        artifact.metric("delivered_" + std::to_string(rows) + "x" +
                            std::to_string(cols),
                        static_cast<double>(obs.delivered), "pulses");
        artifact.metric("fabric_jj_" + std::to_string(rows) + "x" +
                            std::to_string(cols),
                        static_cast<double>(noc::fabricJJs(plan)),
                        "JJ");
    }
    table.print(std::cout);

    // Headline geometry of the largest mesh swept (json_lint requires
    // these on every BENCH_fig_noc_* artifact).
    artifact.metric("grid_rows", lastRows);
    artifact.metric("grid_cols", lastCols);
    artifact.metric("tiles", lastRows * lastCols);
    artifact.note("traffic", "column-collect (FIR bank)");
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
        "NoC figure: FIR bank on the temporal mesh",
        "column-collect flows are collision-free under per-flow TDM "
        "windows; fabric area is routers + links only");

    for (Backend backend : args.backends()) {
        const int rc = runBackend(backend, args);
        if (rc != 0)
            return rc;
    }

    std::cout << "\nledger check: zero collisions and full delivery "
                 "on every mesh, on every backend; the pulse fabric "
                 "matches the functional mirror flit for flit.\n";
    return 0;
}
