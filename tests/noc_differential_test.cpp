/**
 * @file
 * Temporal NoC differential tier (docs/noc.md): the pulse-level fabric
 * and the stream-level functional mirror locked together flit for flit
 * at fabric scale -- sink window counts AND per-router collision
 * ledgers -- plus the service-level identity contract: 1-vs-N sweep
 * threads and any batch setting give bit-identical facade checksums.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "api/facade.hh"
#include "api/spec.hh"
#include "func/noc.hh"
#include "noc/grid.hh"
#include "noc/plan.hh"
#include "noc/sta.hh"
#include "obs/stats.hh"
#include "sim/elaborate.hh"
#include "sim/netlist.hh"

namespace usfq
{
namespace
{

noc::GridSpec
meshSpec(int rows, int cols, bool shared, DpuMode mode)
{
    noc::GridSpec spec;
    spec.rows = rows;
    spec.cols = cols;
    spec.kind = noc::TileKind::Dpu;
    spec.taps = 2;
    spec.bits = 4;
    spec.mode = mode;
    spec.flows = noc::columnCollectFlows(rows, cols);
    spec.sharedSinkWindows = shared;
    return spec;
}

TEST(NocFabricDifferential, Mesh8x8ElaboratesAndPassesSta)
{
    const noc::GridPlan plan =
        noc::planGrid(meshSpec(8, 8, false, DpuMode::Bipolar));
    Netlist nl("noc");
    noc::TileGrid grid(nl, plan);
    grid.programOperands(noc::drawTileOperands(plan, 0xfab));
    const auto &lint = nl.elaborate();
    EXPECT_EQ(lint.errors(), 0u);

    // runStaChecked semantics: analyzeFabric fatals on any unwaived
    // finding, so reaching the assertions IS the pass.
    const noc::FabricStaReport rep = noc::analyzeFabric(nl, grid);
    EXPECT_EQ(rep.routes.size(), plan.flows.size());
    EXPECT_EQ(rep.criticalLatency, plan.maxFlowLatency);
    EXPECT_GT(rep.maxRouteRateHz(), 0.0);
}

TEST(NocFabricDifferential, Mesh8x8MatchesFlitForFlit)
{
    const noc::GridPlan plan =
        noc::planGrid(meshSpec(8, 8, false, DpuMode::Bipolar));
    for (std::uint64_t seed : {1ull, 0x5eedull}) {
        const noc::PulseFabricResult pulse =
            noc::runPulseFabric(plan, seed);
        EXPECT_EQ(pulse.latePulses, 0u);
        EXPECT_EQ(pulse.misaligned, 0u);

        const noc::FabricObservation func =
            func::evaluateFabricSeed(plan, seed);
        EXPECT_EQ(pulse.obs.sinkWindowCounts, func.sinkWindowCounts);
        EXPECT_EQ(pulse.obs.routerCollisions, func.routerCollisions);
        EXPECT_EQ(pulse.obs, func);
        EXPECT_EQ(noc::observationDigest(pulse.obs),
                  noc::observationDigest(func));
    }
}

TEST(NocFabricDifferential, SharedWindowLedgersMatch)
{
    noc::GridSpec spec = meshSpec(3, 3, true, DpuMode::Unipolar);
    spec.flows = noc::hotspotFlows(3, 3, /*dst=*/4);
    const noc::GridPlan plan = noc::planGrid(spec);

    bool sawCollisions = false;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const noc::PulseFabricResult pulse =
            noc::runPulseFabric(plan, seed);
        const noc::FabricObservation func =
            func::evaluateFabricSeed(plan, seed);
        EXPECT_EQ(pulse.obs, func) << "seed " << seed;
        sawCollisions = sawCollisions || pulse.obs.collisions > 0;
    }
    EXPECT_TRUE(sawCollisions); // arbitration genuinely engaged
}

TEST(NocFabricDifferential, TelemetryRegistriesMirrorExactly)
{
    // The telemetry rollup is part of the differential contract: both
    // engines' observations, exported through exportFabricTelemetry,
    // must produce byte-identical registries -- window occupancies,
    // link pulses, collision ledgers and the utilization gauge.
    const auto registryText = [](const noc::GridPlan &plan,
                                 const noc::FabricObservation &o) {
        obs::StatsRegistry reg;
        noc::exportFabricTelemetry(plan, o, reg);
        std::ostringstream os;
        reg.print(os);
        return os.str();
    };

    noc::GridSpec hotspot = meshSpec(3, 3, true, DpuMode::Unipolar);
    hotspot.flows = noc::hotspotFlows(3, 3, /*dst=*/4);
    const noc::GridPlan plans[] = {
        noc::planGrid(meshSpec(4, 4, false, DpuMode::Bipolar)),
        noc::planGrid(hotspot),
    };
    for (const noc::GridPlan &plan : plans) {
        for (std::uint64_t seed : {1ull, 0x7e1eull}) {
            const noc::PulseFabricResult pulse =
                noc::runPulseFabric(plan, seed);
            const noc::FabricObservation func =
                func::evaluateFabricSeed(plan, seed);
            const std::string fromPulse =
                registryText(plan, pulse.obs);
            const std::string fromFunc = registryText(plan, func);
            EXPECT_EQ(fromPulse, fromFunc) << "seed " << seed;
            EXPECT_NE(fromPulse.find("window_utilization"),
                      std::string::npos);
            EXPECT_NE(fromPulse.find("delivered"),
                      std::string::npos);
        }
    }
}

TEST(NocFabricDifferential, InjectedCountsMatchFunctionalTiles)
{
    const noc::GridPlan plan =
        noc::planGrid(meshSpec(4, 4, false, DpuMode::Bipolar));
    const noc::TileOperands ops = noc::drawTileOperands(plan, 42);

    Netlist nl("noc");
    noc::TileGrid grid(nl, plan);
    grid.programOperands(ops);
    nl.elaborate();
    nl.run(plan.horizon);

    EXPECT_EQ(grid.injectedCounts(), func::nocTileCounts(plan, ops));
}

api::NetlistSpec
nocApiSpec(int rows, int cols)
{
    api::NetlistSpec spec;
    spec.kind = api::WorkloadKind::NocMesh;
    spec.name = "mesh";
    spec.gridRows = rows;
    spec.gridCols = cols;
    spec.taps = 2;
    spec.bits = 4;
    spec.mode = DpuMode::Bipolar;
    return spec;
}

TEST(NocFabricDifferential, BackendsAgreeThroughTheFacade)
{
    const api::NetlistSpec spec = nocApiSpec(4, 4);
    api::RunParams params;
    params.epochs = 6;

    params.backend = Backend::Functional;
    const api::RunResult func = api::runWorkload(spec, params);
    params.backend = Backend::PulseLevel;
    const api::RunResult pulse = api::runWorkload(spec, params);

    EXPECT_EQ(func.counts, pulse.counts);
    EXPECT_EQ(func.checksum, pulse.checksum);
    EXPECT_EQ(func.totalJJ, pulse.totalJJ);
}

TEST(NocFabricDifferential, SweepThreadsAndBatchAreBitIdentical)
{
    const api::NetlistSpec spec = nocApiSpec(8, 8);
    api::RunParams params;
    params.backend = Backend::Functional;
    params.epochs = 12;

    params.threads = 1;
    const api::RunResult one = api::runWorkload(spec, params);
    params.threads = 4;
    const api::RunResult four = api::runWorkload(spec, params);
    EXPECT_EQ(one.counts, four.counts);
    EXPECT_EQ(one.checksum, four.checksum);

    params.threads = 1;
    params.batch = 8;
    const api::RunResult wide = api::runWorkload(spec, params);
    EXPECT_EQ(one.counts, wide.counts);
    EXPECT_EQ(one.checksum, wide.checksum);
}

} // namespace
} // namespace usfq
