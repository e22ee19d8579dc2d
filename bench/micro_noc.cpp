/**
 * @file
 * google-benchmark micro benches of the temporal NoC (src/noc/):
 * plan placement cost, pulse-level fabric evaluation throughput, and
 * the stream-level functional mirror -- the fabric-scale twin of
 * micro_func's component-level numbers.
 */

#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench_gbench.hh"
#include "func/noc.hh"
#include "noc/grid.hh"
#include "noc/plan.hh"

using namespace usfq;

namespace
{

noc::GridSpec
meshSpec(int rowsCols)
{
    noc::GridSpec spec;
    spec.rows = rowsCols;
    spec.cols = rowsCols;
    spec.kind = noc::TileKind::Dpu;
    spec.taps = 2;
    spec.bits = 4;
    spec.mode = DpuMode::Bipolar;
    spec.flows = noc::columnCollectFlows(rowsCols, rowsCols);
    return spec;
}

void
BM_NocPlanGrid(benchmark::State &state)
{
    const noc::GridSpec spec =
        meshSpec(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        noc::GridPlan plan = noc::planGrid(spec);
        benchmark::DoNotOptimize(plan.maxFlowLatency);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NocPlanGrid)->Arg(4)->Arg(8);

void
BM_NocPulseFabric(benchmark::State &state)
{
    const noc::GridPlan plan =
        noc::planGrid(meshSpec(static_cast<int>(state.range(0))));
    std::uint64_t seed = 1;
    for (auto _ : state) {
        const noc::PulseFabricResult res =
            noc::runPulseFabric(plan, seed++);
        benchmark::DoNotOptimize(res.obs.delivered);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NocPulseFabric)->Arg(2)->Arg(4);

void
BM_NocFunctionalFabric(benchmark::State &state)
{
    const noc::GridPlan plan =
        noc::planGrid(meshSpec(static_cast<int>(state.range(0))));
    std::uint64_t seed = 1;
    for (auto _ : state) {
        const noc::FabricObservation obs =
            func::evaluateFabricSeed(plan, seed++);
        benchmark::DoNotOptimize(obs.delivered);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NocFunctionalFabric)->Arg(4)->Arg(8);

} // namespace

int
main(int argc, char **argv)
{
    return bench::gbenchMain("micro_noc", argc, argv);
}
