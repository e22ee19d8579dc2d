/**
 * @file
 * google-benchmark micro benches of the static timing engine
 * (src/sta/): graph build + window propagation on linear chains,
 * margin checking on a wide DFF capture grid, and the jitter
 * Monte-Carlo driver (each timing netlist build, elaboration and STA
 * together), plus the per-layer figures of the design-space compiler
 * on one generated datapath: netlist build and elaboration (us per
 * component), runSta alone (ns per edge), and gen::balanceDesign over
 * a fixed spec list (us per spec).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_gbench.hh"
#include "gen/balance.hh"
#include "gen/datapath.hh"
#include "gen/spec.hh"
#include "sfq/cells.hh"
#include "sfq/sources.hh"
#include "sim/netlist.hh"
#include "sta/monte_carlo.hh"
#include "sta/sta.hh"

using namespace usfq;

namespace
{

/**
 * Clock grid with @p sinks DFF capture sites hung off a linear
 * splitter spine; every sink has its own data/clock JTL pair, so the
 * check pass has one genuine setup/hold margin per sink.
 */
void
buildCaptureGrid(Netlist &nl, int sinks)
{
    auto &clk = nl.create<ClockSource>("clk");
    OutputPort *spine = &clk.out;
    for (int i = 0; i < sinks; ++i) {
        const std::string n = std::to_string(i);
        auto &hub = nl.create<Splitter>("hub" + n);
        auto &sink = nl.create<Splitter>("sink" + n);
        auto &jd = nl.create<Jtl>("jd" + n);
        auto &jc = nl.create<Jtl>("jc" + n);
        auto &ff = nl.create<Dff>("ff" + n);
        spine->connect(hub.in);
        hub.out1.connect(sink.in);
        sink.out1.connect(jd.in);
        sink.out2.connect(jc.in);
        jd.out.connect(ff.d);
        jc.out.connect(ff.clk, 4 * kPicosecond);
        ff.q.markOpen("bench endpoint");
        spine = &hub.out2;
    }
    spine->markOpen("spine tail");
    clk.program(0, 200 * kPicosecond, 32);
}

void
BM_StaJtlChain(benchmark::State &state)
{
    const int length = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Netlist nl;
        auto &src = nl.create<PulseSource>("s");
        OutputPort *prev = &src.out;
        for (int i = 0; i < length; ++i) {
            auto &j = nl.create<Jtl>(indexedName("j", i));
            prev->connect(j.in);
            prev = &j.out;
        }
        prev->markOpen("bench endpoint");
        src.pulseAt(0);
        src.pulseAt(20 * kPicosecond);
        const StaReport report = runSta(nl);
        benchmark::DoNotOptimize(report.criticalPath.length);
    }
    state.SetItemsProcessed(state.iterations() * length);
}
BENCHMARK(BM_StaJtlChain)->Arg(64)->Arg(1024);

void
BM_StaCaptureGrid(benchmark::State &state)
{
    const int sinks = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Netlist nl;
        buildCaptureGrid(nl, sinks);
        const StaReport report = runSta(nl);
        benchmark::DoNotOptimize(report.worstSlack);
    }
    state.SetItemsProcessed(state.iterations() * sinks);
}
BENCHMARK(BM_StaCaptureGrid)->Arg(16)->Arg(256);

void
BM_StaJitterMonteCarlo(benchmark::State &state)
{
    StaJitterOptions opts;
    opts.trials = static_cast<std::size_t>(state.range(0));
    opts.amplitude = 2 * kPicosecond;
    for (auto _ : state) {
        const StaJitterStats stats = runStaJitter(
            [](Netlist &nl) { buildCaptureGrid(nl, 8); }, opts);
        benchmark::DoNotOptimize(stats.passes);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StaJitterMonteCarlo)->Arg(16)->Arg(64);

/**
 * The balanced 16-lane generated datapath the compile-layer benches
 * below share: the spec and its padding plan, balanced once.
 */
struct GenDesign
{
    gen::DesignSpec spec;
    gen::BalanceOutcome bo;

    GenDesign()
    {
        spec.lanes = 16;
        spec.bits = 4;
        spec.clockPeriodPs = 20;
        spec.tree = gen::TreeKind::Merger;
        spec.shape = gen::LaneShape::Random;
        spec.maxDividers = 2;
        spec.skewStep = 2;
        bo = gen::balanceDesign(spec);
    }

    /** Build (not elaborate) the datapath into a fresh netlist. */
    std::unique_ptr<Netlist>
    build() const
    {
        auto nl = std::make_unique<Netlist>("gen");
        auto &dp = nl->create<gen::StreamDatapath>("dp", spec, bo.plan);
        dp.programEpoch({spec.nmax(), {}});
        return nl;
    }
};

const GenDesign &
genDesign(benchmark::State &state)
{
    static const GenDesign design;
    if (!design.bo.converged())
        state.SkipWithError(design.bo.detail.c_str());
    return design;
}

/**
 * Netlist build of the generated datapath, construction through
 * teardown (the build layer of a design-space compile).  Items are
 * components: 1e6 / items_per_second is us per component.
 */
void
BM_BuildGenDatapath(benchmark::State &state)
{
    const GenDesign &design = genDesign(state);
    if (state.error_occurred())
        return;
    const std::size_t comps = design.build()->graphComponents().size();
    for (auto _ : state)
        benchmark::DoNotOptimize(design.build());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(comps));
}
BENCHMARK(BM_BuildGenDatapath);

/**
 * Netlist::elaborate alone (lint and edge packing) on a freshly built
 * generated datapath; building and tearing down each netlist is not
 * timed.  Items are components: 1e6 / items_per_second is us per
 * component.
 */
void
BM_ElaborateGenDatapath(benchmark::State &state)
{
    const GenDesign &design = genDesign(state);
    if (state.error_occurred())
        return;
    std::unique_ptr<Netlist> nl;
    std::size_t comps = 0;
    for (auto _ : state) {
        state.PauseTiming();
        nl = design.build(); // tears down the previous iteration's
        state.ResumeTiming();
        comps = nl->elaborate().numComponents;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(comps));
}
BENCHMARK(BM_ElaborateGenDatapath);

/**
 * runSta alone, re-run on the pre-built, elaborated and balanced
 * generated datapath under genStaOptions (the STA layer of a
 * design-space compile).  Items are graph edges: 1e9 / items_per_second
 * is ns per edge.
 */
void
BM_StaGenDatapath(benchmark::State &state)
{
    const GenDesign &design = genDesign(state);
    if (state.error_occurred())
        return;
    const std::unique_ptr<Netlist> nl = design.build();
    nl->elaborate();
    const StaOptions opts = gen::genStaOptions(design.spec);
    std::size_t edges = 0;
    for (auto _ : state) {
        const StaReport report = runSta(*nl, opts);
        edges = report.numEdges;
        benchmark::DoNotOptimize(report.worstSlack);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_StaGenDatapath);

/**
 * gen::balanceDesign over a fixed list of 54 feasible specs: 4 and 16
 * lanes x every tree kind x every lane shape x the three
 * encoding/balancing styles of the fig20 grid.  Items are specs.
 */
void
BM_BalanceDesign(benchmark::State &state)
{
    std::vector<gen::DesignSpec> specs;
    for (int lanes : {4, 16})
        for (gen::TreeKind tree :
             {gen::TreeKind::Balancer, gen::TreeKind::Merger,
              gen::TreeKind::Tff2})
            for (gen::LaneShape shape :
                 {gen::LaneShape::Balanced, gen::LaneShape::Skewed,
                  gen::LaneShape::Random})
                for (int style = 0; style < 3; ++style) {
                    gen::DesignSpec s;
                    s.lanes = lanes;
                    s.bits = 4;
                    s.clockPeriodPs = 24;
                    s.tree = tree;
                    s.shape = shape;
                    s.encoding = style == 2
                                     ? gen::StreamEncoding::Bipolar
                                     : gen::StreamEncoding::Unipolar;
                    s.balance = style == 1 ? gen::BalanceStyle::Register
                                           : gen::BalanceStyle::Jtl;
                    s.maxDividers = 2;
                    s.skewStep = 2;
                    s.shapeSeed = 0x5eedULL + specs.size();
                    specs.push_back(s);
                }
    for (const gen::DesignSpec &s : specs) {
        if (const gen::BalanceOutcome bo = gen::balanceDesign(s);
            !bo.converged()) {
            state.SkipWithError(bo.detail.c_str());
            return;
        }
    }
    for (auto _ : state)
        for (const gen::DesignSpec &s : specs)
            benchmark::DoNotOptimize(gen::balanceDesign(s).insertedJJ);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(specs.size()));
}
BENCHMARK(BM_BalanceDesign);

} // namespace

int
main(int argc, char **argv)
{
    return bench::gbenchMain("micro_sta", argc, argv);
}
