/**
 * @file
 * google-benchmark micro benches of the functional engine (the
 * counting kernels of core/encoding.hh, the PulseStream bitmap oracle
 * and whole api::runWorkload legs), plus a measured head-to-head
 * against the pulse-level event kernel on the identical workload.
 *
 * The headline artifact metric is speedup_vs_pulse_dpu8: wall-clock
 * ratio of the pulse-level BM_DpuEpochPulseLevel/8 workload
 * (micro_simkernel.cpp) to the same epoch evaluated by the DPU
 * counting kernel (dpuExpectedCount).  The bench FAILS (exit 1) if the
 * functional engine is less than 50x faster -- that floor is the
 * reason the backend exists (docs/functional.md).
 *
 * BM_RunWorkload/<leg> times whole api::runWorkload calls from
 * precomputed design facts: every functional serve_fresh template
 * shape of perfbench (dpu16 at batch 1 and 8, dpu8u, pe5, fir4 at
 * batch 1 and 4 -- batch selects nothing, so each pair reads alike --
 * the functional NoC and gen8x5's slot mirror), and the pulse-level
 * DPU, gen and NoC rigs; items are epochs, so 1e9 / items_per_second
 * is the leg's ns per epoch.
 *
 * BM_ResultToJson/<template> times api::resultToJson -- the broker's
 * serialize step -- on a precomputed result of a serve_fresh-sized
 * request; items are per-epoch counts, so 1e9 / items_per_second is
 * ns per serialized count.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "api/facade.hh"
#include "api/spec.hh"
#include "bench_gbench.hh"
#include "core/dpu.hh"
#include "core/encoding.hh"
#include "func/stream.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"
#include "sfq/sources.hh"

using namespace usfq;

namespace
{

/** The BM_DpuEpochPulseLevel workload: one epoch, netlist-in-loop. */
std::size_t
pulseDpuEpoch(int length, const EpochConfig &cfg)
{
    Netlist nl;
    auto &dpu =
        nl.create<DotProductUnit>("dpu", length, DpuMode::Unipolar);
    auto &e = nl.create<PulseSource>("e");
    PulseTrace out;
    e.out.connect(dpu.epochIn());
    dpu.out().connect(out.input());
    e.pulseAt(0);
    for (int i = 0; i < length; ++i) {
        auto &r = nl.create<PulseSource>(indexedName("a", i));
        auto &s = nl.create<PulseSource>(indexedName("b", i));
        r.out.connect(dpu.rlIn(i));
        s.out.connect(dpu.streamIn(i));
        r.pulseAt(20 * kPicosecond + cfg.rlTime(cfg.nmax() / 2));
        s.pulsesAt(cfg.streamTimes(cfg.nmax() / 2));
    }
    nl.run();
    return out.count();
}

/** The same epoch on the functional backend: one kernel call. */
int
funcDpuEpoch(int length, const EpochConfig &cfg)
{
    const std::vector<int> streams(static_cast<std::size_t>(length),
                                   cfg.nmax() / 2);
    const std::vector<int> rls(static_cast<std::size_t>(length),
                               cfg.nmax() / 2);
    return dpuExpectedCount(cfg, DpuMode::Unipolar, streams, rls);
}

void
BM_DpuEpochFunctional(benchmark::State &state)
{
    const int length = static_cast<int>(state.range(0));
    const EpochConfig cfg(6, 40 * kPicosecond);
    for (auto _ : state)
        benchmark::DoNotOptimize(funcDpuEpoch(length, cfg));
    state.SetItemsProcessed(state.iterations() * length);
}
BENCHMARK(BM_DpuEpochFunctional)->Arg(8)->Arg(32);

void
BM_PulseStreamProduct(benchmark::State &state)
{
    // Packed-bitstream mode: a full bipolar product on the slot grid.
    const EpochConfig cfg(static_cast<int>(state.range(0)));
    const auto a = func::PulseStream::euclidean(cfg, cfg.nmax() / 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            func::bipolarProductStream(a, cfg.nmax() / 2).count());
}
BENCHMARK(BM_PulseStreamProduct)->Arg(6)->Arg(10)->Arg(14);

/** One runWorkload leg: a usfq_serve-sized spec on one engine. */
struct WorkloadLeg
{
    const char *name;
    api::NetlistSpec spec;
    api::RunParams params;
};

api::NetlistSpec
legSpec(api::WorkloadKind kind, int taps, int bits, DpuMode mode)
{
    api::NetlistSpec spec;
    spec.kind = kind;
    spec.name = "leg";
    spec.taps = taps;
    spec.bits = bits;
    spec.mode = mode;
    return spec;
}

api::RunParams
legParams(Backend backend, int epochs, int batch)
{
    api::RunParams params;
    params.backend = backend;
    params.epochs = epochs;
    params.batch = batch;
    params.threads = 1;
    return params;
}

std::vector<WorkloadLeg>
workloadLegs()
{
    using K = api::WorkloadKind;
    const auto F = Backend::Functional;
    const auto P = Backend::PulseLevel;
    api::NetlistSpec mesh4 = legSpec(K::NocMesh, 2, 4, DpuMode::Bipolar);
    mesh4.gridRows = mesh4.gridCols = 4;
    api::NetlistSpec mesh2 = mesh4;
    mesh2.gridRows = mesh2.gridCols = 2;
    api::NetlistSpec gen4 = legSpec(K::Gen, 16, 8, DpuMode::Bipolar);
    gen4.gen.lanes = 4;
    gen4.gen.bits = 4;
    gen4.gen.clockPeriodPs = 24;
    gen4.gen.tree = gen::TreeKind::Balancer;
    gen4.gen.shape = gen::LaneShape::Skewed;
    api::NetlistSpec gen8 = gen4;
    gen8.gen.lanes = 8;
    gen8.gen.bits = 5;
    gen8.gen.clockPeriodPs = 20;
    gen8.gen.tree = gen::TreeKind::Merger;
    return {
        {"dpu16", legSpec(K::Dpu, 16, 6, DpuMode::Bipolar),
         legParams(F, 256, 1)},
        {"dpu16_batch8", legSpec(K::Dpu, 16, 6, DpuMode::Bipolar),
         legParams(F, 256, 8)},
        {"dpu8u", legSpec(K::Dpu, 8, 5, DpuMode::Unipolar),
         legParams(F, 256, 1)},
        {"pe5", legSpec(K::Pe, 16, 5, DpuMode::Bipolar),
         legParams(F, 256, 1)},
        {"fir4", legSpec(K::Fir, 4, 6, DpuMode::Unipolar),
         legParams(F, 256, 1)},
        {"fir4_batch4", legSpec(K::Fir, 4, 6, DpuMode::Unipolar),
         legParams(F, 256, 4)},
        {"noc4x4", mesh4, legParams(F, 32, 1)},
        {"gen8x5", gen8, legParams(F, 256, 1)},
        {"pulse_dpu4", legSpec(K::Dpu, 4, 4, DpuMode::Bipolar),
         legParams(P, 16, 1)},
        {"pulse_gen4x4", gen4, legParams(P, 16, 1)},
        {"pulse_noc2x2", mesh2, legParams(P, 8, 1)},
    };
}

/** Whole runWorkload calls of one leg, from precomputed facts. */
void
BM_RunWorkload(benchmark::State &state, const WorkloadLeg &leg)
{
    api::Session session(leg.spec);
    api::DesignFacts facts;
    if (session.designFacts(facts) != api::Status::Ok) {
        state.SkipWithError(session.lastError().c_str());
        return;
    }
    api::RunParams params = leg.params;
    for (auto _ : state) {
        params.seed += 1;
        benchmark::DoNotOptimize(
            api::runWorkload(leg.spec, params, facts).checksum);
    }
    state.SetItemsProcessed(state.iterations() * leg.params.epochs);
}

/** serve_fresh-sized results to serialize (perfbench templates). */
std::vector<WorkloadLeg>
serializeLegs()
{
    using K = api::WorkloadKind;
    const auto F = Backend::Functional;
    api::NetlistSpec mesh4 = legSpec(K::NocMesh, 2, 4, DpuMode::Bipolar);
    mesh4.gridRows = mesh4.gridCols = 4;
    return {
        {"fir4", legSpec(K::Fir, 4, 6, DpuMode::Unipolar),
         legParams(F, 12288, 4)},
        {"dpu16", legSpec(K::Dpu, 16, 6, DpuMode::Bipolar),
         legParams(F, 3072, 1)},
        {"mesh4x4", mesh4, legParams(F, 192, 1)},
    };
}

/** api::resultToJson of one precomputed result. */
void
BM_ResultToJson(benchmark::State &state, const WorkloadLeg &leg)
{
    const api::RunResult result = api::runWorkload(leg.spec, leg.params);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            api::resultToJson(leg.spec, leg.params, result));
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(result.counts.size()));
}

/**
 * Measured head-to-head on the BM_DpuEpochPulseLevel/8 workload.
 * Returns the speedup (pulse time / functional time).
 */
double
measureSpeedup()
{
    using clock = std::chrono::steady_clock;
    const EpochConfig cfg(6, 40 * kPicosecond);
    const int length = 8;

    // Equal work check first: both engines must produce the same
    // output count for this workload before timing means anything.
    const auto pulse_count = pulseDpuEpoch(length, cfg);
    const auto func_count = funcDpuEpoch(length, cfg);
    if (static_cast<int>(pulse_count) != func_count) {
        std::fprintf(stderr,
                     "FAIL: engines disagree on the workload: pulse "
                     "%zu vs functional %d\n",
                     pulse_count, func_count);
        return -1.0;
    }

    const int pulse_iters = 30;
    const auto t0 = clock::now();
    for (int i = 0; i < pulse_iters; ++i)
        benchmark::DoNotOptimize(pulseDpuEpoch(length, cfg));
    const auto t1 = clock::now();

    const int func_iters = 3000;
    for (int i = 0; i < func_iters; ++i)
        benchmark::DoNotOptimize(funcDpuEpoch(length, cfg));
    const auto t2 = clock::now();

    const double pulse_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        pulse_iters;
    const double func_ns =
        std::chrono::duration<double, std::nano>(t2 - t1).count() /
        func_iters;
    std::printf("\nhead-to-head (DPU length 8, one epoch, the pulse "
                "netlist built in the loop):\n  pulse-level %.0f "
                "ns/epoch, functional %.0f ns/epoch, speedup %.0fx\n",
                pulse_ns, func_ns, pulse_ns / func_ns);
    return pulse_ns / func_ns;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Artifact artifact("micro_func", &argc, argv);
    bench::ArtifactReporter reporter(artifact);
    for (const WorkloadLeg &leg : workloadLegs())
        benchmark::RegisterBenchmark(
            (std::string("BM_RunWorkload/") + leg.name).c_str(),
            BM_RunWorkload, leg);
    for (const WorkloadLeg &leg : serializeLegs())
        benchmark::RegisterBenchmark(
            (std::string("BM_ResultToJson/") + leg.name).c_str(),
            BM_ResultToJson, leg);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    const double speedup = measureSpeedup();
    if (speedup < 0)
        return 1;
    artifact.metric("speedup_vs_pulse_dpu8", speedup, "x");
    if (speedup < 50.0) {
        std::fprintf(stderr,
                     "FAIL: functional backend only %.1fx faster than "
                     "the pulse-level kernel (floor: 50x)\n",
                     speedup);
        return 1;
    }
    return 0;
}
