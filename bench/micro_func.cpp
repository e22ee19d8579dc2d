/**
 * @file
 * google-benchmark micro benches of the stream-level functional
 * backend (src/func/), plus a measured head-to-head against the
 * pulse-level event kernel on the identical workload.
 *
 * The headline artifact metric is speedup_vs_pulse_dpu8: wall-clock
 * ratio of the pulse-level BM_DpuEpochPulseLevel/8 workload
 * (micro_simkernel.cpp) to the same epoch evaluated by
 * func::DotProductUnit.  The bench FAILS (exit 1) if the functional
 * engine is less than 50x faster -- that floor is the reason the
 * backend exists (docs/functional.md).
 *
 * BM_RunWorkload/<leg> times whole api::runWorkload calls from
 * precomputed design facts, one per engine leg (scalar, batched, FIR,
 * functional NoC, and the pulse-level DPU, gen and NoC rigs); items
 * are epochs, so 1e9 / items_per_second is the leg's ns per epoch.
 *
 * BM_ResultToJson/<template> times api::resultToJson -- the broker's
 * serialize step -- on a precomputed result of a serve_fresh-sized
 * request; items are per-epoch counts, so 1e9 / items_per_second is
 * ns per serialized count.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/facade.hh"
#include "api/spec.hh"
#include "bench_gbench.hh"
#include "core/dpu.hh"
#include "core/encoding.hh"
#include "func/batch.hh"
#include "func/components.hh"
#include "func/stream.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"
#include "sfq/sources.hh"
#include "util/args.hh"
#include "util/span_kernels.hh"

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
        auto &r = nl.create<PulseSource>("a" + std::to_string(i));
        auto &s = nl.create<PulseSource>("b" + std::to_string(i));
        r.out.connect(dpu.rlIn(i));
        s.out.connect(dpu.streamIn(i));
        r.pulseAt(20 * kPicosecond + cfg.rlTime(cfg.nmax() / 2));
        s.pulsesAt(cfg.streamTimes(cfg.nmax() / 2));
    }
    nl.run();
    return out.count();
}

/** The same epoch on the functional backend, netlist-in-loop. */
int
funcDpuEpoch(int length, const EpochConfig &cfg)
{
    Netlist nl;
    auto &dpu = nl.create<func::DotProductUnit>("dpu", length,
                                                DpuMode::Unipolar);
    const std::vector<int> streams(static_cast<std::size_t>(length),
                                   cfg.nmax() / 2);
    const std::vector<int> rls(static_cast<std::size_t>(length),
                               cfg.nmax() / 2);
    return dpu.evaluate(cfg, streams, rls);
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
BM_DpuEpochFunctionalReuse(benchmark::State &state)
{
    // Component built once, evaluated per iteration: the steady-state
    // cost of a functional sweep that keeps its netlist.
    const int length = static_cast<int>(state.range(0));
    const EpochConfig cfg(6, 40 * kPicosecond);
    Netlist nl;
    auto &dpu = nl.create<func::DotProductUnit>("dpu", length,
                                                DpuMode::Unipolar);
    const std::vector<int> streams(static_cast<std::size_t>(length),
                                   cfg.nmax() / 2);
    const std::vector<int> rls(static_cast<std::size_t>(length),
                               cfg.nmax() / 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(dpu.evaluate(cfg, streams, rls));
    state.SetItemsProcessed(state.iterations() * length);
}
BENCHMARK(BM_DpuEpochFunctionalReuse)->Arg(8)->Arg(32);

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
    return {
        {"dpu16", legSpec(K::Dpu, 16, 6, DpuMode::Bipolar),
         legParams(F, 256, 1)},
        {"dpu16_batch8", legSpec(K::Dpu, 16, 6, DpuMode::Bipolar),
         legParams(F, 256, 8)},
        {"fir4_batch4", legSpec(K::Fir, 4, 6, DpuMode::Unipolar),
         legParams(F, 256, 4)},
        {"noc4x4", mesh4, legParams(F, 32, 1)},
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
    std::printf("\nhead-to-head (DPU length 8, one epoch, build in "
                "loop):\n  pulse-level %.0f ns/epoch, functional "
                "%.0f ns/epoch, speedup %.0fx\n",
                pulse_ns, func_ns, pulse_ns / func_ns);
    return pulse_ns / func_ns;
}

/**
 * Batched head-to-head on the same fig16 DPU workload: @p lanes
 * epochs per evaluateBatch call, steady-state (netlist and arena
 * reused, arena reset per call -- zero per-epoch allocation).
 * Records per-epoch times and gates against BOTH floors:
 *
 *   - >= 4x over the scalar functional build-in-loop path
 *     (funcDpuEpoch, the PR-5 baseline measureSpeedup times), and
 *   - >= 200x over the pulse-level kernel -- well above the scalar
 *     functional backend's 50x floor.
 */
bool
measureBatchedSpeedup(int lanes, bench::Artifact &artifact)
{
    using clock = std::chrono::steady_clock;
    const EpochConfig cfg(6, 40 * kPicosecond);
    const int length = 8;

    Netlist nl;
    auto &dpu = nl.create<func::DotProductUnit>("dpu", length,
                                                DpuMode::Unipolar);
    const std::size_t nlanes = static_cast<std::size_t>(lanes);
    std::vector<int> streams(static_cast<std::size_t>(length) * nlanes,
                             cfg.nmax() / 2);
    std::vector<int> rls(streams);
    std::vector<int> out(nlanes);
    WordArena arena;

    // Equal-work check: every lane must reproduce the scalar result.
    const int scalar_count = funcDpuEpoch(length, cfg);
    arena.reset();
    dpu.evaluateBatch(cfg, streams, rls, out, arena);
    for (int b = 0; b < lanes; ++b) {
        if (out[static_cast<std::size_t>(b)] != scalar_count) {
            std::fprintf(stderr,
                         "FAIL: batched lane %d disagrees with the "
                         "scalar functional engine: %d vs %d\n",
                         b, out[static_cast<std::size_t>(b)],
                         scalar_count);
            return false;
        }
    }

    // Best-of-N repetitions per leg: the batched leg is fast enough
    // (tens of us per rep) that a single descheduling under a loaded
    // ctest -j run would otherwise swamp the ratio.
    const int reps = 5;
    auto best_of = [&](auto &&body, int iters) {
        double best = 0.0;
        for (int r = 0; r < reps; ++r) {
            const auto t0 = clock::now();
            for (int i = 0; i < iters; ++i)
                body();
            const auto t1 = clock::now();
            const double ns =
                std::chrono::duration<double, std::nano>(t1 - t0)
                    .count() /
                iters;
            if (r == 0 || ns < best)
                best = ns;
        }
        return best;
    };

    const double pulse_ns = best_of(
        [&] { benchmark::DoNotOptimize(pulseDpuEpoch(length, cfg)); },
        10);
    const double func_ns = best_of(
        [&] { benchmark::DoNotOptimize(funcDpuEpoch(length, cfg)); },
        1000);
    // Per-epoch time divides by the lane count.
    const double batch_ns =
        best_of(
            [&] {
                arena.reset();
                dpu.evaluateBatch(cfg, streams, rls, out, arena);
                benchmark::DoNotOptimize(out.data());
            },
            1000) /
        lanes;
    const double vs_func = func_ns / batch_ns;
    const double vs_pulse = pulse_ns / batch_ns;
    std::printf("\nbatched head-to-head (DPU length 8, %d lanes, "
                "kernel %s):\n  pulse-level %.0f ns/epoch, scalar "
                "functional %.0f ns/epoch, batched %.1f ns/epoch\n"
                "  speedup vs scalar functional %.0fx, vs pulse "
                "%.0fx\n",
                lanes, span::kernelName(span::activeKernel()), pulse_ns,
                func_ns, batch_ns, vs_func, vs_pulse);

    artifact.metric("batch_width", lanes, "lanes");
    artifact.metric("batched_ns_per_epoch", batch_ns, "ns");
    artifact.metric("speedup_vs_scalar_func_dpu8", vs_func, "x");
    artifact.metric("speedup_vs_pulse_dpu8", vs_pulse, "x");
    artifact.note("kernel", span::kernelName(span::activeKernel()));

    if (vs_func < 4.0) {
        std::fprintf(stderr,
                     "FAIL: batched engine only %.1fx faster than the "
                     "scalar functional path (floor: 4x)\n",
                     vs_func);
        return false;
    }
    if (vs_pulse < 200.0) {
        std::fprintf(stderr,
                     "FAIL: batched engine only %.1fx faster than the "
                     "pulse-level kernel (floor: 200x)\n",
                     vs_pulse);
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    // --batch N (N > 1) adds the batched head-to-head and its own
    // BENCH_micro_func_batched.json artifact.  Extracted before the
    // main artifact so its flag check stays loud.
    int batch = 1;
    const std::string batch_str =
        args::extractFlag(&argc, argv, "batch");
    if (!batch_str.empty()) {
        batch = std::atoi(batch_str.c_str());
        if (batch < 1) {
            std::fprintf(stderr, "--batch: '%s' is not a lane count\n",
                         batch_str.c_str());
            return 1;
        }
    }

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

    if (batch > 1) {
        bench::Artifact batched("micro_func_batched");
        if (!measureBatchedSpeedup(batch, batched))
            return 1;
    }
    return 0;
}
