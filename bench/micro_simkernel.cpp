/**
 * @file
 * google-benchmark micro benches of the simulation substrate itself:
 * event-queue throughput, cell hot paths, counting-network epochs,
 * and the FIR functional model.
 */

#include <benchmark/benchmark.h>

#include <array>

#include "bench_gbench.hh"
#include "core/adder.hh"
#include "core/dpu.hh"
#include "core/encoding.hh"
#include "core/fir.hh"
#include "core/multiplier.hh"
#include "dsp/fir_design.hh"
#include "sim/event_queue.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"
#include "sfq/params.hh"
#include "sfq/sources.hh"

using namespace usfq;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const auto n = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            eq.schedule(static_cast<Tick>(i % 1000),
                        [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

/** Cell delays a pulse meets on its way through a chain (sfq/params). */
constexpr std::array<Tick, 8> kChainDelays = {
    cell::kJtlDelay,  cell::kSplitterDelay,  cell::kMergerDelay,
    cell::kDffDelay,  cell::kTffDelay,       cell::kInverterDelay,
    cell::kBffDelay,  cell::kTff2Delay};
constexpr int kChainFanout = 4;
constexpr int kChainDepth = 8;

/** Stage @p stage of chain @p lane fired: pass the pulse on. */
void
chainStage(EventQueue *eq, int stage, int lane)
{
    if (stage + 1 == kChainDepth)
        return;
    const Tick delay =
        kChainDelays[static_cast<std::size_t>((stage + lane) & 7)];
    eq->scheduleAfter(delay, [eq, stage, lane] {
        chainStage(eq, stage + 1, lane);
    });
}

/**
 * The event kernel on the horizon pulse-level audits have: a clock
 * train pre-scheduled up front, one event per pulse as
 * ClockSource::program builds it, every pulse fanning out (a splitter
 * tree) into kChainFanout chains of kChainDepth cells whose delays are
 * the sfq/params cell delays (2-20 ps).  Items = events executed, so
 * items_per_second is the kernel's events/s.
 */
void
BM_EventQueueCellHorizon(benchmark::State &state)
{
    const auto pulses = static_cast<std::uint64_t>(state.range(0));
    constexpr Tick kPeriod = 40 * kPicosecond;
    std::uint64_t events = 0;
    for (auto _ : state) {
        EventQueue eq;
        for (std::uint64_t i = 0; i < pulses; ++i) {
            const Tick when = static_cast<Tick>(i) * kPeriod;
            eq.schedule(when, [q = &eq] {
                for (int lane = 0; lane < kChainFanout; ++lane)
                    q->scheduleAfter(cell::kSplitterDelay, [q, lane] {
                        chainStage(q, 0, lane);
                    });
            });
        }
        eq.run();
        events += eq.executed();
        benchmark::DoNotOptimize(events);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueCellHorizon)->Arg(256)->Arg(2368);

void
BM_UnipolarMultiplierEpoch(benchmark::State &state)
{
    const EpochConfig cfg(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        Netlist nl;
        auto &mult = nl.create<UnipolarMultiplier>("m");
        auto &e = nl.create<PulseSource>("e");
        auto &a = nl.create<PulseSource>("a");
        auto &b = nl.create<PulseSource>("b");
        PulseTrace out;
        e.out.connect(mult.epoch());
        a.out.connect(mult.streamIn());
        b.out.connect(mult.rlIn());
        mult.out().connect(out.input());
        e.pulseAt(0);
        a.pulsesAt(cfg.streamTimes(cfg.nmax() / 2));
        b.pulseAt(cfg.rlArrival(cfg.nmax() / 2));
        nl.run();
        benchmark::DoNotOptimize(out.count());
    }
}
BENCHMARK(BM_UnipolarMultiplierEpoch)->Arg(6)->Arg(8)->Arg(10);

void
BM_CountingNetworkEpoch(benchmark::State &state)
{
    const int fan_in = static_cast<int>(state.range(0));
    const EpochConfig cfg(6, 40 * kPicosecond);
    for (auto _ : state) {
        Netlist nl;
        auto &net = nl.create<TreeCountingNetwork>("net", fan_in);
        PulseTrace out;
        net.out().connect(out.input());
        for (int i = 0; i < fan_in; ++i) {
            auto &src = nl.create<PulseSource>(indexedName("s", i));
            src.out.connect(net.in(i));
            src.pulsesAt(cfg.streamTimes(cfg.nmax() / 2));
        }
        nl.run();
        benchmark::DoNotOptimize(out.count());
    }
}
BENCHMARK(BM_CountingNetworkEpoch)->Arg(4)->Arg(16)->Arg(64);

void
BM_DpuEpochPulseLevel(benchmark::State &state)
{
    const int length = static_cast<int>(state.range(0));
    const EpochConfig cfg(6, 40 * kPicosecond);
    for (auto _ : state) {
        Netlist nl;
        auto &dpu = nl.create<DotProductUnit>("dpu", length,
                                              DpuMode::Unipolar);
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
        benchmark::DoNotOptimize(out.count());
    }
    state.SetItemsProcessed(state.iterations() * length);
}
BENCHMARK(BM_DpuEpochPulseLevel)->Arg(8)->Arg(32);

void
BM_FirModelSample(benchmark::State &state)
{
    const int taps = static_cast<int>(state.range(0));
    const auto h = dsp::designLowpass(taps, 2500.0, 20000.0);
    UsfqFirModel fir(h, {.taps = taps, .bits = 12});
    std::vector<double> window(static_cast<std::size_t>(taps), 0.3);
    for (auto _ : state)
        benchmark::DoNotOptimize(fir.step(window));
    state.SetItemsProcessed(state.iterations() * taps);
}
BENCHMARK(BM_FirModelSample)->Arg(16)->Arg(64)->Arg(256);

} // namespace

int
main(int argc, char **argv)
{
    return bench::gbenchMain("micro_simkernel", argc, argv);
}
