/**
 * @file
 * Table 3 reproduction: power of a 32-element DPU at the paper's
 * half-activity operating point (streams at half the maximum rate, RL
 * inputs at half the epoch).
 *
 * Paper claims (Table 3): multiplier ~90 nW active / 0.05 mW passive;
 * balancer ~170 nW / 0.1 mW; whole DPU ~8.4 uW active / 4.8 mW
 * passive (RSFQ bias, no cooling).
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/adder.hh"
#include "core/dpu.hh"
#include "core/encoding.hh"
#include "core/multiplier.hh"
#include "metrics/power.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"
#include "sfq/sources.hh"

using namespace usfq;

namespace
{

const EpochConfig kCfg(8); // 9 ps slots

/** Multiplier at half activity: stream = 0 (half rate), RL = 0. */
metrics::PowerReport
multiplierPower()
{
    Netlist nl;
    auto &mult = nl.create<BipolarMultiplier>("m");
    auto &src_e = nl.create<PulseSource>("e");
    auto &src_a = nl.create<PulseSource>("a");
    auto &src_b = nl.create<PulseSource>("b");
    auto &src_clk = nl.create<PulseSource>("clk");
    src_e.out.connect(mult.epoch());
    src_a.out.connect(mult.streamIn());
    src_b.out.connect(mult.rlIn());
    src_clk.out.connect(mult.clkIn());
    mult.out().markOpen("power study measures switching activity, "
                        "not the product stream");

    src_e.pulseAt(0);
    src_a.pulsesAt(kCfg.streamTimes(kCfg.nmax() / 2));
    src_b.pulseAt(kCfg.rlArrival(kCfg.nmax() / 2));
    src_clk.pulsesAt(BipolarMultiplier::gridClockTimes(kCfg, 0));
    nl.run();
    return metrics::measure(nl, kCfg.duration());
}

/** Balancer fed two half-rate streams. */
metrics::PowerReport
balancerPower()
{
    Netlist nl;
    auto &bal = nl.create<Balancer>("b");
    auto &sa = nl.create<PulseSource>("sa");
    auto &sb = nl.create<PulseSource>("sb");
    sa.out.connect(bal.inA());
    sb.out.connect(bal.inB());
    bal.y1().markOpen("power study measures switching activity only");
    bal.y2().markOpen("power study measures switching activity only");
    // Half-rate streams on the slot grid (coincident pairs are the
    // balancer's job).
    sa.pulsesAt(kCfg.streamTimes(kCfg.nmax() / 2));
    sb.pulsesAt(kCfg.streamTimes(kCfg.nmax() / 2));
    nl.run();
    return metrics::measure(nl, kCfg.duration());
}

/** The whole 32-element bipolar DPU at half activity. */
metrics::PowerReport
dpuPower()
{
    const int length = 32;
    Netlist nl;
    auto &dpu =
        nl.create<DotProductUnit>("dpu", length, DpuMode::Bipolar);
    auto &src_e = nl.create<PulseSource>("e");
    auto &src_clk = nl.create<PulseSource>("clk");
    src_e.out.connect(dpu.epochIn());
    src_clk.out.connect(dpu.clkIn());
    dpu.out().markOpen("power study measures switching activity, "
                       "not the dot product");
    src_e.pulseAt(0);
    src_clk.pulsesAt(BipolarMultiplier::gridClockTimes(kCfg, 0));
    for (int i = 0; i < length; ++i) {
        auto &r = nl.create<PulseSource>(indexedName("a", i));
        auto &s = nl.create<PulseSource>(indexedName("b", i));
        r.out.connect(dpu.rlIn(i));
        s.out.connect(dpu.streamIn(i));
        r.pulseAt(16 * kPicosecond +
                  kCfg.rlTime(kCfg.nmax() / 2));
        s.pulsesAt(kCfg.streamTimes(kCfg.nmax() / 2));
    }
    nl.run();
    return metrics::measure(nl, kCfg.duration());
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Artifact artifact("tab3_dpu_power", &argc, argv);
    bench::banner("Table 3: power of a 32-element DPU (half activity)",
                  "multiplier 9e-5 mW active / 0.05 mW passive; "
                  "balancer 17e-5 / 0.1; DPU 84e-4 / 4.8");

    const auto mult = multiplierPower();
    const auto bal = balancerPower();
    const auto dpu = dpuPower();

    std::printf("  %-22s %-16s %-16s\n", "Component", "Active [mW]",
                "Passive [mW]");
    std::printf("  %-22s %-16.2e %-16.3f\n", "Multiplier",
                mult.activeW * 1e3, mult.passiveW * 1e3);
    std::printf("  %-22s %-16.2e %-16.3f\n", "Balancer",
                bal.activeW * 1e3, bal.passiveW * 1e3);
    std::printf("  %-22s %-16.2e %-16.3f\n", "DPU w/o cooling",
                dpu.activeW * 1e3, dpu.passiveW * 1e3);

    std::printf("\npaper Table 3:        9e-05 / 0.05, 17e-05 / 0.1, "
                "84e-04 / 4.8 [mW]\n");
    std::printf("\nERSFQ option removes the passive bias power at a "
                "%.1fx area cost; active power stays three orders of "
                "magnitude below a CMOS MAC (~1 mW).\n",
                metrics::kErsfqAreaFactor);
    return 0;
}
