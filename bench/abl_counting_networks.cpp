/**
 * @file
 * Ablation: the three ways to add pulse streams, quantified.
 *
 *   merger tree      -- cheapest, loses coincident pulses;
 *   balancer tree    -- the paper's choice: lossless, one output;
 *   bitonic network  -- the full counting network [4]: lossless and
 *                       step-balanced on every output, at O(w log^2 w).
 *
 * For each topology: JJ area and the pulse loss measured under a fully
 * coincident workload (all lanes firing together -- the DPU's worst
 * case).  This backs DESIGN.md's "why the balancer tree" call-out.
 */

#include <iostream>
#include <numeric>

#include "bench_common.hh"
#include "core/adder.hh"
#include "core/bitonic.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"
#include "sfq/sources.hh"
#include "util/table.hh"

using namespace usfq;

namespace
{

constexpr Tick kSpacing = 40 * kPicosecond;
constexpr int kWaves = 8;

struct Outcome
{
    int jj;
    int delivered; ///< pulses reaching the output(s)
    int expected;
};

Outcome
runMergerTree(int width)
{
    Netlist nl;
    auto &add = nl.create<MergerTreeAdder>("m", width);
    PulseTrace out;
    add.out().connect(out.input());
    for (int i = 0; i < width; ++i) {
        auto &src = nl.create<PulseSource>(indexedName("s", i));
        src.out.connect(add.in(i));
        for (int k = 0; k < kWaves; ++k)
            src.pulseAt(10 * kPicosecond + k * kSpacing);
    }
    nl.run();
    return {add.jjCount(), static_cast<int>(out.count()),
            width * kWaves};
}

Outcome
runBalancerTree(int width)
{
    Netlist nl;
    auto &net = nl.create<TreeCountingNetwork>("t", width);
    PulseTrace out;
    net.out().connect(out.input());
    for (int i = 0; i < width; ++i) {
        auto &src = nl.create<PulseSource>(indexedName("s", i));
        src.out.connect(net.in(i));
        for (int k = 0; k < kWaves; ++k)
            src.pulseAt(10 * kPicosecond + k * kSpacing);
    }
    nl.run();
    // The tree divides by width: the output should carry kWaves.
    return {net.jjCount(), static_cast<int>(out.count()), kWaves};
}

Outcome
runBitonic(int width)
{
    Netlist nl;
    auto &net = nl.create<BitonicCountingNetwork>("b", width);
    std::vector<std::unique_ptr<PulseTrace>> outs;
    for (int i = 0; i < width; ++i) {
        outs.push_back(
            std::make_unique<PulseTrace>(indexedName("o", i)));
        net.out(i).connect(outs.back()->input());
    }
    for (int i = 0; i < width; ++i) {
        auto &src = nl.create<PulseSource>(indexedName("s", i));
        src.out.connect(net.in(i));
        for (int k = 0; k < kWaves; ++k)
            src.pulseAt(10 * kPicosecond + k * kSpacing);
    }
    nl.run();
    int total = 0;
    for (const auto &t : outs)
        total += static_cast<int>(t->count());
    return {net.jjCount(), total, width * kWaves};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Artifact artifact("abl_counting_networks", &argc, argv);
    bench::banner("Ablation: merger tree vs balancer tree vs bitonic "
                  "counting network",
                  "the balancer tree is the paper's sweet spot: "
                  "lossless like the bitonic network, near the "
                  "merger's area");

    Table table("Fully coincident workload (all lanes fire together, "
                "8 waves)",
                {"Width", "Topology", "JJs", "Delivered/expected",
                 "Loss %"});
    for (int width : {4, 8, 16, 32}) {
        const auto m = runMergerTree(width);
        const auto t = runBalancerTree(width);
        const auto b = runBitonic(width);
        auto add_row = [&](const char *topo, const Outcome &o) {
            table.row()
                .cell(width)
                .cell(topo)
                .cell(o.jj)
                .cell(std::to_string(o.delivered) + "/" +
                      std::to_string(o.expected))
                .cell(100.0 * (o.expected - o.delivered) / o.expected,
                      3);
        };
        add_row("merger tree", m);
        add_row("balancer tree", t);
        add_row("bitonic", b);
    }
    table.print(std::cout);

    std::cout << "\nmerger tree loses most coincident pulses; both "
                 "balancer topologies conserve them.\nThe tree gives "
                 "one averaged output (the DPU's need) at (w-1) "
                 "balancers; the bitonic network step-balances all w "
                 "outputs at (w/2)k(k+1)/2.\n";
    return 0;
}
