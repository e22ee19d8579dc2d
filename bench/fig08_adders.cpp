/**
 * @file
 * Fig. 8 reproduction: latency and area of the unary adders (2:1
 * merger, proposed balancer) against binary adders over 4..16 bits,
 * runnable on either engine (--backend).
 *
 * Paper claims: both unary options save large area with a latency
 * penalty; the balancer yields 11x-200x area savings vs the binary
 * adder across 4..16 bits.
 *
 * The pulse-level leg instantiates the real merger/balancer cells; the
 * functional leg uses the stream-level models (a 2:1 func::
 * MergerTreeAdder and a 2-input func::TreeCountingNetwork, whose
 * closed form is exactly one balancer).  Both legs must report the
 * same JJ figures, and the functional leg checks the balancer's
 * counting contract (output = ceil(sum/2)).
 */

#include <cmath>
#include <iostream>

#include "bench_common.hh"
#include "core/adder.hh"
#include "func/components.hh"
#include "sim/netlist.hh"
#include "soa/table2.hh"
#include "util/table.hh"

using namespace usfq;

namespace
{

struct AdderAreas
{
    int merger_jj = -1;
    int balancer_jj = -1;
};

AdderAreas
areasOn(Backend backend)
{
    Netlist nl;
    if (backend == Backend::PulseLevel) {
        auto &merger = nl.create<MergerTreeAdder>("m", 2);
        auto &balancer = nl.create<Balancer>("b");
        nl.waive(LintRule::DanglingInput,
                 "area study: the adders are instantiated unwired");
        nl.waive(LintRule::OpenOutput,
                 "area study: the adders are instantiated unwired");
        nl.elaborate();
        if (balancer.jjCount() != Balancer::kJJs) {
            std::cerr << "FAIL: netlist balancer jjCount ("
                      << balancer.jjCount() << ") != closed form ("
                      << Balancer::kJJs << ")\n";
            return {};
        }
        return {merger.jjCount(), balancer.jjCount()};
    }

    auto &merger = nl.create<func::MergerTreeAdder>("m", 2);
    auto &balancer = nl.create<func::TreeCountingNetwork>("b", 2);
    nl.elaborate();

    // Counting contract of the balancer: the output stream carries
    // ceil((a + b) / 2) pulses -- the "average" the paper's adder
    // computes.
    for (const auto &[a, b] : std::initializer_list<
             std::pair<int, int>>{{0, 0}, {5, 6}, {255, 255}, {1, 0}}) {
        const int expect = (a + b + 1) / 2;
        if (balancer.evaluate({a, b}) != expect) {
            std::cerr << "FAIL: functional balancer (" << a << ", "
                      << b << ") != " << expect << "\n";
            return {};
        }
    }
    return {merger.jjCount(), balancer.jjCount()};
}

int
runBackend(Backend backend, const bench::BenchArgs &args)
{
    bench::Artifact artifact("fig08_adders", args, backend);

    const AdderAreas areas = areasOn(backend);
    if (areas.merger_jj < 0 || areas.balancer_jj < 0)
        return 1;
    const int merger_jj = areas.merger_jj;
    const int balancer_jj = areas.balancer_jj;

    const auto area_fit = soa::areaFit(soa::Unit::Adder);
    const auto lat_fit = soa::latencyFit(soa::Unit::Adder);
    const double t_bff_ps =
        ticksToPs(TreeCountingNetwork::safeSpacing());
    const double t_merge_ps =
        ticksToPs(MergerTreeAdder::safeSpacing(2));

    Table table(std::string("Fig. 8 series (") +
                    backendName(backend) + " backend)",
                {"Bits", "Binary JJs (fit)", "Merger JJs",
                 "Balancer JJs", "Balancer savings", "Binary lat (ns)",
                 "Merger lat (ns)", "Balancer lat (ns)"});
    for (int bits = 4; bits <= 16; bits += 2) {
        const double bin_jj = std::max(area_fit(bits), 100.0);
        const double n = std::ldexp(1.0, bits);
        table.row()
            .cell(bits)
            .cell(bin_jj, 4)
            .cell(merger_jj)
            .cell(balancer_jj)
            .cell(bench::times(bin_jj / balancer_jj))
            .cell(lat_fit(bits) * 1e-3, 3)
            .cell(n * t_merge_ps * 1e-3, 3)
            .cell(n * t_bff_ps * 1e-3, 3);
    }
    table.print(std::cout);
    artifact.metric("merger_jj", merger_jj, "JJ");
    artifact.metric("balancer_jj", balancer_jj, "JJ");

    std::cout << "\nChecks against the paper ("
              << backendName(backend) << " backend):\n"
              << "  merger adder: " << merger_jj
              << " JJs; balancer: " << balancer_jj << " JJs\n"
              << "  balancer savings: "
              << bench::times(931.0 / balancer_jj)
              << " vs the 4-bit BP adder [23] up to "
              << bench::times(16683.0 / balancer_jj)
              << " vs the 16-bit WP adder [8] (paper: 11x-200x)\n"
              << "  balancer latency constraint: one pulse per t_BFF"
              << " = " << t_bff_ps << " ps -> 2^B * t_BFF per epoch\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::BenchArgs::parse(&argc, argv);
    bench::banner("Fig. 8: unary vs binary adders",
                  "balancer saves 11x-200x area vs binary for 4-16 "
                  "bits, at 2^B * t_BFF latency");

    for (Backend backend : args.backends()) {
        const int rc = runBackend(backend, args);
        if (rc != 0)
            return rc;
    }
    return 0;
}
