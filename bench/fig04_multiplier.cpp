/**
 * @file
 * Fig. 4 reproduction: latency and area of the U-SFQ multiplier versus
 * binary multipliers across 2..16 bits, runnable on either engine
 * (--backend).
 *
 * Paper claims checked here:
 *  - the unary multiplier area is constant (46 JJs) while binary area
 *    grows linearly with bits;
 *  - 25x-200x less area than the wave-pipelined baseline;
 *  - 370x less area than the 17 kJJ bit-parallel multiplier [37], which
 *    in turn is ~6x faster at 8 bits;
 *  - unary latency 2^B * t_INV (t_INV = 9 ps, 111 GHz peak rate) grows
 *    exponentially and beats WP binary below ~8 bits.
 *
 * The pulse-level leg instantiates the real multiplier netlist; the
 * functional leg uses the stream-level model (src/func/).  Both must
 * report the closed-form 46 JJs -- the area contract is
 * backend-independent -- and the functional leg range-checks its epoch
 * evaluation on a pinned operand sweep.
 */

#include <cmath>
#include <iostream>

#include "bench_common.hh"
#include "core/multiplier.hh"
#include "func/components.hh"
#include "sim/netlist.hh"
#include "soa/table2.hh"
#include "util/table.hh"

using namespace usfq;

namespace
{

int
unaryJjOn(Backend backend)
{
    Netlist nl;
    if (backend == Backend::PulseLevel) {
        auto &mult = nl.create<BipolarMultiplier>("mult");
        nl.waive(LintRule::DanglingInput,
                 "area study: the multiplier is instantiated unwired");
        nl.waive(LintRule::OpenOutput,
                 "area study: the multiplier is instantiated unwired");
        nl.elaborate();
        // Cross-backend area contract: the instantiated cells must add
        // up to the closed form the functional model reports.
        if (mult.jjCount() != BipolarMultiplier::kJJs) {
            std::cerr << "FAIL: netlist multiplier jjCount ("
                      << mult.jjCount() << ") != closed form ("
                      << BipolarMultiplier::kJJs << ")\n";
            return -1;
        }
        return mult.jjCount();
    }

    auto &mult = nl.create<func::BipolarMultiplier>("mult");
    nl.elaborate();

    // Arithmetic sanity on the functional model: a pinned sweep.
    const EpochConfig cfg(8);
    for (int n : {0, 17, cfg.nmax()}) {
        for (int rl : {0, cfg.nmax() / 3, cfg.nmax()}) {
            const int scalar = mult.evaluate(cfg, n, rl);
            if (scalar < 0 || scalar > cfg.nmax()) {
                std::cerr << "FAIL: functional multiplier count "
                          << scalar << " out of range at n=" << n
                          << " rl=" << rl << "\n";
                return -1;
            }
        }
    }
    return mult.jjCount();
}

int
runBackend(Backend backend, const bench::BenchArgs &args)
{
    bench::Artifact artifact("fig04_multiplier", args, backend);

    const int unary_jj = unaryJjOn(backend);
    if (unary_jj < 0)
        return 1;
    const double t_inv_ps = 9.0;

    const auto area_fit = soa::areaFit(soa::Unit::Multiplier);
    const auto lat_fit = soa::latencyFit(soa::Unit::Multiplier);

    Table table(std::string("Fig. 4 series (") +
                    backendName(backend) + " backend)",
                {"Bits", "Unary JJs", "Binary-WP JJs (fit)",
                 "Area savings", "Unary lat (ns)",
                 "Binary-WP lat (ns)", "Faster"});
    for (int bits = 2; bits <= 16; bits += 2) {
        const double unary_lat_ns =
            std::ldexp(1.0, bits) * t_inv_ps * 1e-3;
        const double bin_jj = std::max(area_fit(bits), 200.0);
        const double bin_lat_ns = lat_fit(bits) * 1e-3;
        table.row()
            .cell(bits)
            .cell(unary_jj)
            .cell(bin_jj, 4)
            .cell(bench::times(bin_jj / unary_jj))
            .cell(unary_lat_ns, 3)
            .cell(bin_lat_ns, 3)
            .cell(unary_lat_ns < bin_lat_ns ? "unary" : "binary");
        artifact.metric("binary_wp_jj_" + std::to_string(bits) + "b",
                        bin_jj, "JJ");
    }
    table.print(std::cout);
    artifact.metric("unary_jj", unary_jj, "JJ");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::BenchArgs::parse(&argc, argv);
    bench::banner("Fig. 4: U-SFQ multiplier vs binary multipliers",
                  "25x-200x area savings vs WP; 370x vs the BP "
                  "multiplier [37] at 6x the latency");

    for (Backend backend : args.backends()) {
        const int rc = runBackend(backend, args);
        if (rc != 0)
            return rc;
    }

    const int unary_jj = BipolarMultiplier::kJJs;
    const double t_inv_ps = 9.0;
    const auto area_fit = soa::areaFit(soa::Unit::Multiplier);
    const auto &bp = soa::bitParallelMultiplier8();

    std::cout << "\nChecks against the paper:\n";
    std::cout << "  unary multiplier area: " << unary_jj
              << " JJs (constant in bits, both backends agree)\n";
    std::cout << "  vs BP [37] at 8 bits: "
              << bench::times(static_cast<double>(bp.jjCount) /
                              unary_jj)
              << " area savings (paper: 370x)\n";
    const double unary8_ns = 256 * t_inv_ps * 1e-3;
    std::cout << "  BP latency advantage at 8 bits: "
              << bench::times(unary8_ns * 1e3 /
                              (1000.0 / 48.0 * 8))
              << " (paper: ~6x faster than U-SFQ)\n";
    std::cout << "  area savings vs WP fit: "
              << bench::times(std::max(area_fit(2), 200.0) / unary_jj)
              << " at 2 bits to "
              << bench::times(area_fit(16) / unary_jj)
              << " at 16 bits (paper: 25x-200x)\n";
    return 0;
}
