/**
 * @file
 * Fig. 14 reproduction: (a) per-PE latency of the U-SFQ processing
 * element vs the binary MAC; (b) area of a throughput-equalized U-SFQ
 * PE array vs one binary MAC datapath.  Runnable on either engine
 * (--backend).
 *
 * Paper claims: the 126-JJ PE gives 98-99%% area savings vs a 9k-17k
 * JJ 8-bit binary PE; at equal throughput the array saves 93-96%% vs
 * WP below 12 bits, shrinking as resolution grows; vs the 8-bit BP
 * design [37] the savings are ~28%%.
 *
 * The pulse-level leg instantiates the real PE netlist; the functional
 * leg uses the stream-level model (src/func/), cross-checks its epoch
 * arithmetic against the shared counting model (peExpectedSlot), and
 * both legs must report the same closed-form JJ count.
 */

#include <cmath>
#include <iostream>

#include "baseline/binary_models.hh"
#include "bench_common.hh"
#include "core/pe.hh"
#include "func/components.hh"
#include "sim/netlist.hh"
#include "util/table.hh"

using namespace usfq;

namespace
{

int
peJjOn(Backend backend)
{
    Netlist nl;
    if (backend == Backend::PulseLevel) {
        auto &pe = nl.create<ProcessingElement>("pe", EpochConfig(8));
        nl.waive(LintRule::DanglingInput,
                 "area study: the PE is instantiated unwired");
        nl.waive(LintRule::OpenOutput,
                 "area study: the PE is instantiated unwired");
        nl.elaborate();
        if (pe.jjCount() != ProcessingElement::kJJs) {
            std::cerr << "FAIL: netlist PE jjCount (" << pe.jjCount()
                      << ") != closed form ("
                      << ProcessingElement::kJJs << ")\n";
            return -1;
        }
        return pe.jjCount();
    }

    const EpochConfig cfg(8);
    auto &pe = nl.create<func::ProcessingElement>("pe", cfg);
    nl.elaborate();

    // Cross-backend arithmetic contract: the functional PE's epoch
    // evaluation must match the shared counting model for pinned
    // operands.
    const int in1 = cfg.nmax() / 3;
    const int in2 = (2 * cfg.nmax()) / 3;
    const int in3 = cfg.nmax() / 5;
    const int expect = peExpectedSlot(cfg, in1, in2, in3);
    if (pe.evaluate(in1, in2, in3) != expect) {
        std::cerr << "FAIL: functional PE disagrees with the shared "
                     "counting model\n";
        return -1;
    }
    return pe.jjCount();
}

int
runBackend(Backend backend, const bench::BenchArgs &args)
{
    bench::Artifact artifact("fig14_pe", args, backend);

    const int pe_jj = peJjOn(backend);
    if (pe_jj < 0)
        return 1;
    const double t_slot_ps = 9.0; // multiplier-limited stream rate

    Table table(std::string("Fig. 14 series (") +
                    backendName(backend) + " backend)",
                {"Bits", "Unary PE lat (ns)", "Binary MAC lat (ns)",
                 "PEs for equal thr.", "Array JJs", "Binary MAC JJs",
                 "Area savings %"});
    for (int bits = 4; bits <= 16; ++bits) {
        const baseline::BinaryPe bin{bits};
        const double unary_ns =
            std::ldexp(1.0, bits) * t_slot_ps * 1e-3;
        const double bin_ns = bin.latencyPs() * 1e-3;
        const auto pes = static_cast<int>(
            std::ceil(unary_ns / bin_ns));
        const double array_jj = static_cast<double>(pes) * pe_jj;
        table.row()
            .cell(bits)
            .cell(unary_ns, 4)
            .cell(bin_ns, 4)
            .cell(pes)
            .cell(array_jj, 5)
            .cell(bin.areaJJ(), 5)
            .cell(bench::savingsPct(array_jj, bin.areaJJ()), 3);
    }
    table.print(std::cout);
    artifact.metric("pe_jj", pe_jj, "JJ");

    // Bit-parallel comparison at 8 bits ([37, 38]).
    const baseline::BinaryPe bp{8, baseline::BinaryArch::BitParallel};
    const double unary8_ops = 1e12 / (256.0 * t_slot_ps);
    const auto pes_bp =
        static_cast<int>(std::ceil(bp.throughputOps() / unary8_ops));
    const double array_bp = static_cast<double>(pes_bp) * pe_jj;
    std::cout << "\n8-bit BP comparison: " << pes_bp
              << " U-SFQ PEs match the 48 GHz pipeline -> "
              << array_bp << " JJs vs " << bp.areaJJ()
              << " JJs binary: "
              << bench::savingsPct(array_bp, bp.areaJJ())
              << "% savings (paper: 28%)\n";

    std::cout << "single-PE area: " << pe_jj
              << " JJs (paper: 126), vs 8-bit binary PE "
              << baseline::BinaryPe{8}.areaJJ() << " JJs -> "
              << bench::savingsPct(pe_jj,
                                   baseline::BinaryPe{8}.areaJJ())
              << "% savings (paper: 98-99%)\n\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::BenchArgs::parse(&argc, argv);
    bench::banner("Fig. 14: processing element latency and "
                  "equal-throughput area",
                  "126-JJ PE; 93-96% array savings vs WP below 12 "
                  "bits; ~28% vs the 8-bit BP design");

    for (Backend backend : args.backends()) {
        const int rc = runBackend(backend, args);
        if (rc != 0)
            return rc;
    }
    return 0;
}
