/**
 * @file
 * Fig. 16 reproduction: dot-product-unit area vs bits for vector
 * lengths 16..256, runnable on either engine (--backend).
 *
 * Paper claims: the U-SFQ DPU's JJ count is independent of resolution
 * and proportional to the vector length; unary wins below L = 64,
 * the two become comparable around L = 128 (unary ahead beyond ~12
 * bits), and beyond 256 taps the parallel datapath outgrows a single
 * binary MAC.
 *
 * The pulse-level leg builds the full netlist and checks it: the
 * report()/exportStats() rollups agree with totalJJs(), and the cells
 * it instantiates add up to the closed form DotProductUnit::jjsFor.
 * The functional leg reports that closed form, so the two engines
 * agree on every JJ figure -- the area contract is
 * backend-independent.
 */

#include <iostream>

#include "baseline/binary_models.hh"
#include "bench_common.hh"
#include "core/dpu.hh"
#include "sim/backend.hh"
#include "sim/netlist.hh"
#include "sta/sta.hh"
#include "util/table.hh"
#include "util/types.hh"

using namespace usfq;

namespace
{

/**
 * Build the @p taps-element bipolar DPU netlist and check its area
 * rollups against the closed form; false (after printing why) on a
 * mismatch.  At 16 taps, also prints the hierarchical JJ rollup.
 */
bool
netlistMatchesClosedForm(int taps)
{
    Netlist nl;
    auto &dpu = nl.create<DotProductUnit>("dpu", taps, DpuMode::Bipolar);
    nl.waive(LintRule::DanglingInput,
             "area study: the DPU is instantiated unwired");
    nl.waive(LintRule::OpenOutput,
             "area study: the DPU is instantiated unwired");
    nl.elaborate();

    // Zero-anchor STA turns the windows into pure path-skew analysis
    // (no stimulus exists in an area study); annotating puts the
    // per-subtree worst slack beside the JJ rollup.
    StaOptions staOpts;
    staOpts.anchorMode = StaOptions::AnchorMode::Zero;
    const StaReport timing = runSta(nl, staOpts);
    if (taps == 16) {
        std::cout << "Hierarchical JJ rollup (16 taps, two levels; "
                     "glue JJs show up as JJ > child JJ, worst "
                     "zero-anchor skew slack per subtree beside "
                     "it):\n";
        nl.report().print(std::cout, 2);
        if (timing.hasWorstSlack)
            std::cout << "  worst slack overall: "
                      << ticksToPs(timing.worstSlack) << " ps ("
                      << timing.errors()
                      << " unwaived timing findings)\n";
        std::cout << "\n";
    }

    // Cross-backend area contract: the closed form the functional
    // backend reports must count exactly the cells this netlist
    // instantiates.
    if (dpu.jjCount() != DotProductUnit::jjsFor(taps, DpuMode::Bipolar)) {
        std::cerr << "FAIL: netlist DPU jjCount (" << dpu.jjCount()
                  << ") != closed form ("
                  << DotProductUnit::jjsFor(taps, DpuMode::Bipolar)
                  << ") at " << taps << " taps\n";
        return false;
    }

    // The hierarchical rollup must agree with the flat count: the DPU
    // is the only top-level block, so the root's inclusive JJ total is
    // exactly totalJJs().
    const HierReport rollup = nl.report();
    if (rollup.root.jj != nl.totalJJs()) {
        std::cerr << "FAIL: report() rollup (" << rollup.root.jj
                  << " JJs) != totalJJs() (" << nl.totalJJs()
                  << ") at " << taps << " taps\n";
        return false;
    }

    // The stats-registry rollup must agree with both: export this
    // netlist into a private registry and cross-check the subtree sum
    // against report()/totalJJs().
    obs::StatsRegistry reg;
    nl.exportStats(reg);
    const std::uint64_t regJJ = reg.sumCounters(nl.name(), "jj");
    if (regJJ != static_cast<std::uint64_t>(nl.totalJJs())) {
        std::cerr << "FAIL: stats-registry JJ rollup (" << regJJ
                  << ") != totalJJs() (" << nl.totalJJs() << ") at "
                  << taps << " taps\n";
        return false;
    }
    return true;
}

int
runBackend(Backend backend, const bench::BenchArgs &args)
{
    bench::Artifact artifact("fig16_dpu_area", args, backend);

    Table table(std::string("Fig. 16 series (JJ counts, ") +
                    backendName(backend) + " backend)",
                {"Taps", "Unary DPU", "Binary 6b", "Binary 8b",
                 "Binary 12b", "Binary 16b", "Unary wins at"});
    for (int taps : {16, 32, 64, 128, 256}) {
        if (backend == Backend::PulseLevel &&
            !netlistMatchesClosedForm(taps))
            return 1;
        const double unary =
            DotProductUnit::jjsFor(taps, DpuMode::Bipolar);

        artifact.metric("unary_jj_" + std::to_string(taps) + "taps",
                        unary, "JJ");
        artifact.metric("binary8_jj_" + std::to_string(taps) + "taps",
                        baseline::BinaryDpu{taps, 8}.areaJJ(), "JJ");
        std::string wins = "never";
        for (int bits = 4; bits <= 16; ++bits) {
            if (baseline::BinaryDpu{taps, bits}.areaJJ() > unary) {
                wins = ">= " + std::to_string(bits) + " bits";
                break;
            }
        }
        table.row()
            .cell(taps)
            .cell(unary, 5)
            .cell(baseline::BinaryDpu{taps, 6}.areaJJ(), 5)
            .cell(baseline::BinaryDpu{taps, 8}.areaJJ(), 5)
            .cell(baseline::BinaryDpu{taps, 12}.areaJJ(), 5)
            .cell(baseline::BinaryDpu{taps, 16}.areaJJ(), 5)
            .cell(wins);
    }
    table.print(std::cout);

    if (backend == Backend::PulseLevel)
        artifact.note("rollup_check",
                      "report(), stats registry and totalJJs() agree "
                      "at every vector length");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::BenchArgs::parse(&argc, argv);
    bench::banner("Fig. 16: dot-product unit area",
                  "unary area flat in bits, linear in taps; "
                  "crossover with the binary DPU near 64-128 taps");

    for (Backend backend : args.backends()) {
        const int rc = runBackend(backend, args);
        if (rc != 0)
            return rc;
    }

    std::cout << "\nrollup check: the pulse-level report() root JJ "
                 "total matches totalJJs() at every vector length, "
                 "and the two backends report identical areas.\n";
    std::cout << "\nThe unary column is resolution-independent: the "
                 "same netlist serves every bit width.\nPer-tap unary "
                 "cost = bipolar multiplier (46 JJs) + balancer tree "
                 "share (~60 JJs) + fanout.\n";
    return 0;
}
